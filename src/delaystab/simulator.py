"""Forward iteration, fundamental-function tabulation and kernel sums.

The fundamental function X(n, k) solves the homogeneous equation with
x(n) = 0 for n < k and x(k) = 1; every solution decomposes over it, and
the checkers' witness quantities (kernel-weighted sums, the a-priori
product bound) are computed here.

Every entry point works on the steps from its start n0 to its horizon N
and reads the coefficient and lag tables on [n0, N - 1] from ``_tables``,
which refuses N < n0; the kernels in ``_kernels`` cap their own buffers.
``simulate``, ``fundamental`` and ``lemma6_sum`` step the recurrence
through one helper, ``_step``, from a history with zeros before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import KernelMemoryError
from .equation import Equation, InitialData
from .seqexpr import SeqExpr, eval_range, evaluation_scope

__all__ = [
    "Trajectory",
    "Kernel",
    "KernelMemoryError",
    "simulate",
    "fundamental",
    "kernel",
    "cauchy_apply",
    "representation_check",
    "product_bound",
    "lemma6_sum",
    "pituk_sum",
    "format_csv",
    "write_atomic",
    "write_trajectory_csv",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    n0: int
    values: np.ndarray  # x(n0), x(n0+1), ..., x(N)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense table X(n, k) for n0 <= k <= n <= N (zeros above diagonal)."""

    n0: int
    N: int
    values: np.ndarray  # values[n - n0, k - n0]

    def at(self, n: int, k: int) -> float:
        if n < k:
            return 0.0
        if k < self.n0 or n > self.N:
            raise IndexError(f"X({n}, {k}) lies outside the table [{self.n0}, {self.N}]")
        return float(self.values[n - self.n0, k - self.n0])


def _tables(eq: Equation, n0: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient and lag tables of the steps from n0 to N, on
    [n0, N - 1]: every entry point's window, refused when N < n0."""
    if N < n0:
        raise ValueError(f"horizon {N} precedes start {n0}")
    return eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)


def _step(eq: Equation, coeffs: np.ndarray, lags: np.ndarray, forcing: np.ndarray,
          history: Sequence[float]) -> np.ndarray:
    """x(n0), ..., x(N) stepped from ``history`` (x(n0 - len + 1) .. x(n0))
    with zeros before it.  The buffer keeps depth = min(T, steps + len - 1)
    entries before n0: zeros, then the history's last values up to x(n0),
    as no step reads x before n0 - T.  ``lags``, the caller's own table, is
    clipped at depth in place: a lag past the history reads one of those
    zeros, so a zero history is only as deep as its window."""
    steps, h = len(forcing), len(history)
    depth = min(eq.T, steps + h - 1)
    x = np.zeros(depth + steps + 1)
    x[max(depth + 1 - h, 0): depth + 1] = history[-(depth + 1):]
    np.minimum(lags, depth, out=lags)
    _kernels.step_recurrence(coeffs, lags, forcing, x, depth, steps)
    return x[depth:]


def simulate(eq: Equation, init: InitialData, N: int) -> Trajectory:
    """Iterate the forced equation from ``init``, zeros before it, to N."""
    coeffs, lags = _tables(eq, init.n0, N)
    forcing = (eval_range(eq.forcing, init.n0, N - 1) if eq.forcing is not None
               else np.zeros(N - init.n0))
    return Trajectory(init.n0, _step(eq, coeffs, lags, forcing, init.values))


def fundamental(eq: Equation, k: int, N: int) -> np.ndarray:
    """Column X(n, k) for n in [k, N], stepped from the history 1 at k and
    0 before with ``simulate``'s zero forcing, so bit for bit its column."""
    coeffs, lags = _tables(eq, k, N)
    return _step(eq, coeffs, lags, np.zeros(N - k), [1.0])


def kernel(eq: Equation, n0: int, N: int) -> Kernel:
    """All columns k in [n0, N] as a dense table."""
    return Kernel(n0, N, _kernels.kernel_table(*_tables(eq, n0, N), N - n0 + 1))


def cauchy_apply(eq: Equation, f: SeqExpr, n0: int, N: int) -> Trajectory:
    """y(n) = sum_{k=n0}^{n-1} X(n, k+1) f(k) with y(n0) = 0.

    This is the zero-initial-data response to the forcing f, assembled
    from kernel columns rather than by forward iteration, so it can be
    cross-checked against simulate().
    """
    coeffs, lags = _tables(eq, n0, N)
    weights = eval_range(f, n0, N - 1)
    return Trajectory(n0, _kernels.weighted_kernel_sums(coeffs, lags, weights, False))


def lemma6_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """S(n) = sum_{k=n0}^{n-1} X(n, k+1) * sum_l a_l(k) over [n0, N].

    Under nonnegative coefficients and a positive kernel, S stays in
    [0, 1] from n0 + T on.  By the representation formula S is the
    solution with zero history and forcing sum_l a_l(k), so it is one
    forward iteration.
    """
    coeffs, lags = _tables(eq, n0, N)
    return _step(eq, coeffs, lags, coeffs.sum(axis=0), [0.0])


def pituk_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """P(n) = sum_{j=n0}^{n-1} |X(n, j+1)|; bounded P indicates the
    summable-kernel property behind perturbation-robust stability."""
    coeffs, lags = _tables(eq, n0, N)
    return _kernels.weighted_kernel_sums(coeffs, lags, np.ones(N - n0), True)


@np.errstate(over="ignore")  # an overflowed bound is inf, still a bound
def product_bound(eq: Equation, k: int, N: int) -> np.ndarray:
    """B(n) = prod_{j=k}^{n-1} (1 + sum_l |a_l(j)|); always >= |X(n, k)|."""
    coeffs, _ = _tables(eq, k, N)
    return np.concatenate(([1.0], np.cumprod(1.0 + np.abs(coeffs).sum(axis=0))))


def representation_check(eq: Equation, init: InitialData, f: Optional[SeqExpr],
                         N: int) -> float:
    """Max deviation between forward iteration and the kernel-sum
    reconstruction x(n) = X(n,n0) x(n0) + sum X(n,k+1) f(k)
    - sum X(n,k+1) sum_l a_l(k) phi(h_l(k)), phi the history cut off at n0.
    One evaluation scope serves its own tables and those of ``simulate``
    and ``fundamental``, so each coefficient is evaluated once."""
    n0, h = init.n0, len(init.values)
    with evaluation_scope():
        direct = simulate(replace(eq, forcing=f), init, N).values
        rec = fundamental(eq, n0, N) * init.values[-1]
        coeffs, lags = _tables(eq, n0, N)
        weights = eval_range(f, n0, N - 1) if f is not None else np.zeros(N - n0)
    # phi[h + i - lag] is phi(n0 + i - lag): the history, 0 before it and from n0 on
    phi = np.concatenate(([0.0], init.values[:-1], [0.0]))
    reads = phi[np.clip(h + np.arange(N - n0) - lags, 0, h)]
    for a, read in zip(coeffs, reads):
        weights = weights - a * read
    rec = rec + _kernels.weighted_kernel_sums(coeffs, lags, weights, False)
    return float(np.abs(direct - rec).max())


# ---------------------------------------------------------------------------
# Output: plot-ready CSV (17 significant digits, LF endings), written atomically


def format_csv(header: str, n0: int, *columns: np.ndarray) -> str:
    """The header line, then one row "n,c_1(n),..." for n = n0, n0 + 1, ...

    Values print with 17 significant digits ("%.17g", the same text as
    format(v, ".17g")), enough to read every float64 back exactly.  Each
    chunk of ``_kernels.STEP_CHUNK`` rows is one ``%``: the row format,
    repeated once per row, applied to the flat tuple (n, c_1(n), ..., n + 1,
    ...), so no Python call or string is made per row.
    """
    row = "%d" + ",%.17g" * len(columns) + "\n"
    width, size = len(columns) + 1, len(columns[0])
    parts = [header + "\n"]
    for c0 in range(0, size, _kernels.STEP_CHUNK):
        c1 = min(c0 + _kernels.STEP_CHUNK, size)
        flat = [0] * ((c1 - c0) * width)
        flat[::width] = range(n0 + c0, n0 + c1)
        for j, c in enumerate(columns, 1):
            flat[j::width] = c[c0:c1].tolist()
        parts.append(row * (c1 - c0) % tuple(flat))
    return "".join(parts)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``: a failed write leaves the old file and no temporary, and its
    error names ``path``.  The file gets the mode ``open`` gives a new one
    (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the path asked for: the temporary is an implementation detail
        raise type(exc)(exc.errno, exc.strerror, path) from None


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    write_atomic(path, format_csv("n,value", traj.n0, traj.values))
