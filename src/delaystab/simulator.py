"""Forward iteration, fundamental-function tabulation and kernel sums.

The fundamental function X(n, k) solves the homogeneous equation with
x(n) = 0 for n < k and x(k) = 1; every solution decomposes over it, and
the checkers' witness quantities (kernel-weighted sums, the a-priori
product bound) are computed here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import KernelMemoryError
from .equation import Equation, InitialData
from .seqexpr import SeqExpr, eval_range

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


@dataclass(frozen=True)
class Trajectory:
    n0: int
    values: np.ndarray  # x(n0), x(n0+1), ..., x(N)


@dataclass(frozen=True)
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


def simulate(eq: Equation, init: InitialData, N: int) -> Trajectory:
    """Iterate the forced equation from init.n0 up to N (inclusive)."""
    n0 = init.n0
    if N < n0:
        raise ValueError(f"horizon {N} precedes start {n0}")
    missing = [n for n in range(n0 - eq.T, n0 + 1) if n not in init.history]
    if missing:
        raise ValueError(f"history incomplete, missing indices {missing}")
    steps = N - n0
    coeffs, lags = eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)
    if eq.forcing is not None and steps > 0:
        forcing = eval_range(eq.forcing, n0, N - 1)
    else:
        forcing = np.zeros(steps)
    x = np.zeros(eq.T + steps + 1)
    for i in range(eq.T + 1):
        x[i] = init.history[n0 - eq.T + i]
    _kernels.step_recurrence(coeffs, lags, forcing, x, eq.T, steps)
    return Trajectory(n0, x[eq.T:].copy())


def fundamental(eq: Equation, k: int, N: int) -> np.ndarray:
    """Column X(n, k) for n in [k, N], stepped from the history 1 at k and
    0 before with ``simulate``'s zero forcing, so bit for bit its column."""
    if N < k:
        raise ValueError(f"horizon {N} precedes column start {k}")
    coeffs, lags = eq.coeff_table(k, N - 1), eq.lag_table(k, N - 1)
    x = np.zeros(eq.T + N - k + 1)
    x[eq.T] = 1.0
    _kernels.step_recurrence(coeffs, lags, np.zeros(N - k), x, eq.T, N - k)
    return x[eq.T:]


def kernel(eq: Equation, n0: int, N: int) -> Kernel:
    """All columns k in [n0, N] as a dense table."""
    if N < n0:
        raise ValueError(f"window end {N} precedes start {n0}")
    size = N - n0 + 1
    if size * size > _kernels.MAX_ENTRIES:
        raise KernelMemoryError(
            f"kernel table needs {size * size} entries (cap {_kernels.MAX_ENTRIES}); "
            "compute streaming columns with fundamental() instead"
        )
    coeffs, lags = eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)
    table = _kernels.kernel_table(coeffs, lags, size)
    return Kernel(n0, N, table)


def _weighted_sums(eq: Equation, weights: np.ndarray, n0: int, N: int,
                   use_abs: bool) -> np.ndarray:
    """sum_{k=n0}^{n-1} X(n, k+1) * weights[k - n0] for n in [n0, N]."""
    coeffs, lags = eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)
    return _kernels.weighted_kernel_sums(coeffs, lags, weights, use_abs)


def cauchy_apply(eq: Equation, f: SeqExpr, n0: int, N: int) -> Trajectory:
    """y(n) = sum_{k=n0}^{n-1} X(n, k+1) f(k) with y(n0) = 0.

    This is the zero-initial-data response to the forcing f, assembled
    from kernel columns rather than by forward iteration, so it can be
    cross-checked against simulate().
    """
    if N < n0:
        raise ValueError("horizon precedes start")
    weights = eval_range(f, n0, N - 1)
    return Trajectory(n0, _weighted_sums(eq, weights, n0, N, False))


def lemma6_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """S(n) = sum_{k=n0}^{n-1} X(n, k+1) * sum_l a_l(k) over [n0, N].

    Under nonnegative coefficients and a positive kernel, S stays in
    [0, 1] from n0 + T on.  By the representation formula S is the
    solution with zero history and forcing sum_l a_l(k), so it is one
    forward iteration.
    """
    coeffs, lags = eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)
    x = np.zeros(eq.T + N - n0 + 1)
    _kernels.step_recurrence(coeffs, lags, coeffs.sum(axis=0), x, eq.T, N - n0)
    return x[eq.T:]


def pituk_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """P(n) = sum_{j=n0}^{n-1} |X(n, j+1)|; bounded P indicates the
    summable-kernel property behind perturbation-robust stability."""
    weights = np.ones(N - n0)
    return _weighted_sums(eq, weights, n0, N, True)


def product_bound(eq: Equation, k: int, N: int) -> np.ndarray:
    """B(n) = prod_{j=k}^{n-1} (1 + sum_l |a_l(j)|); always >= |X(n, k)|."""
    if N < k:
        raise ValueError("horizon precedes column start")
    out = np.ones(N - k + 1)
    if N > k:
        absagg = np.abs(eq.coeff_table(k, N - 1)).sum(axis=0)
        out[1:] = np.cumprod(1.0 + absagg)
    return out


def representation_check(eq: Equation, init: InitialData, f: Optional[SeqExpr],
                         N: int) -> float:
    """Max deviation between forward iteration and the kernel-sum
    reconstruction x(n) = X(n,n0) x(n0) + sum X(n,k+1) f(k)
    - sum X(n,k+1) sum_l a_l(k) phi(h_l(k)), with phi cut off at n0."""
    n0 = init.n0
    forced = replace(eq, forcing=f)
    direct = simulate(forced, init, N).values

    col0 = np.zeros(N - n0 + 1)
    col0[:] = fundamental(eq, n0, N)
    rec = col0 * init.value_at(n0)
    if N > n0:
        if f is not None:
            weights = eval_range(f, n0, N - 1)
        else:
            weights = np.zeros(N - n0)
        coeffs = eq.coeff_table(n0, N - 1)
        lags = eq.lag_table(n0, N - 1)
        for l in range(eq.m):
            hist = np.zeros(N - n0)
            for i in range(N - n0):
                h = (n0 + i) - int(lags[l, i])
                if h < n0:
                    hist[i] = init.value_at(h)
            weights = weights - coeffs[l] * hist
        rec = rec + _weighted_sums(eq, weights, n0, N, False)
    return float(np.abs(direct - rec).max())


# ---------------------------------------------------------------------------
# Output: plot-ready CSV (17 significant digits, LF endings), written atomically


def format_csv(header: str, n0: int, *columns: np.ndarray) -> str:
    """The header line, then one row "n,c_1(n),..." for n = n0, n0 + 1, ...

    Values print with 17 significant digits ("%.17g", the same text as
    format(v, ".17g")), enough to read every float64 back exactly.
    """
    row = "%d" + ",%.17g" * len(columns) + "\n"
    n = range(n0, n0 + len(columns[0]))
    return header + "\n" + "".join(map(row.__mod__, zip(n, *(c.tolist() for c in columns))))


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``: a failed write leaves the old file and no temporary.  The file
    gets the mode ``open`` gives a new one (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    write_atomic(path, format_csv("n,value", traj.n0, traj.values))
