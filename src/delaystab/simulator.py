"""Forward iteration, fundamental-function tabulation and kernel sums.

The fundamental function X(n, k) solves the homogeneous equation with
x(n) = 0 for n < k and x(k) = 1; every solution decomposes over it, and
the checkers' witness quantities (kernel-weighted sums, the a-priori
product bound) are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
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
    "fmt_float",
    "write_trajectory_csv",
    "write_kernel_csv",
]


class KernelMemoryError(MemoryError):
    pass


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
        return float(self.values[n - self.n0, k - self.n0])


def _tables(eq: Equation, n0: int, n1: int):
    """Coefficient and lag tables for steps at n = n0 .. n1 (inclusive)."""
    if n1 < n0:
        m = eq.m
        return np.zeros((m, 0)), np.zeros((m, 0), dtype=np.int64)
    return eq.coeff_table(n0, n1), eq.lag_table(n0, n1)


def simulate(eq: Equation, init: InitialData, N: int) -> Trajectory:
    """Iterate the forced equation from init.n0 up to N (inclusive)."""
    n0 = init.n0
    if N < n0:
        raise ValueError(f"horizon {N} precedes start {n0}")
    missing = [n for n in range(n0 - eq.T, n0 + 1) if n not in init.history]
    if missing:
        raise ValueError(f"history incomplete, missing indices {missing}")
    steps = N - n0
    coeffs, lags = _tables(eq, n0, N - 1)
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
    """Column X(n, k) for n in [k, N]."""
    if N < k:
        raise ValueError(f"horizon {N} precedes column start {k}")
    init = InitialData(k, {n: (1.0 if n == k else 0.0) for n in range(k - eq.T, k + 1)})
    hom = Equation(eq.terms, eq.K, eq.T, None, eq.validation_window)
    return simulate(hom, init, N).values


def kernel(eq: Equation, n0: int, N: int, max_entries: int = 100_000_000) -> Kernel:
    """All columns k in [n0, N] as a dense table."""
    if N < n0:
        raise ValueError(f"window end {N} precedes start {n0}")
    size = N - n0 + 1
    if size * size > max_entries:
        raise KernelMemoryError(
            f"kernel table needs {size * size} entries (cap {max_entries}); "
            "compute streaming columns with fundamental() instead"
        )
    coeffs, lags = _tables(eq, n0, N - 1) if size > 1 else _tables(eq, n0, n0 - 1)
    table = _kernels.kernel_table(coeffs, lags, size)
    return Kernel(n0, N, table)


def _weighted_sums(eq: Equation, weights: np.ndarray, n0: int, N: int,
                   use_abs: bool) -> np.ndarray:
    """sum_{k=n0}^{n-1} X(n, k+1) * weights[k - n0] for n in [n0, N]."""
    if N == n0:
        return np.zeros(1)
    coeffs, lags = _tables(eq, n0, N - 1)
    return _kernels.weighted_kernel_sums(coeffs, lags, weights, use_abs)


def cauchy_apply(eq: Equation, f: SeqExpr, n0: int, N: int) -> Trajectory:
    """y(n) = sum_{k=n0}^{n-1} X(n, k+1) f(k) with y(n0) = 0.

    This is the zero-initial-data response to the forcing f, assembled
    from kernel columns rather than by forward iteration, so it can be
    cross-checked against simulate().
    """
    if N < n0:
        raise ValueError("horizon precedes start")
    if N == n0:
        return Trajectory(n0, np.zeros(1))
    weights = eval_range(f, n0, N - 1)
    return Trajectory(n0, _weighted_sums(eq, weights, n0, N, False))


def lemma6_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """S(n) = sum_{k=n0}^{n-1} X(n, k+1) * sum_l a_l(k) over [n0, N].

    Under nonnegative coefficients and a positive kernel, S stays in
    [0, 1] from n0 + T on.  By the representation formula S is the
    solution with zero history and forcing sum_l a_l(k), so it is one
    forward iteration.
    """
    if N == n0:
        return np.zeros(1)
    coeffs, lags = _tables(eq, n0, N - 1)
    x = np.zeros(eq.T + N - n0 + 1)
    _kernels.step_recurrence(coeffs, lags, coeffs.sum(axis=0), x, eq.T, N - n0)
    return x[eq.T:]


def pituk_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """P(n) = sum_{j=n0}^{n-1} |X(n, j+1)|; bounded P indicates the
    summable-kernel property behind perturbation-robust stability."""
    if N == n0:
        return np.zeros(1)
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
    forced = Equation(eq.terms, eq.K, eq.T, f, eq.validation_window)
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
# CSV emission (plot-ready; 17 significant digits, LF endings)


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    lines = ["n,value"]
    for i, v in enumerate(traj.values):
        lines.append(f"{traj.n0 + i},{fmt_float(v)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_kernel_csv(kern: Kernel, path: str) -> None:
    lines = ["n,k,value"]
    for j in range(kern.values.shape[1]):
        for i in range(j, kern.values.shape[0]):
            lines.append(
                f"{kern.n0 + i},{kern.n0 + j},{fmt_float(kern.values[i, j])}"
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
