"""Hot inner loops: sequential recurrence stepping and kernel tabulation.

Plain NumPy/Python.  The recurrence is inherently sequential in n, so
``step_recurrence`` is a scalar loop; the kernel routines advance every
column of X(., k) together, one row per step, so their inner work is a
NumPy vector operation.  Performance is measured with perfbench/run.py.

Conventions shared by all kernels: the window is [n0, n0 + size - 1],
``coeffs[l, i]`` and ``lags[l, i]`` hold a_l(n0 + i) and n - h_l(n) at
n = n0 + i, and X(n, k) = 0 for n < k, X(k, k) = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["step_recurrence", "kernel_table", "weighted_kernel_sums"]


def step_recurrence(coeffs, lags, forcing, x, t_max, steps):
    """Iterate x(n+1) = x(n) - sum_l a_l(n) x(n - d_l(n)) + f(n).

    ``x`` has length t_max + steps + 1 and already holds the history in
    x[0..t_max] (x[t_max] is the value at the start index).
    """
    m = coeffs.shape[0]
    for i in range(steps):
        acc = x[t_max + i]
        for l in range(m):
            acc -= coeffs[l, i] * x[t_max + i - lags[l, i]]
        acc += forcing[i]
        x[t_max + i + 1] = acc
    return x


def kernel_table(coeffs, lags, size):
    """Dense fundamental table X[i, j] = X(n0+i, n0+j), lower triangular.

    Advances all columns at once: row(n+1) = row(n) - sum_l a_l(n) row(h).
    Entries above the diagonal are zero already, so no per-column guard is
    needed.
    """
    m = coeffs.shape[0]
    table = np.zeros((size, size))
    np.fill_diagonal(table, 1.0)
    for i in range(size - 1):
        row = table[i, : i + 1].copy()
        for l in range(m):
            h = i - lags[l, i]
            if h >= 0:
                row -= coeffs[l, i] * table[h, : i + 1]
        table[i + 1, : i + 1] = row
    return table


def weighted_kernel_sums(coeffs, lags, weights, use_abs):
    """out[i] = sum_{j < i} weights[j] * X(n0+i, n0+j+1), a row at a time.

    With use_abs the kernel values enter in absolute value.  Rows advance
    by the same update as ``kernel_table``; only the last max(lag) + 1 rows
    are kept, in a ring buffer, so memory stays O(size * lag).
    """
    size = weights.shape[0] + 1
    out = np.zeros(size)
    m = coeffs.shape[0]
    depth = int(lags.max(initial=0)) + 1
    # ring[i % depth, j] = X(n0+i, n0+j+1), zero for j >= i; row 0 is all
    # zero, and the older row a slot held is zero past the new row's end
    ring = np.zeros((depth, size - 1))
    for i in range(1, size):
        row = ring[(i - 1) % depth, : i - 1].copy()
        for l in range(m):
            h = i - 1 - lags[l, i - 1]
            if h >= 0:
                row -= coeffs[l, i - 1] * ring[h % depth, : i - 1]
        live = ring[i % depth, :i]
        live[:-1] = row
        live[-1] = 1.0
        out[i] = (np.abs(live) if use_abs else live) @ weights[:i]
    return out
