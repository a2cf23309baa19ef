"""Hot inner loops: sequential recurrence stepping and the kernel row stream.

Plain NumPy/Python.  The recurrence is inherently sequential in n, so
``step_recurrence`` is a scalar loop; ``kernel_rows`` advances every column
of X(., k) together, one NumPy row per step, and the dense table, the
weighted sums and the positivity scan all read its rows.

Conventions shared by all kernels: the window is [n0, n0 + size - 1],
``coeffs[l, i]`` and ``lags[l, i]`` hold a_l(n0 + i) and n - h_l(n) at
n = n0 + i, and X(n, k) = 0 for n < k, X(k, k) = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelMemoryError", "MAX_ENTRIES", "step_recurrence", "kernel_rows",
           "kernel_table", "weighted_kernel_sums"]

# a kernel buffer (the dense table or the row ring) above this many entries raises
MAX_ENTRIES = 100_000_000


class KernelMemoryError(MemoryError):
    pass


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


def kernel_rows(coeffs, lags, size):
    """Yield row i = X(n0+i, n0..n0+i) for i = 0 .. size - 1.

    All columns advance at once: row(i+1) = row(i) - sum_l a_l row(h_l)
    on the columns of row i, then X = 1 on the new diagonal.  Only the
    last max(lag) + 2 rows are kept, in a ring, so memory stays
    O(size * lag); each yielded row is a view, valid until the next step.
    """
    depth = int(lags.max(initial=0)) + 2
    if depth * size > MAX_ENTRIES:
        raise KernelMemoryError(f"kernel rows need {depth * size} entries (cap {MAX_ENTRIES})")
    # ring[i % depth, :i + 1] = row i, zero past it (a slot's older rows are
    # shorter); the slot being written is never one the update reads
    ring = np.zeros((depth, size))
    ring[0, 0] = 1.0
    yield ring[0, :1]
    # Python scalars index faster than NumPy ones and multiply identically
    steps = zip(coeffs[:, : size - 1].T.tolist(), lags[:, : size - 1].T.tolist())
    for i, (a, d) in enumerate(steps):
        slot = ring[(i + 1) % depth]
        head = slot[: i + 1]
        head[:] = ring[i % depth, : i + 1]
        for a_l, d_l in zip(a, d):
            if d_l <= i:
                head -= a_l * ring[(i - d_l) % depth, : i + 1]
        slot[i + 1] = 1.0
        yield slot[: i + 2]


def kernel_table(coeffs, lags, size):
    """Dense fundamental table X[i, j] = X(n0+i, n0+j), lower triangular."""
    table = np.zeros((size, size))
    for i, row in enumerate(kernel_rows(coeffs, lags, size)):
        table[i, : i + 1] = row
    return table


def weighted_kernel_sums(coeffs, lags, weights, use_abs):
    """out[i] = sum_{j < i} weights[j] * X(n0+i, n0+j+1), a row at a time.

    With use_abs the kernel values enter in absolute value.
    """
    size = weights.shape[0] + 1
    out = np.zeros(size)
    for i, row in enumerate(kernel_rows(coeffs, lags, size)):
        live = row[1:]
        out[i] = (np.abs(live) if use_abs else live) @ weights[:i]
    return out
