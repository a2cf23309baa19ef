"""Hot inner loops: sequential recurrence stepping and the kernel row stream.

Plain NumPy/Python.  The recurrence is inherently sequential in n, so
``step_recurrence`` steps a list of Python floats, which round exactly like
float64 scalars, through a loop written out once per term count m (one
expression per step, terms subtracted in order): its output is
bit-identical to a per-step NumPy loop, overflow to inf and nan included.
``kernel_rows`` advances every column of X(., k) together, one NumPy row
per step, and the dense table, the weighted sums and the positivity scan
all read its rows.

Conventions shared by all kernels: the window is [n0, n0 + size - 1],
``coeffs[l, i]`` and ``lags[l, i]`` hold a_l(n0 + i) and n - h_l(n) at
n = n0 + i, and X(n, k) = 0 for n < k, X(k, k) = 1.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["KernelMemoryError", "MAX_ENTRIES", "step_recurrence", "require_ring",
           "kernel_rows", "kernel_table", "weighted_kernel_sums"]

# a kernel buffer (the dense table or the row ring) above this many entries raises
MAX_ENTRIES = 100_000_000
# step_recurrence converts this many steps of its rows to Python lists at a
# time; a few thousand keep those lists (and peak memory) small at no cost in speed
STEP_CHUNK = 1 << 12


class KernelMemoryError(MemoryError):
    pass


def step_recurrence(coeffs, lags, forcing, x, t_max, steps):
    """Iterate x(n+1) = x(n) - sum_l a_l(n) x(n - d_l(n)) + f(n).

    ``x`` has length t_max + steps + 1 and already holds the history in
    x[0..t_max] (x[t_max] is the value at the start index); every lag
    must lie in [0, t_max].
    """
    low, high = int(lags[:, :steps].min(initial=0)), int(lags[:, :steps].max(initial=0))
    if low < 0 or high > t_max:
        raise ValueError(f"lags in [{low}, {high}] leave the history [0, {t_max}]")
    step = _stepper(coeffs.shape[0])
    xs = x[: t_max + 1].tolist()
    # rows become Python lists a chunk at a time (whole, they outweigh their
    # tables several times), each lag row as the indices of xs it reads
    for c0 in range(0, steps, STEP_CHUNK):
        c1 = min(c0 + STEP_CHUNK, steps)
        reads = np.arange(t_max + c0, t_max + c1) - lags[:, c0:c1]
        step(xs, forcing[c0:c1].tolist(), *coeffs[:, c0:c1].tolist(), *reads.tolist())
    x[t_max + 1: t_max + steps + 1] = xs[t_max + 1:]
    return x


@functools.cache
def _stepper(m):
    """The step loop for m terms, its source written out from m alone.

    step(xs, fs, a0s, .., j0s, ..) appends to xs, per entry f of fs, the
    value x = (x - a0 * xs[j0]) - a1 * xs[j1] ... + f, x being the last
    entry: the terms in the order a per-term loop takes, so it rounds the same.
    """
    names = [f"a{l}" for l in range(m)] + [f"j{l}" for l in range(m)]
    row_args, items = "".join(f", {v}s" for v in names), "".join(f", {v}" for v in names)
    terms = "".join(f" - a{l} * xs[j{l}]" for l in range(m))
    source = (f"def step(xs, fs{row_args}):\n"
              f"    append, x = xs.append, xs[-1]\n"
              f"    for f{items} in zip(fs{row_args}):\n"
              f"        x = x{terms} + f\n"
              f"        append(x)\n")
    namespace = {}
    exec(source, namespace)
    return namespace["step"]


def require_ring(depth, size):
    """Raise KernelMemoryError when a ring of ``depth`` rows of ``size``
    entries passes the cap; a caller that knows the depth can ask before
    it builds the tables ``kernel_rows`` reads."""
    if depth * size > MAX_ENTRIES:
        raise KernelMemoryError(f"kernel rows need {depth * size} entries (cap {MAX_ENTRIES})")


def kernel_rows(coeffs, lags, size):
    """Yield row i = X(n0+i, n0..n0+i) for i = 0 .. size - 1.

    All columns advance at once: row(i+1) = row(i) - sum_l a_l row(h_l)
    on the columns of row i, then X = 1 on the new diagonal.  Only the
    last max(lag) + 2 rows are kept, in a ring, so memory stays
    O(size * lag); each yielded row is a view, valid until the next step.
    """
    depth = int(lags.max(initial=0)) + 2
    require_ring(depth, size)
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
