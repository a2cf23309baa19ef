"""Hot inner loops: sequential recurrence stepping and the kernel streams.

Plain NumPy/Python.  The recurrence is inherently sequential in n, so
``step_recurrence`` steps a list of Python floats, which round exactly like
float64 scalars, through a loop written out once per term count m (one
expression per step, terms subtracted in order): its output is
bit-identical to a per-step NumPy loop, overflow to inf and nan included.

Both kernel streams yield (i0, block), block[r] being row n0 + i0 + r of X
on the stream's columns, +0.0 past the diagonal.  ``kernel_rows`` steps
every column, one row of a ring per step, and hands out BLOCK rows as one
view of the ring; the dense table, the weighted sums and the positivity
scan read it.  When coefficients and delays have a short exact period P,
X(n + P, k + P) = X(n, k), and the scan reads the first P columns from
``kernel_columns`` instead, each stepped by the recurrence loop.

Conventions shared by all kernels: the window is [n0, n0 + size - 1],
``coeffs[l, i]`` and ``lags[l, i]`` hold a_l(n0 + i) and n - h_l(n) at
n = n0 + i, and X(n, k) = 0 for n < k, X(k, k) = 1.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["KernelMemoryError", "MAX_ENTRIES", "step_recurrence", "require_ring",
           "kernel_rows", "kernel_columns", "kernel_table", "weighted_kernel_sums"]

# kernel_table and kernel_rows refuse a buffer (the dense table, the row ring)
# above this many entries
MAX_ENTRIES = 100_000_000
# rows per block of the kernel streams (the column stream's later blocks double)
BLOCK = 16
# step_recurrence converts this many steps of its rows to Python lists at a
# time, and format_csv writes this many rows as one block of NUL-padded text
# words; a few thousand keep those lists and blocks (and peak memory) small at
# no cost in speed
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
    """Yield (i0, rows): rows i0 .. i0 + b - 1 of X as one (b, size) view,
    row i holding X(n0+i, n0..n0+size-1), b = BLOCK but for the last.

    All columns advance at once: row(i+1) = row(i) - sum_l a_l row(h_l)
    on the columns of row i, then X = 1 on the new diagonal.  Only the
    last min(max(lag), size - 1) + 2 rows are kept, in a ring, so memory
    stays O(size * lag): no row reads one before the window's first.  The
    ring's depth is rounded up to a multiple of BLOCK, so a block's rows
    sit in consecutive slots; where that would pass the cap, blocks are one
    row instead.  Each view is valid until the next step.
    """
    depth, block = min(int(lags.max(initial=0)), size - 1) + 2, BLOCK
    require_ring(depth, size)
    if (depth + -depth % block) * size > MAX_ENTRIES:
        block = 1
    depth += -depth % block
    # slots[i % depth][: i + 1] = row i, zero past it (a slot's older rows
    # are shorter); the slot being written is never one the update reads
    ring = np.zeros((depth, size))
    ring[0, 0] = 1.0
    slots, term = list(ring), np.empty(size)
    # Python scalars index faster than NumPy ones and multiply identically
    steps = zip(coeffs[:, : size - 1].T.tolist(), lags[:, : size - 1].T.tolist())
    for i, (a, d) in enumerate(steps):
        if (i + 1) % block == 0:
            i0 = i + 1 - block
            yield i0, ring[i0 % depth : i0 % depth + block]
        # row i + 1 = row i - a_0 row(h_0) - a_1 row(h_1) ... on the columns
        # of row i, the first subtraction reading row i, each later one the
        # new row, each product written into one preallocated row
        new, head, last = slots[(i + 1) % depth], term[: i + 1], slots[i % depth][: i + 1]
        slot = new[: i + 1]
        for a_l, d_l in zip(a, d):
            if d_l <= i:
                np.subtract(last, np.multiply(slots[(i - d_l) % depth][: i + 1], a_l, out=head),
                            out=slot)
                last = slot
        if last is not slot:
            slot[:] = last
        new[i + 1] = 1.0
    i0 = (size - 1) // block * block
    yield i0, ring[i0 % depth : i0 % depth + size - i0]


def kernel_columns(coeffs, lags, count, size):
    """Yield (i0, block): rows [i0, i1) of X on the columns j < ``count``,
    block[r, j] = X(n0+i0+r, n0+j) as a (i1 - i0, count) array, +0.0 past
    the diagonal.

    The first block is rows [0, BLOCK) and each next one ends at twice the
    row the last one ended at, so a caller that stops at a block has
    stepped at most twice the rows it needed.  Each column is the
    recurrence from zeros and 1.0 at its diagonal, stepped by
    ``step_recurrence``'s loop; every column reads the same index rows, and
    its values are bit-identical to ``kernel_rows``' entries.
    """
    depth = int(lags.max(initial=0))
    step = _stepper(coeffs.shape[0])
    rows = coeffs[:, : size - 1].tolist()
    rows += (np.arange(depth, depth + size - 1) - lags[:, : size - 1]).tolist()
    zeros = [0.0] * (size - 1)
    # column j's zero prefix holds its entries above the diagonal
    columns = [[0.0] * (depth + j) + [1.0] for j in range(count)]
    i0, i1 = 0, min(BLOCK, size)
    while i0 < size:
        for xs in columns:
            # xs ends at row len(xs) - depth - 1; a column not yet begun stays put
            i = len(xs) - depth - 1
            step(xs, zeros[i : i1 - 1], *(row[i : i1 - 1] for row in rows))
        yield i0, np.array([xs[depth + i0 : depth + i1] for xs in columns]).T
        i0, i1 = i1, min(2 * i1, size)


def kernel_table(coeffs, lags, size):
    """Dense fundamental table X[i, j] = X(n0+i, n0+j), lower triangular;
    one past the cap is refused before it is allocated."""
    if size * size > MAX_ENTRIES:
        raise KernelMemoryError(f"kernel table needs {size * size} entries (cap {MAX_ENTRIES}); "
                                "compute streaming columns with fundamental() instead")
    table = np.zeros((size, size))
    for i0, rows in kernel_rows(coeffs, lags, size):
        table[i0 : i0 + len(rows)] = rows
    return table


def weighted_kernel_sums(coeffs, lags, weights, use_abs):
    """out[i] = sum_{j < i} weights[j] * X(n0+i, n0+j+1), a row at a time.

    With use_abs the kernel values enter in absolute value.
    """
    size = weights.shape[0] + 1
    out = np.zeros(size)
    for i0, rows in kernel_rows(coeffs, lags, size):
        for i, row in enumerate(rows, i0):
            live = row[1 : i + 1]
            out[i] = (np.abs(live) if use_abs else live) @ weights[:i]
    return out
