"""The row-vectorised kernels against plain loop references.

``_reference_table`` is the triple loop that defines X(n, k) column by
column; ``kernel_table`` must reproduce it exactly, and the weighted sums
and forced recurrences must match sums over it to rounding.
``_reference_step`` is the per-step NumPy-scalar recurrence;
``step_recurrence`` must reproduce it bit for bit, and ``kernel_columns``'
blocks the table's rows on its first columns.  ``_reference_rows`` is the
per-slice row stepper that ``kernel_rows``' full-width ring replaced; the
ring's rows must reproduce it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from delaystab import KernelMemoryError, _kernels, cauchy_apply, lemma6_sum, parse, pituk_sum
from delaystab.criteria import SUBSET_CAP
from delaystab.oracle import random_equation


def _reference_table(coeffs, lags, size):
    """Dense fundamental table X[i, j] = X(n0+i, n0+j), lower triangular."""
    m = coeffs.shape[0]
    table = np.zeros((size, size))
    for j in range(size):
        table[j, j] = 1.0
    for i in range(size - 1):
        for j in range(i + 1):
            acc = table[i, j]
            for l in range(m):
                h = i - lags[l, i]
                if h >= 0:
                    acc -= coeffs[l, i] * table[h, j]
            table[i + 1, j] = acc
    return table


def _reference_step(coeffs, lags, forcing, x, t_max, steps):
    """x(n+1) = x(n) - sum_l a_l(n) x(n - d_l(n)) + f(n) on NumPy scalars."""
    m = coeffs.shape[0]
    for i in range(steps):
        acc = x[t_max + i]
        for l in range(m):
            acc -= coeffs[l, i] * x[t_max + i - lags[l, i]]
        acc += forcing[i]
        x[t_max + i + 1] = acc
    return x


def _reference_sums(table, weights, use_abs):
    """out[i] = sum_{j < i} weights[j] * X(n0+i, n0+j+1) from a dense table."""
    size = table.shape[0]
    out = np.zeros(size)
    for i in range(size):
        for j in range(i):
            v = table[i, j + 1]
            out[i] += weights[j] * (abs(v) if use_abs else v)
    return out


def _assert_close(got, ref):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _random_tables(seed, m, size, max_lag):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-0.4, 0.4, (m, size))
    lags = rng.integers(0, max_lag + 1, (m, size)).astype(np.int64)
    return coeffs, lags


def _periodic_tables(seed, size):
    """Two terms with periodic coefficient and lag tables (periods 2 and 3)."""
    rng = np.random.default_rng(seed)
    n = np.arange(size)
    coeffs = np.stack([rng.uniform(-0.3, 0.3, 2)[n % 2], rng.uniform(0.0, 0.3, 3)[n % 3]])
    lags = np.stack([np.array([3, 5])[n % 2], np.array([0, 4, 1])[n % 3]]).astype(np.int64)
    return coeffs, lags


# (name, coeffs, lags) over the lag shapes the ring buffer must handle
CASES = [
    ("random", *_random_tables(0, 2, 40, 3)),
    ("lag0", *_random_tables(1, 2, 30, 0)),
    # every step reaches max(lag) back, the ring slot being overwritten
    ("deepest_lag", np.full((1, 30), 0.15), np.full((1, 30), 6, dtype=np.int64)),
    ("lag_past_window", np.full((1, 8), 0.2), np.full((1, 8), 12, dtype=np.int64)),
    ("periodic", *_periodic_tables(3, 45)),
    ("three_terms", *_random_tables(4, 3, 50, 7)),
    ("size2", *_random_tables(5, 2, 2, 1)),
    ("size1", np.zeros((1, 0)), np.zeros((1, 0), dtype=np.int64)),
]
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("name,coeffs,lags", CASES, ids=IDS)
def test_kernel_table_matches_reference_exactly(name, coeffs, lags):
    size = coeffs.shape[1] + 1
    assert np.array_equal(_kernels.kernel_table(coeffs, lags, size),
                          _reference_table(coeffs, lags, size))


@pytest.mark.parametrize("use_abs", [False, True])
@pytest.mark.parametrize("name,coeffs,lags", CASES, ids=IDS)
def test_weighted_sums_match_dense_table(name, coeffs, lags, use_abs):
    size = coeffs.shape[1] + 1
    weights = np.cos(np.arange(size - 1.0)) + 0.5
    got = _kernels.weighted_kernel_sums(coeffs, lags, weights, use_abs)
    _assert_close(got, _reference_sums(_reference_table(coeffs, lags, size), weights,
                                       use_abs))


@pytest.mark.parametrize("block", [1, 3, 16])
@pytest.mark.parametrize("name,coeffs,lags", CASES, ids=IDS)
def test_kernel_columns_are_the_table_columns_exactly(name, coeffs, lags, block, monkeypatch):
    # each block is the table's rows [i0, i1) on the first count columns,
    # +0.0 past the diagonal, bit for bit; block ends double from BLOCK
    monkeypatch.setattr(_kernels, "BLOCK", block)
    size = coeffs.shape[1] + 1
    table = _reference_table(coeffs, lags, size)
    count = max(size - 2, 1)  # columns past the count are never stepped
    ends = []
    for i0, rows in _kernels.kernel_columns(coeffs, lags, count, size):
        assert i0 == (ends[-1] if ends else 0)
        assert rows.dtype == np.float64 and rows.shape[1] == count
        ends.append(i0 + len(rows))
        want = table[i0 : ends[-1], :count]
        assert np.array_equal(rows, want) and np.array_equal(np.signbit(rows), np.signbit(want))
        past = rows[np.arange(count) > np.arange(i0, ends[-1])[:, None]]
        assert not past.any() and not np.signbit(past).any()
    assert ends == [min(block << q, size) for q in range(len(ends))]


def _reference_rows(coeffs, lags, size):
    """The per-slice row stepper the full-width ring replaced, kept as the
    reference: row i = X(n0+i, n0..n0+i), stepped on its first i + 1
    columns with a temporary per term; yields a copy of each row."""
    depth = int(lags.max(initial=0)) + 2
    ring = np.zeros((depth, size))
    ring[0, 0] = 1.0
    yield ring[0, :1].copy()
    steps = zip(coeffs[:, : size - 1].T.tolist(), lags[:, : size - 1].T.tolist())
    for i, (a, d) in enumerate(steps):
        slot = ring[(i + 1) % depth]
        head = slot[: i + 1]
        head[:] = ring[i % depth, : i + 1]
        for a_l, d_l in zip(a, d):
            if d_l <= i:
                head -= a_l * ring[(i - d_l) % depth, : i + 1]
        slot[i + 1] = 1.0
        yield slot[: i + 2].copy()


def _streamed_rows(coeffs, lags, size):
    """kernel_rows' rows one by one, each cut at its diagonal, with a check
    of the blocks' layout and of the +0.0 past every diagonal."""
    out, ring = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, rows in _kernels.kernel_rows(coeffs, lags, size):
            assert i0 == len(out) and len(rows) == min(_kernels.BLOCK, size - i0)
            assert rows.shape[1] == size and (ring is None or rows.base is ring)
            ring = rows.base
            for r, row in enumerate(rows):
                past = row[i0 + r + 1:]
                assert not past.any() and not np.signbit(past).any()
                out.append(row[: i0 + r + 1].copy())
    return out


ROW_LAGS = {"lag0": 0, "deep": 40}


@pytest.mark.parametrize("block", [1, 16])
@pytest.mark.parametrize("size", [1, 2, 15, 16, 17, 201])
@pytest.mark.parametrize("lag", list(ROW_LAGS), ids=list(ROW_LAGS))
@pytest.mark.parametrize("m", range(1, 7))
def test_kernel_rows_match_the_per_slice_stepper(m, lag, size, block, monkeypatch):
    # random signed coefficients and lags up to 0 or up to 40, deeper than
    # most rows i; entries equal bit for bit, signs of zero included, in
    # blocks of BLOCK rows and of the one row the cap fallback hands out
    monkeypatch.setattr(_kernels, "BLOCK", block)
    rng = np.random.default_rng([m, size, ROW_LAGS[lag]])
    coeffs = rng.uniform(-0.6, 0.6, (m, max(size - 1, 0)))
    coeffs[:, ::7] = 0.0
    lags = rng.integers(0, ROW_LAGS[lag] + 1, coeffs.shape).astype(np.int64)
    got = _streamed_rows(coeffs, lags, size)
    want = list(_reference_rows(coeffs, lags, size))
    assert len(got) == len(want) == size
    for i, (row, ref) in enumerate(zip(got, want)):
        assert np.array_equal(row, ref) and np.array_equal(np.signbit(row), np.signbit(ref)), i


@pytest.mark.parametrize("block", [1, 16])
def test_kernel_rows_match_the_per_slice_stepper_through_overflow(block, monkeypatch):
    # X(n+1) = X(n) + 1e30 X(n - 1) overflows to inf, then inf - inf is nan
    monkeypatch.setattr(_kernels, "BLOCK", block)
    size = 60
    coeffs = np.stack([np.full(size - 1, 0.5), np.full(size - 1, -1e30)])
    lags = np.stack([np.zeros(size - 1), np.ones(size - 1)]).astype(np.int64)
    got = _streamed_rows(coeffs, lags, size)
    with np.errstate(over="ignore", invalid="ignore"):
        want = list(_reference_rows(coeffs, lags, size))
    assert np.isinf(got[-1]).any() and np.isnan(got[-1]).any()
    for i, (row, ref) in enumerate(zip(got, want)):
        assert np.array_equal(row, ref, equal_nan=True), i
        assert np.array_equal(np.signbit(row), np.signbit(ref)), i


@pytest.mark.parametrize("block", [1, 3, 16])
@pytest.mark.parametrize("lag", [0, 1, 14, 15, 16, 40])
def test_kernel_rows_ring_stays_under_the_cap(block, lag, monkeypatch):
    # the cap counts max lag + 2 rows; the ring rounds that up to a
    # multiple of BLOCK, unless the rounded ring alone would pass the
    # cap: then it keeps max lag + 2 rows and hands out one row at a time
    monkeypatch.setattr(_kernels, "BLOCK", block)
    size = 50
    coeffs = np.full((1, size - 1), 0.01) + np.arange(size - 1) * 1e-4
    lags = np.full((1, size - 1), lag, dtype=np.int64)
    depth = lag + 2
    rounded = depth + -depth % block
    want = list(_reference_rows(coeffs, lags, size))
    for cap, ring_depth, step in ((rounded * size, rounded, block),
                                  (depth * size, depth, block if rounded == depth else 1)):
        monkeypatch.setattr(_kernels, "MAX_ENTRIES", cap)
        blocks = [(i0, rows.copy(), rows.base)
                  for i0, rows in _kernels.kernel_rows(coeffs, lags, size)]
        assert blocks[0][2].shape == (ring_depth, size) and ring_depth * size <= cap
        assert [i0 for i0, _, _ in blocks] == list(range(0, size, step))
        got = [row[: i0 + r + 1] for i0, rows, _ in blocks for r, row in enumerate(rows)]
        assert len(got) == size and all(map(np.array_equal, got, want))
    monkeypatch.setattr(_kernels, "MAX_ENTRIES", depth * size - 1)
    with pytest.raises(KernelMemoryError, match=f"kernel rows need {depth * size} entries"):
        next(_kernels.kernel_rows(coeffs, lags, size))


def test_kernel_rows_ring_holds_no_row_before_the_window():
    # a lag of 10^7 reads no row of a 30-row window: the ring keeps
    # min(max lag, size - 1) + 2 = 31 rows, rounded up to BLOCK
    size = 30
    coeffs = np.full((2, size - 1), 0.01)
    lags = np.stack([np.ones(size - 1, dtype=np.int64), np.full(size - 1, 10**7)])
    _, rows = next(_kernels.kernel_rows(coeffs, lags, size))
    assert rows.base.shape == (31 + -31 % _kernels.BLOCK, size)


def test_kernel_table_refuses_past_the_cap_before_allocating():
    # 10,001^2 entries pass the cap; the 800 MB table is never allocated
    coeffs, lags = np.zeros((1, 10_000)), np.zeros((1, 10_000), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(KernelMemoryError,
                           match=r"^kernel table needs 100020001 entries \(cap 100000000\); "
                                 r"compute streaming columns with fundamental\(\) instead$"):
            _kernels.kernel_table(coeffs, lags, 10_001)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_kernel_rows_cap_their_ring():
    # 2,002 rows of 100,001 entries pass the cap; it raises before allocating
    coeffs, lags = np.zeros((1, 100_000)), np.full((1, 100_000), 2000, dtype=np.int64)
    with pytest.raises(KernelMemoryError, match="kernel rows"):
        next(_kernels.kernel_rows(coeffs, lags, 100_001))


@pytest.mark.parametrize("name,coeffs,lags", CASES, ids=IDS)
def test_step_recurrence_is_the_representation_formula(name, coeffs, lags):
    # zero prehistory: x(n) = X(n, n0) x(n0) + sum_k X(n, k+1) f(k)
    steps = coeffs.shape[1]
    t_max = int(lags.max(initial=0))
    forcing = np.sin(np.arange(float(steps)))
    x = np.zeros(t_max + steps + 1)
    x[t_max] = 1.5
    _kernels.step_recurrence(coeffs, lags, forcing, x, t_max, steps)
    table = _reference_table(coeffs, lags, steps + 1)
    _assert_close(x[t_max:], 1.5 * table[:, 0] + _reference_sums(table, forcing, False))


def _six_periodic_terms(seed, size):
    """m = 6 with periodic coefficient and lag tables (periods 1 to 6)."""
    rng = np.random.default_rng(seed)
    n = np.arange(size)
    coeffs = np.stack([rng.uniform(-0.1, 0.2, p)[n % p] for p in range(1, 7)])
    lags = np.stack([rng.integers(0, 9, p)[n % p] for p in range(1, 7)]).astype(np.int64)
    return coeffs, lags


def _m_terms(seed, m, size):
    """m terms, for the step loop written out for m: term 0 at lag 0, the
    others on periodic lag rows (periods 1 to 3, lags 0 to 6, so some steps
    read x(n) twice)."""
    rng = np.random.default_rng(seed)
    n = np.arange(size)
    coeffs = rng.uniform(-0.5, 0.5, (m, size)) / m
    lags = np.stack([np.zeros(size, dtype=np.int64)]
                    + [rng.integers(0, 7, l % 3 + 1)[n % (l % 3 + 1)] for l in range(1, m)])
    return coeffs, lags.astype(np.int64)


# (name, coeffs, lags, history seed or None for x(n0) = 1.5 after zeros)
STEP_CASES = (
    [(name, coeffs, lags, None) for name, coeffs, lags in CASES]
    + [("history", *_random_tables(6, 3, 60, 5), 7),
       ("six_periodic", *_six_periodic_terms(8, 200), 9),
       ("steps0", np.zeros((2, 0)), np.zeros((2, 0), dtype=np.int64), 10),
       # grows past the float64 range: inf, then inf - inf = nan
       ("overflow", np.array([[-1e150, 1e150] * 20, [1e150] * 40]),
        np.array([[0] * 40, [1] * 40], dtype=np.int64), 11)]
    + [(f"m{m}", *_m_terms(20 + m, m, 150), 40 + m) for m in (1, 2, 3, 4, 8, SUBSET_CAP)]
)


@pytest.mark.parametrize("name,coeffs,lags,seed", STEP_CASES, ids=[c[0] for c in STEP_CASES])
def test_step_recurrence_matches_numpy_scalar_loop_bitwise(name, coeffs, lags, seed):
    steps = coeffs.shape[1]
    t_max = int(lags.max(initial=0))
    forcing = np.sin(np.arange(float(steps)))
    x = np.zeros(t_max + steps + 1)
    if seed is None:
        x[t_max] = 1.5
    else:
        x[: t_max + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, t_max + 1)
    ref = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        _reference_step(coeffs, lags, forcing, ref, t_max, steps)
    got = _kernels.step_recurrence(coeffs, lags, forcing, x, t_max, steps)
    assert got is x
    assert np.array_equal(x, ref, equal_nan=True)
    if name == "overflow":
        assert np.isinf(x).any() and np.isnan(x[-1])


def _walkers(xs, lags, at):
    """Per lag row, an iterator of the values step i reads, xs[at + i - d]:
    for a constant row a walker over xs itself, which sees what the loop
    appends, else a generator over the row's indices."""
    reads = []
    for row in lags:
        if len(row) and (row == row[0]).all():
            walk = iter(xs)
            walk.__setstate__(at - int(row[0]))
            reads.append(walk)
        else:
            reads.append(xs[j] for j in (at + np.arange(len(row)) - row).tolist())
    return reads


@pytest.mark.parametrize("chunk", [1, 7])
def test_step_recurrence_gives_the_same_bits_in_any_chunk(chunk):
    # both read forms of the step loop, resumed every ``chunk`` steps as
    # kernel_columns resumes its columns: walkers (constant, periodic and
    # mixed lag rows, lag 0 and lag t_max among them) and index rows
    for name, coeffs, lags, _ in STEP_CASES:
        m, steps = coeffs.shape
        t_max = int(lags.max(initial=0))
        forcing = np.sin(np.arange(float(steps)))
        x = np.zeros(t_max + steps + 1)
        x[: t_max + 1] = np.linspace(-1.0, 1.0, t_max + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_step(coeffs, lags, forcing, x.copy(), t_max, steps).tobytes()
        indices = (t_max + np.arange(steps) - lags).tolist()
        walked, indexed = x[: t_max + 1].tolist(), x[: t_max + 1].tolist()
        for c0 in range(0, steps, chunk):
            c1 = min(c0 + chunk, steps)
            _kernels._stepper(m)(walked, forcing[c0:c1].tolist(), *coeffs[:, c0:c1].tolist(),
                                 *_walkers(walked, lags[:, c0:c1], t_max + c0))
            _kernels._stepper(m, True)(indexed, forcing[c0:c1].tolist(),
                                       *coeffs[:, c0:c1].tolist(),
                                       *(row[c0:c1] for row in indices))
        assert np.array(walked).tobytes() == want, name
        assert np.array(indexed).tobytes() == want, name
        if name == "overflow":
            assert np.isnan(walked[-1])


@pytest.mark.parametrize("bad_lag", [-1, 4])
def test_step_recurrence_rejects_lags_outside_the_history(bad_lag):
    # a lag above t_max (or below 0) would read outside x(n0 - t_max .. n)
    coeffs, lags = np.full((2, 5), 0.1), np.full((2, 5), 1, dtype=np.int64)
    lags[1, 4] = bad_lag
    x = np.zeros(3 + 5 + 1)
    with pytest.raises(ValueError, match="leave the history"):
        _kernels.step_recurrence(coeffs, lags, np.zeros(5), x, 3, 5)
    # lags past the steps taken are never read
    _kernels.step_recurrence(coeffs, lags, np.zeros(4), x[:-1], 3, 4)


@pytest.mark.parametrize("seed", range(12))
def test_simulator_sums_match_dense_table(seed):
    eq = random_equation(seed, m_max=3, T_max=6, K_max=0.8)
    N = 80
    coeffs, lags = eq.coeff_table(0, N - 1), eq.lag_table(0, N - 1)
    table = _reference_table(coeffs, lags, N + 1)
    _assert_close(lemma6_sum(eq, 0, N), _reference_sums(table, coeffs.sum(axis=0), False))
    _assert_close(pituk_sum(eq, 0, N), _reference_sums(table, np.ones(N), True))
    forcing = parse("per(0.3, -1, 0.25)")
    _assert_close(cauchy_apply(eq, forcing, 0, N).values,
                  _reference_sums(table, np.resize([0.3, -1.0, 0.25], N), False))
