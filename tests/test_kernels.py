"""The row-vectorised kernels against plain loop references.

``_reference_table`` is the triple loop that defines X(n, k) column by
column; ``kernel_table`` must reproduce it exactly, and the weighted sums
and forced recurrences must match sums over it to rounding.
``_reference_step`` is the per-step NumPy-scalar recurrence;
``step_recurrence`` must reproduce it bit for bit.
"""

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


@pytest.mark.parametrize("chunk", [1, 7])
def test_step_recurrence_gives_the_same_bits_in_any_chunk(chunk, monkeypatch):
    for name, coeffs, lags, _ in STEP_CASES:
        steps = coeffs.shape[1]
        t_max = int(lags.max(initial=0))
        forcing = np.sin(np.arange(float(steps)))
        x = np.zeros(t_max + steps + 1)
        x[: t_max + 1] = np.linspace(-1.0, 1.0, t_max + 1)
        chunked = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            _kernels.step_recurrence(coeffs, lags, forcing, x, t_max, steps)
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "STEP_CHUNK", chunk)
                _kernels.step_recurrence(coeffs, lags, forcing, chunked, t_max, steps)
        assert chunked.tobytes() == x.tobytes(), name


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
