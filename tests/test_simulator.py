import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delaystab import (
    DelaySpec,
    Equation,
    InitialData,
    KernelMemoryError,
    Term,
    cauchy_apply,
    fundamental,
    kernel,
    lemma6_sum,
    parse,
    pituk_sum,
    product_bound,
    representation_check,
    simulate,
    simulator,
    subset_equation,
    validate,
)
from delaystab.oracle import random_equation
from delaystab.simulator import format_csv, write_trajectory_csv


def with_forcing(eq, f):
    return replace(eq, forcing=f)


# --- simulate


def test_simulate_factorial(eq_factorial):
    traj = simulate(eq_factorial, InitialData(0, [1.0]), 20)
    expect = np.array([1.0 / math.factorial(n) for n in range(21)])
    assert np.abs(traj.values - expect).max() < 1e-12


def test_simulate_constant(eq_zero):
    traj = simulate(eq_zero, InitialData(3, [7.0]), 10)
    assert np.array_equal(traj.values, np.full(8, 7.0))


def test_simulate_two_steps_by_hand(eq_unbounded):
    traj = simulate(eq_unbounded, InitialData.from_values(0, [0.0, 1.0]), 2)
    assert traj.values.tolist() == [1.0, 3.0, pytest.approx(6.8)]


def test_simulate_rejects_bad_horizon(eq_zero):
    with pytest.raises(ValueError):
        simulate(eq_zero, InitialData(5, [1.0]), 4)


# every entry point as (eq, n0, N)
ENTRY_POINTS = {
    "simulate": lambda eq, n0, N: simulate(eq, InitialData(n0, [1.0]), N),
    "fundamental": fundamental,
    "kernel": kernel,
    "cauchy_apply": lambda eq, n0, N: cauchy_apply(eq, parse("sin(n)"), n0, N),
    "lemma6_sum": lemma6_sum,
    "pituk_sum": pituk_sum,
    "product_bound": product_bound,
    "representation_check": lambda eq, n0, N: representation_check(
        eq, InitialData(n0, [1.0]), parse("1"), N),
}


@pytest.mark.parametrize("name, N", [(name, N) for name in ENTRY_POINTS for N in (4, 1)],
                         ids=[f"{name}-N{N}" for name in ENTRY_POINTS for N in (4, 1)])
def test_kernel_sums_refuse_a_horizon_before_the_start(name, N, eq_sin_cos):
    # one window check, simulate's message, before the history is read;
    # fundamental, kernel, cauchy_apply and product_bound each had their
    # own message, lemma6_sum returned [] at N = n0 - 1
    with pytest.raises(ValueError, match=f"^horizon {N} precedes start 5$"):
        ENTRY_POINTS[name](eq_sin_cos, 5, N)


def test_a_lag_past_the_window_subtracts_nothing():
    # a window of 101 rows never reads a row 10^7 back: the kernel ring
    # keeps the rows the window reaches, not 10^7 + 2 of them (past the
    # cap), and the result is the one without that term, bit for bit.
    # Built directly: validate would evaluate 10^8 points at this lag.
    eq = Equation((Term(parse("0.1 + 0.05*sin(n)"), DelaySpec.constant(1)),
                   Term(parse("0.001"), DelaySpec.constant(10**7))))
    alone, f = subset_equation(eq, [0]), parse("cos(n)")
    assert pituk_sum(eq, 0, 100).tobytes() == pituk_sum(alone, 0, 100).tobytes()
    assert (cauchy_apply(eq, f, 0, 100).values.tobytes()
            == cauchy_apply(alone, f, 0, 100).values.tobytes())
    assert kernel(eq, 0, 20).values.tobytes() == kernel(alone, 0, 20).values.tobytes()


# --- fundamental / kernel


def test_fundamental_factorial_column(eq_factorial):
    col = fundamental(eq_factorial, 0, 20)
    expect = np.array([1.0 / math.factorial(n) for n in range(21)])
    assert np.abs(col - expect).max() < 1e-12


def test_fundamental_unit_diagonal(eq_sin_cos):
    assert fundamental(eq_sin_cos, 17, 17)[0] == 1.0


def test_fundamental_growth_start(eq_unbounded):
    col = fundamental(eq_unbounded, 0, 1)
    assert col.tolist() == [1.0, 3.0]


def test_fundamental_two_steps_exact(eq_unbounded):
    # X(2, 0) = 3 - 2.2 * 1 + 2 * 3; the rounded steps land on the double 6.8
    assert fundamental(eq_unbounded, 0, 2)[2] == 6.8


@pytest.mark.parametrize("seed", range(6))
def test_fundamental_is_the_simulated_column_bit_for_bit(seed):
    # the column from the history 1 at k and 0 before, signed zeros included
    eq = random_equation(seed, m_max=3, T_max=5, K_max=1.2)
    k, N = 7, 300
    init = InitialData(k, [0.0] * eq.T + [1.0])
    want = simulate(replace(eq, forcing=None), init, N).values
    assert fundamental(eq, k, N).tobytes() == want.tobytes()


def test_fundamental_steps_a_long_column_in_bounded_memory(peak_rss_growth):
    # lag 10^5, a column of 500,050 steps: its coefficient and lag rows
    # become Python lists a chunk at a time and its zero history is never
    # a dict, so a fresh process grows by about 60 MB; whole rows and a
    # history dict take about 150 MB.
    growth = peak_rss_growth("""
        from delaystab import DelaySpec, Term, fundamental, parse, validate
    """, """
        eq = validate([Term(parse("1e-9"), DelaySpec.constant(10**5)),
                       Term(parse("2e-9*(1 + 0.5*per(1, -1))"), DelaySpec.constant(10**5))])
        assert len(fundamental(eq, 0, 5 * 10**5 + 49)) == 5 * 10**5 + 50
    """)
    assert growth < 100 * 1024  # KiB


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_zero_history_is_only_as_deep_as_its_window():
    # A window of 100 steps reads no history 10^6 back.  The buffer keeps
    # the 100 entries before the start that a lag can reach, and a longer
    # lag reads one of their zeros.  So each call equals the one with that
    # term at lag 100, whose reads all land on zeros of the buffer, bit for
    # bit, and allocates no 10^6-deep history (39 MiB before).  lemma6_sum's
    # forcing sums every coefficient, so the term is moved, not dropped.
    # Built directly: validate would evaluate 10^7 points at this lag.
    short, far = Term(parse("0.1 + 0.05*sin(n)"), DelaySpec.constant(1)), parse("0.001")
    eq = Equation((short, Term(far, DelaySpec.constant(10**6))))
    near = Equation((short, Term(far, DelaySpec.constant(100))))
    alone = Equation((short,))
    assert fundamental(near, 0, 100).tobytes() == fundamental(alone, 0, 100).tobytes()
    for fn in (fundamental, lemma6_sum):
        want = fn(near, 0, 100)
        got, peak = _peak_mib(fn, eq, 0, 100)
        assert got.tobytes() == want.tobytes()
        assert peak < 1.0, fn.__name__


def test_simulate_holds_its_history_as_one_array():
    # the same equation from the history 0, ..., 0, 1 of T + 1 = 10^6 + 1
    # values: an array of them, a step buffer and the buffer's list stay
    # near 47 MiB; a dict of them took 110 MiB
    eq = Equation((Term(parse("0.1 + 0.05*sin(n)"), DelaySpec.constant(1)),
                   Term(parse("0.001"), DelaySpec.constant(10**6))))
    want = fundamental(eq, 0, 100)
    traj, peak = _peak_mib(lambda: simulate(
        eq, InitialData.from_values(0, [0.0] * eq.T + [1.0]), 100))
    assert traj.values.tobytes() == want.tobytes()
    assert peak < 64


def test_kernel_hand_value():
    eq = validate([Term(parse("0.2"), DelaySpec.constant(1))])
    K = kernel(eq, 0, 5)
    assert K.at(2, 0) == pytest.approx(0.8)
    assert all(K.at(k, k) == 1.0 for k in range(6))


def test_kernel_at_refuses_entries_outside_its_table():
    eq = validate([Term(parse("0.2"), DelaySpec.constant(1))])
    K = kernel(eq, 3, 20)
    assert K.at(20, 3) == K.values[17, 0]
    assert K.at(5, 8) == 0.0  # above the diagonal, inside or out of the window
    assert K.at(2, 30) == 0.0
    # k = 2 and n = 21 are offsets -1 and 18, which NumPy would wrap or refuse
    for n, k in [(20, 2), (21, 20), (21, 3), (3, -1)]:
        with pytest.raises(IndexError, match="outside the table"):
            K.at(n, k)


def test_kernel_zero_equation(eq_zero):
    K = kernel(eq_zero, 0, 6)
    for k in range(7):
        for n in range(k, 7):
            assert K.at(n, k) == 1.0


def test_kernel_memory_cap(eq_zero):
    with pytest.raises(KernelMemoryError, match="streaming"):
        # 10,001^2 entries pass the cap; kernel_table refuses them before it
        # allocates the table (the coefficient tables come first)
        kernel(eq_zero, 0, 10_000)


def test_kernel_sums_on_a_one_point_window(eq_periodic_mixed):
    eq = eq_periodic_mixed
    for out in (lemma6_sum(eq, 3, 3), pituk_sum(eq, 3, 3),
                cauchy_apply(eq, parse("1"), 3, 3).values):
        assert out.tolist() == [0.0]


def test_kernel_columns_satisfy_recurrence(eq_periodic_mixed):
    eq = eq_periodic_mixed
    K = kernel(eq, 0, 60)
    coeffs = eq.coeff_table(0, 59)
    lags = eq.lag_table(0, 59)
    worst = 0.0
    for k in range(0, 61):
        for n in range(k, 60):
            acc = K.at(n, k)
            for l in range(eq.m):
                h = n - int(lags[l, n])
                acc -= coeffs[l, n] * (K.at(h, k) if h >= 0 else 0.0)
            worst = max(worst, abs(K.at(n + 1, k) - acc))
    assert worst < 1e-14


# --- cauchy operator


def test_cauchy_zero_forcing(eq_sin_cos):
    y = cauchy_apply(eq_sin_cos, parse("0"), 0, 30)
    assert np.array_equal(y.values, np.zeros(31))


def test_cauchy_telescoping(eq_zero):
    y = cauchy_apply(eq_zero, parse("1"), 2, 12)
    assert np.array_equal(y.values, np.arange(11.0))


def test_cauchy_matches_forced_simulation(eq_factorial):
    y = cauchy_apply(eq_factorial, parse("1"), 0, 30)
    forced = with_forcing(eq_factorial, parse("1"))
    direct = simulate(forced, InitialData(0, [0.0]), 30)
    assert np.abs(y.values - direct.values).max() < 1e-12
    # closed form: y(n) = sum_{k=0}^{n-1} (k+1)!/n!
    n = 7
    expect = sum(math.factorial(k + 1) for k in range(n)) / math.factorial(n)
    assert y.values[n] == pytest.approx(expect, abs=1e-12)


# --- representation formula


def test_representation_zero_history_zero_forcing(eq_sin_cos):
    err = representation_check(eq_sin_cos, InitialData.from_values(0, [0.0] * 20 + [1.0]),
                               None, 40)
    assert err == 0.0


def test_representation_random_instances():
    rng = np.random.default_rng(1234)
    from delaystab.seqexpr import periodic_table
    worst = 0.0
    for seed in range(30):
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.35)
        history = [float(v) for v in rng.uniform(-1, 1, eq.T + 1)]
        forcing = periodic_table([float(v) for v in rng.uniform(-1, 1, 3)])
        worst = max(worst, representation_check(eq, InitialData.from_values(0, history),
                                                forcing, 50))
    assert worst < 1e-9


def test_representation_from_a_one_value_history():
    # phi is zero before the history as well as from n0 on, so x(n0) alone
    # is a history; a lag reaching past it reads those zeros, and values
    # older than n0 - T are never read
    rng = np.random.default_rng(8)
    from delaystab.seqexpr import periodic_table
    for seed in range(30):
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.35)
        forcing = periodic_table([float(v) for v in rng.uniform(-1, 1, 3)])
        for h in (1, max(eq.T, 1), eq.T + 3):
            init = InitialData(4, rng.uniform(-1, 1, h))
            for N in (6, 50):
                assert representation_check(eq, init, forcing, N) < 1e-9, (seed, h, N)


def test_representation_check_evaluates_each_coefficient_once(monkeypatch):
    # a 3-term equation with periodic forcing: one window per coefficient and
    # one for the forcing, shared by simulate, fundamental and its own tables
    from delaystab import seqexpr
    from delaystab.seqexpr import periodic_table
    eq = random_equation(0, m_max=3, T_max=5, K_max=0.35)
    assert eq.m == 3
    calls = []
    evaluate = seqexpr._eval_window

    def counting(expr, n0, n1):
        calls.append((str(expr), n0, n1))
        return evaluate(expr, n0, n1)

    monkeypatch.setattr(seqexpr, "_eval_window", counting)
    history = InitialData.from_values(0, np.linspace(-1.0, 1.0, eq.T + 1))
    assert representation_check(eq, history, periodic_table([0.5, -0.25, 1.0]), 50) < 1e-9
    assert len(calls) == eq.m + 1


def test_representation_periodic_mixed(eq_periodic_mixed):
    rng = np.random.default_rng(5)
    history = [float(v) for v in rng.uniform(-1, 1, eq_periodic_mixed.T + 1)]
    err = representation_check(eq_periodic_mixed, InitialData.from_values(0, history),
                               parse("0.1*sin(n)"), 60)
    assert err < 1e-9


# --- product bound


def test_product_bound_zero(eq_zero):
    assert np.array_equal(product_bound(eq_zero, 0, 10), np.ones(11))


def test_product_bound_closed_form():
    eq = validate([Term(parse("0.5"), DelaySpec.constant(1))])
    B = product_bound(eq, 3, 13)
    assert np.allclose(B, 1.5 ** np.arange(11), rtol=1e-14)


def test_product_bound_dominates_kernel(eq_unbounded):
    col = np.abs(fundamental(eq_unbounded, 0, 30))
    B = product_bound(eq_unbounded, 0, 30)
    assert np.all(col <= B * (1 + 1e-12))
    assert np.allclose(B, 5.2 ** np.arange(31), rtol=1e-12)


def test_product_bound_random_instances():
    for seed in range(40):
        eq = random_equation(seed, m_max=3, T_max=5, K_max=1.0)
        col = np.abs(fundamental(eq, 0, 100))
        B = product_bound(eq, 0, 100)
        assert np.all(col <= B * (1 + 1e-12) + 1e-300)


# --- lemma6 / pituk sums


def test_lemma6_zero(eq_zero):
    assert np.array_equal(lemma6_sum(eq_zero, 0, 15), np.zeros(16))


def test_lemma6_geometric():
    eq = validate([Term(parse("0.2"), DelaySpec.constant(0))])
    S = lemma6_sum(eq, 0, 25)
    assert np.allclose(S, 1 - 0.8 ** np.arange(26), atol=1e-14)


def test_lemma6_bounds_on_certified_fixtures(eq_factorial, eq_vanishing):
    # both have nonnegative coefficients and a positive kernel, so the
    # normalized kernel mass stays inside [0, 1] past the delay lead-in
    for eq in (eq_factorial, eq_vanishing):
        S = lemma6_sum(eq, 0, 300)
        assert S.min() >= -1e-10
        assert S.max() <= 1 + 1e-10


def test_pituk_sums():
    eq0 = validate([Term(parse("0"), DelaySpec.constant(0))])
    P = pituk_sum(eq0, 0, 6)
    assert np.array_equal(P, np.arange(7.0))  # marginal case grows linearly
    eq = validate([Term(parse("0.5"), DelaySpec.constant(0))])
    P = pituk_sum(eq, 0, 50)
    assert P.max() < 2.0


def test_pituk_bounded_for_stable_fixture(eq_alternating):
    P = pituk_sum(eq_alternating, 0, 500)
    assert np.isfinite(P).all()
    assert P[100:].max() <= P.max() < 60.0  # bounded, no growth trend


# --- linearity and monotonicity invariants


def test_linearity_of_simulation():
    eq = random_equation(11, m_max=3, T_max=4, K_max=0.5)
    rng = np.random.default_rng(0)
    h1 = rng.uniform(-1, 1, eq.T + 1)
    h2 = rng.uniform(-1, 1, eq.T + 1)
    from delaystab.seqexpr import periodic_table
    f1 = periodic_table(rng.uniform(-1, 1, 2))
    f2 = periodic_table(rng.uniform(-1, 1, 3))
    from delaystab.seqexpr import added
    t_sum = simulate(with_forcing(eq, added(f1, f2)),
                     InitialData.from_values(0, h1 + h2), 60)
    t1 = simulate(with_forcing(eq, f1), InitialData.from_values(0, h1), 60)
    t2 = simulate(with_forcing(eq, f2), InitialData.from_values(0, h2), 60)
    assert np.abs(t_sum.values - (t1.values + t2.values)).max() < 1e-10


def test_positive_kernel_is_eventually_nonincreasing(eq_factorial, eq_vanishing):
    for eq in (eq_factorial, eq_vanishing):
        K = kernel(eq, 0, 80)
        for k in range(0, 81, 7):
            col = K.values[:, k]
            tail = col[max(k, k + eq.T):]
            assert np.all(np.diff(tail) <= 1e-15)


# --- CSV emission


def test_trajectory_csv(tmp_path, eq_unbounded):
    traj = simulate(eq_unbounded, InitialData.from_values(0, [0.0, 1.0]), 3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,1"
    assert lines[3] == "2,6.7999999999999998"  # 17 significant digits
    assert "\r" not in text


_CSV_VALUES = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3]


@pytest.mark.parametrize("n0", [-5, 10**12])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8195])
def test_format_csv_matches_the_per_row_text(rows, width, n0):
    rng = np.random.default_rng(rows + width)
    columns = [np.resize(np.concatenate([_CSV_VALUES[j:], rng.standard_normal(5)]), rows)
               for j in range(width)]
    row = "%d" + ",%.17g" * width + "\n"
    reference = "".join(row % r for r in zip(range(n0, n0 + rows), *(c.tolist() for c in columns)))
    header = ",".join(["n"] + [f"c{j}" for j in range(width)])
    assert format_csv(header, n0, *columns) == header + "\n" + reference


def _hard_doubles() -> np.ndarray:
    """Doubles at every edge of the vectorised "%.17g": powers of ten with
    their one-ulp neighbours, random bit patterns, exact ties (eighths with
    18 digits, odd multiples of 2^-24) and 18-digit decimals ending in 5,
    subnormals, zeros, infinities, nan and the layout switches."""
    rng = np.random.default_rng(49)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    tens = np.concatenate([tens - 1, tens, tens + 1]).view(np.float64)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    ties = np.concatenate([rng.integers(2**52, 2**53, 2000) / 8.0,
                           np.arange(1, 2**12, 2) * 2.0**-24,
                           rng.integers(2**52, 2**53, 2000) / 2.0])
    fives = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**16, 10**17, 2000),
                                                 rng.integers(-330, 300, 2000))]
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4,
             9.9999999999999991e-6, 9.9999999999999991e-5, 1e16, 1e17, 9.9999999999999984e16,
             1e16 + 2, 1234567890123456.75, 2.0**-25, 3 * 2.0**-25]
    values = np.concatenate([tens, ties, fives, edges])
    return np.concatenate([values, -values, bits])


@pytest.mark.parametrize("n0", [-10**15, 10**12])
def test_format_csv_prints_every_double_as_percent_17g(n0):
    values = _hard_doubles()
    text = format_csv("n,v", n0, values).split("\n")
    reference = ["n,v", *map("%d,%.17g".__mod__, zip(range(n0, n0 + len(values)),
                                                     values.tolist())), ""]
    assert text == reference
    # the fast path leaves some values (subnormals, infinities) to "%.17g",
    # and every exact tie at the 18th digit, where rint(r) is not proved
    assert simulator._decimal(values)[2].any()
    assert simulator._decimal(np.array([1234567890123456.75, 3 * 2.0**-25]))[2].all()


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_format_csv_prints_other_dtypes_as_their_python_numbers(dtype):
    column = (np.random.default_rng(3).standard_normal(500) * 2.0**40).astype(dtype)
    reference = "".join(map("%d,%.17g\n".__mod__, enumerate(column.tolist())))
    assert format_csv("n,v", 0, column) == "n,v\n" + reference


def test_format_csv_refuses_a_row_index_past_2_53():
    with pytest.raises(ValueError, match="past 2"):
        format_csv("n,v", 2**53 - 1, np.ones(2))
    assert format_csv("n,v", -(2**53) + 1, np.ones(1)) == "n,v\n-9007199254740991,1\n"


def test_format_csv_memory_stays_near_its_text():
    # chunked rows: the peak is the chunks plus their join, not a string
    # per row and whole-column lists
    rng = np.random.default_rng(0)
    values = rng.standard_normal(200_001)
    bound = np.cumsum(np.abs(values))
    tracemalloc.start()
    try:
        text = format_csv("n,value,bound", 0, values, bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# --- value types holding arrays


def _two_equal(kind):
    from delaystab.limits import DelayStrip
    from delaystab.simulator import Kernel, Trajectory
    make = {
        "InitialData": lambda: InitialData(0, [0.5, 1.0]),
        "Trajectory": lambda: Trajectory(0, np.array([1.0, 0.5])),
        "Kernel": lambda: Kernel(0, 1, np.array([[1.0, 0.0], [0.5, 1.0]])),
        "DelayStrip": lambda: DelayStrip(np.arange(2), (np.array([1, 1]),), 0, True),
    }[kind]
    return make(), make()


@pytest.mark.parametrize("kind", ["InitialData", "Trajectory", "Kernel", "DelayStrip"])
def test_array_holders_compare_and_hash_by_identity(kind):
    # NumPy's == on arrays has no single truth value, so these compare as objects
    a, b = _two_equal(kind)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
