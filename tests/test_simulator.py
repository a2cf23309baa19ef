import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from delaystab import (
    DelaySpec,
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
    validate,
)
from delaystab.oracle import random_equation
from delaystab.simulator import write_trajectory_csv


def with_forcing(eq, f):
    return replace(eq, forcing=f)


# --- simulate


def test_simulate_factorial(eq_factorial):
    traj = simulate(eq_factorial, InitialData.point(0, 1.0), 20)
    expect = np.array([1.0 / math.factorial(n) for n in range(21)])
    assert np.abs(traj.values - expect).max() < 1e-12


def test_simulate_constant(eq_zero):
    traj = simulate(eq_zero, InitialData.point(3, 7.0), 10)
    assert np.array_equal(traj.values, np.full(8, 7.0))


def test_simulate_two_steps_by_hand(eq_unbounded):
    traj = simulate(eq_unbounded, InitialData.from_values(0, [0.0, 1.0]), 2)
    assert traj.values.tolist() == [1.0, 3.0, pytest.approx(6.8)]


def test_simulate_rejects_bad_horizon(eq_zero):
    with pytest.raises(ValueError):
        simulate(eq_zero, InitialData.point(5), 4)


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
    history = {n: (1.0 if n == k else 0.0) for n in range(k - eq.T, k + 1)}
    want = simulate(replace(eq, forcing=None), InitialData(k, history), N).values
    assert fundamental(eq, k, N).tobytes() == want.tobytes()


def test_fundamental_steps_a_long_column_in_bounded_memory():
    # lag 10^5, a column of 500,050 steps: its coefficient and lag rows
    # become Python lists a chunk at a time and its zero history is never
    # a dict, so a fresh process grows by about 60 MB; whole rows and a
    # history dict take about 150 MB.  Peak RSS of a child, as tracemalloc
    # slows the step loop about twenty-fold.
    code = textwrap.dedent("""
        import resource
        from delaystab import DelaySpec, Term, fundamental, parse, validate
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        eq = validate([Term(parse("1e-9"), DelaySpec.constant(10**5)),
                       Term(parse("2e-9*(1 + 0.5*per(1, -1))"), DelaySpec.constant(10**5))])
        assert len(fundamental(eq, 0, 5 * 10**5 + 49)) == 5 * 10**5 + 50
        print(base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    base, peak = map(int, r.stdout.split())  # KiB
    assert peak - base < 100 * 1024


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
        # 10,001^2 entries pass the cap; it raises before any allocation
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
    direct = simulate(forced, InitialData.point(0, 0.0), 30)
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
