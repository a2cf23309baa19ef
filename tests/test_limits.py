import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delaystab import (
    DelaySpec,
    Term,
    limsup_product,
    parse,
    subset_equation,
    validate,
)
from delaystab import criteria
from delaystab.fixtures import config_to_equation
from delaystab.limits import (
    AsymptoticEstimate,
    aggregate_period,
    coeff_span,
    default_window,
    delay_strip,
    limsup_products,
    row_sum,
    windowed_delayed_sum,
)
from delaystab.seqexpr import classify, evaluation_scope


def liminf_sum(eq, window=None):
    """liminf over n of sum_l a_l(n): the lower bound of lemma 4's sum
    bounds on the whole equation, which theorem 1 reads."""
    low, _, exact = criteria._sum_bounds(eq, tuple(range(eq.m)), window or default_window(eq))
    return AsymptoticEstimate(low, exact)


def test_liminf_sum_alternating(eq_alternating):
    est = liminf_sum(eq_alternating)
    assert est.exact
    assert est.value == pytest.approx(0.01, abs=1e-15)


def test_liminf_sum_constant():
    eq = validate([Term(parse("0.3"), DelaySpec.constant(2))])
    est = liminf_sum(eq)
    assert est.exact and est.value == 0.3


def test_liminf_sum_windowed(eq_sin_cos):
    est = liminf_sum(eq_sin_cos)
    assert not est.exact
    assert est.value >= 0.15


def test_limsup_product_constant():
    eq = validate([Term(parse("0.2"), DelaySpec.constant(1))])
    est = limsup_product(eq, 3)
    assert est.exact and est.value == pytest.approx(0.512)


def test_limsup_product_zero_sum(eq_zero):
    assert limsup_product(eq_zero, 2).value == 1.0


def test_limsup_product_alternating(eq_alternating):
    est = limsup_product(eq_alternating, 2)
    assert est.exact
    assert est.value == pytest.approx(0.57 * 0.99, abs=1e-13)


def test_coeff_span_periods_and_window():
    eq = validate([
        Term(parse("0.3"), DelaySpec.constant(1)),
        Term(parse("per(0.1, 0.2)"), DelaySpec.constant(2)),
        Term(parse("per(0.1, 0.2, 0.4)"), DelaySpec.constant(0)),
        Term(parse("0.1 + 0.01*sin(n)"), DelaySpec.constant(3)),
    ])
    window = (30, 130)
    # the span is one row per index asked for, stacked here to compare
    rows, exact = coeff_span(eq, window, [0])
    assert exact and np.stack(rows).shape == (1, 1) and rows[0][0] == 0.3
    rows, exact = coeff_span(eq, window, [2, 1])
    assert exact and np.stack(rows).shape == (2, 6)
    assert np.array_equal(np.stack(rows), eq.coeff_table(30, 35)[[2, 1]])
    rows, exact = coeff_span(eq, window, [1], extra=3)
    assert exact and np.array_equal(np.stack(rows), eq.coeff_table(30, 34)[[1]])
    # one general coefficient turns the span into the whole window
    rows, exact = coeff_span(eq, window)
    assert not exact and np.array_equal(np.stack(rows), eq.coeff_table(30, 130))
    rows, exact = coeff_span(eq, window, [0, 3], extra=2)
    assert not exact and np.array_equal(np.stack(rows), eq.coeff_table(30, 132)[[0, 3]])


def test_coeff_span_evaluates_only_its_rows(monkeypatch):
    from delaystab import limits

    eq = validate([Term(parse("per(0.1, 0.2)"), DelaySpec.constant(1)),
                   Term(parse("0.1 + 0.01*sin(n)"), DelaySpec.constant(2))])
    seen = []
    evaluate = limits.eval_range

    def recording(expr, n0, n1):
        seen.append((str(expr), n0, n1))
        return evaluate(expr, n0, n1)

    monkeypatch.setattr(limits, "eval_range", recording)
    coeff_span(eq, (20, 1020), [0])
    assert seen == [("per(0.1, 0.2)", 20, 21)]


def _same_floats(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _row_cases():
    # random floats of many magnitudes and rows of signed zeros; a single
    # row and 12 rows; one-entry rows (a constant coefficient's span) and
    # the 10,001-point window
    rng = np.random.default_rng(0)
    for m in (1, 12):
        for length in (1, 10_001):
            yield list(rng.normal(size=(m, length)) * 10.0 ** rng.integers(-6, 6, (m, length)))
            yield list(rng.choice([0.0, -0.0, 0.25], size=(m, length)))


def test_row_reductions_match_the_stacked_table():
    # spans are rows, no stacked table: each reduction of them must give
    # the floats, signs of zero included, that the stacked table gave
    for rows in _row_cases():
        table = np.stack(rows)
        assert _same_floats(row_sum(rows), table.sum(axis=0))
        # Python's sum starts from the integer 0, over the rows as over the table
        assert _same_floats(sum(rows), sum(table))
        # criteria._all_nonnegative's least entry
        assert _same_floats(float(np.concatenate(rows).min()), table.min())


def test_spans_are_read_only_and_repeated_delays_share_a_lag_row():
    eq = validate([Term(parse("0.1 + 0.01*sin(n)"), DelaySpec.constant(2)),
                   Term(parse("per(0.1, 0.2)"), DelaySpec.periodic([1, 3]))])
    window = (20, 120)
    with evaluation_scope():
        rows, _ = coeff_span(eq, window)
        strip = delay_strip(eq, [t.delay for t in eq.terms] * 2, window)
        assert strip.lags[0] is strip.lags[2] and strip.lags[1] is strip.lags[3]
        for row in rows:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
    assert np.array_equal(strip.deepest(), np.maximum(strip.lags[0], strip.lags[1]))


def test_windowed_delayed_sum_constant_lag():
    eq = validate([Term(parse("0.1"), DelaySpec.constant(4))])
    est = windowed_delayed_sum(eq, [eq.terms[0].delay], -1, default_window(eq))
    assert est.exact and est.value == pytest.approx(0.4)


def test_windowed_delayed_sum_periodic_mixed(eq_periodic_mixed):
    eq = eq_periodic_mixed
    est = windowed_delayed_sum(eq, [eq.terms[0].delay], -1, default_window(eq))
    assert est.exact
    assert est.value == pytest.approx(0.21, abs=1e-15)


def test_windowed_delayed_sum_subset_view(eq_sin_cos):
    # restricting to the first term measures sup a(n-1) <= 0.25
    sub = subset_equation(eq_sin_cos, [0])
    est = windowed_delayed_sum(sub, [sub.terms[0].delay], -1, default_window(sub))
    assert not est.exact
    assert est.value <= 0.25


def test_exactness_stable_under_window_doubling(eq_alternating, eq_periodic_mixed):
    for eq in (eq_alternating, eq_periodic_mixed):
        w1 = (10 * eq.T, 10 * eq.T + 1000)
        w2 = (10 * eq.T, 10 * eq.T + 2000)
        assert liminf_sum(eq, w1).value == liminf_sum(eq, w2).value
        assert limsup_product(eq, 3, w1).value == limsup_product(eq, 3, w2).value
        delays = [eq.terms[0].delay]
        assert (windowed_delayed_sum(eq, delays, -1, w1).value
                == windowed_delayed_sum(eq, delays, -1, w2).value)


def test_liminf_below_limsup_consistency():
    rng = np.random.default_rng(3)
    for seed in range(20):
        from delaystab.oracle import random_equation
        eq = random_equation(seed, m_max=3, T_max=4, K_max=0.9)
        low = liminf_sum(eq).value
        window = (10 * eq.T, 10 * eq.T + 1000)
        values = eq.coeff_table(window[0], window[1]).sum(axis=0)
        assert low <= values.max() + 1e-15


def test_positive_liminf_controls_products():
    # when the coefficient sum has positive liminf and stays below 1, the
    # p-step product estimate is at most (1 - a + eps)^p
    cases = [
        validate([Term(parse("0.3"), DelaySpec.constant(1))]),
        validate([Term(parse("per(0.2, 0.4)"), DelaySpec.constant(2))]),
    ]
    for eq in cases:
        a = liminf_sum(eq)
        assert a.exact and a.value > 0
        for p in (1, 2, 4):
            b = limsup_product(eq, p)
            assert b.value <= (1 - a.value + 1e-12) ** p + 1e-12


# ---------------------------------------------------------------------------
# The per-n strip loops the vectorised primitive replaced, kept verbatim as
# reference implementations: every strip sum must agree with them exactly.


def _ref_period(eq, delays):
    """lcm of every coefficient period and of the lag-table lengths of
    ``delays``; None when any coefficient is general."""
    period = 1
    for t in eq.terms:
        p = classify(t.coeff)
        if p is None:
            return None
        period = math.lcm(period, p)
    for d in delays:
        period = math.lcm(period, len(d.lags))
    return period


def _ref_windowed_delayed_sum(eq, lag_at, upper_offset, window, exact_period):
    if exact_period is not None:
        max_back = max(int(lag_at(n)) for n in range(exact_period))
        start = ((max_back // exact_period) + 1) * exact_period
        ns = np.arange(start, start + exact_period, dtype=np.int64)
        exact = True
    else:
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
        exact = False
    max_back = max(int(lag_at(int(n))) for n in ns)
    lo = max(0, int(ns.min()) - max_back)
    hi = int(ns.max()) + upper_offset
    if hi < lo:
        return 0.0, exact
    agg = eq.coeff_table(lo, hi).sum(axis=0)
    prefix = np.concatenate([[0.0], np.cumsum(agg)])

    def cumrange(a, b):
        a = max(a, lo)
        if b < a:
            return 0.0
        return float(prefix[b - lo + 1] - prefix[a - lo])

    best = -math.inf
    for n in ns:
        n = int(n)
        best = max(best, cumrange(n - int(lag_at(n)), n + upper_offset))
    return best, exact


def _ref_abs_aggregate_prefix(eq, lo, hi):
    if hi < lo:
        return np.zeros(1)
    absagg = np.abs(eq.coeff_table(lo, hi)).sum(axis=0)
    return np.concatenate([[0.0], np.cumsum(absagg)])


def _ref_theorem5_lhs_rhs(eq, I, g_override, window):
    delays = dict(zip(I, g_override))  # g_override[i] belongs to I[i]
    I = sorted(delays)
    # a general coefficient anywhere (not only in I) forces the window strip
    period = _ref_period(eq, [eq.terms[l].delay for l in I] + list(g_override))
    if period is not None:
        depth = 0
        for n in range(period):
            for l in I:
                depth = max(depth, eq.terms[l].delay.lag_at(n), delays[l].lag_at(n))
        start = ((depth // period) + 1) * period
        ns = np.arange(start, start + period, dtype=np.int64)
    else:
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
    depth = 0
    for n in ns[: min(len(ns), 8192)]:
        for l in I:
            depth = max(depth, eq.terms[l].delay.lag_at(int(n)), delays[l].lag_at(int(n)))
    lo = max(0, int(ns.min()) - depth)
    hi = int(ns.max())
    prefix = _ref_abs_aggregate_prefix(eq, lo, hi)
    table = eq.coeff_table(int(ns.min()), int(ns.max()))
    off = int(ns.min())
    lhs = np.zeros(len(ns))
    rhs = np.zeros(len(ns))
    for j, n in enumerate(ns):
        n = int(n)
        for l in range(eq.m):
            coeff = table[l, n - off]
            if l in delays:
                h = n - eq.terms[l].delay.lag_at(n)
                g = n - delays[l].lag_at(n)
                a, b = min(h, g), max(h, g)
                a = max(a, lo)
                gap = float(prefix[b - lo] - prefix[a - lo]) if b > a else 0.0
                lhs[j] += abs(coeff) * gap
                rhs[j] += coeff
            else:
                lhs[j] += abs(coeff)
    return lhs, rhs, ns


def _ref_strip(eq, window):
    period = _ref_period(eq, [t.delay for t in eq.terms])
    if period is not None:
        depth = max(max(t.delay.lag_at(n) for t in eq.terms) for n in range(period))
        start = ((depth // period) + 1) * period
        ns = np.arange(start, start + period, dtype=np.int64)
    else:
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
    depth = max(max(t.delay.lag_at(int(n)) for t in eq.terms) for n in ns[: min(len(ns), 8192)])
    return ns, max(0, int(ns.min()) - depth)


def _ref_corollary7_gamma(eq, window):
    ns, lo = _ref_strip(eq, window)
    prefix = _ref_abs_aggregate_prefix(eq, lo, int(ns.max()))
    table = eq.coeff_table(int(ns.min()), int(ns.max()))
    off = int(ns.min())
    gamma = 0.0
    for n in ns:
        n = int(n)
        lhs = 0.0
        rhs = 0.0
        for l in range(eq.m):
            h = max(n - eq.terms[l].delay.lag_at(n), lo)
            gap = float(prefix[n - 1 - lo] - prefix[h - lo]) if n - 2 >= h else 0.0
            lhs += abs(table[l, n - off]) * gap
            rhs += table[l, n - off]
        gamma = max(gamma, lhs / rhs)
    return gamma


def _ref_corollary8_gamma(eq, window):
    ns, lo = _ref_strip(eq, window)
    prefix = _ref_abs_aggregate_prefix(eq, lo, int(ns.max()))
    table = eq.coeff_table(int(ns.min()), int(ns.max()))
    off = int(ns.min())
    gamma = 0.0
    for n in ns:
        n = int(n)
        g = n - eq.terms[0].delay.lag_at(n)
        h = n - eq.terms[1].delay.lag_at(n)
        a, b = min(g, h), max(g, h)
        a = max(a, lo)
        gap = float(prefix[b - lo] - prefix[a - lo]) if b > a else 0.0
        av = table[0, n - off]
        sv = av + table[1, n - off]
        gamma = max(gamma, abs(av) * gap / sv)
    return gamma


def _ref_pi_half_diagnostic(eq, window, period):
    if period is not None:
        depth = max(max(t.delay.lag_at(n) for t in eq.terms) for n in range(period))
        start = ((depth // period) + 1) * period
        ns = np.arange(start, start + period, dtype=np.int64)
        exact = True
    else:
        ns = np.arange(window[0], window[1] + 1, dtype=np.int64)
        exact = False
    depth = max(max(t.delay.lag_at(int(n)) for t in eq.terms) for n in ns[: min(len(ns), 8192)])
    lo = max(0, int(ns.min()) - depth)
    hi = int(ns.max()) - 1
    if hi < lo:
        return 0.0, exact
    table = np.abs(eq.coeff_table(lo, hi))
    prefixes = [np.concatenate([[0.0], np.cumsum(table[l])]) for l in range(eq.m)]
    best = 0.0
    for n in ns:
        n = int(n)
        total = 0.0
        for l in range(eq.m):
            h = max(n - eq.terms[l].delay.lag_at(n), lo)
            if n - 1 >= h:
                total += float(prefixes[l][n - lo] - prefixes[l][h - lo])
        best = max(best, total)
    return best, exact


def _ref_limsup_ratio(eq, I, window):
    out = [l for l in range(eq.m) if l not in I]
    period = aggregate_period(eq)
    n0 = window[0]
    if period is not None:
        n1, exact = n0 + period - 1, True
    else:
        n1, exact = window[1], False
    table = eq.coeff_table(n0, n1)
    den = sum(table[l] for l in I)
    if not out:
        return 0.0, exact
    num = sum(np.abs(table[l]) for l in out)
    worst = 0.0
    for nv, dv in zip(num, den):
        if dv <= 0.0:
            if nv > 0.0:
                return math.inf, exact
            continue
        worst = max(worst, nv / dv)
    return worst, exact


def _amount(lo, hi):
    return st.integers(lo, hi).map(lambda k: f"{k / 100:.2f}")


def _coefficients(lo, hi):
    """Constant, periodic and general (sin/cos) coefficients in [lo, hi]/100."""
    constant = _amount(lo, hi)
    periodic = st.lists(_amount(lo, hi), min_size=2, max_size=4).map(
        lambda vs: "per(" + ", ".join(vs) + ")")
    general = st.tuples(st.integers(lo + 2, hi - 2), st.sampled_from(["sin", "cos"]),
                        st.sampled_from(["n", "2*n", "n/3"])).map(
        lambda t: f"{t[0] / 100:.2f} + 0.02*{t[1]}({t[2]})")
    return st.one_of(constant, periodic, general)


def _delays(min_lag=0):
    constant = st.integers(min_lag, 6).map(DelaySpec.constant)
    periodic = st.lists(st.integers(min_lag, 6), min_size=2, max_size=4).map(DelaySpec.periodic)
    return st.one_of(constant, periodic)


def _equations(lo=-30, hi=30, min_lag=0, m=(1, 3)):
    term = st.builds(lambda c, d: Term(parse(c), d), _coefficients(lo, hi), _delays(min_lag))
    return st.lists(term, min_size=m[0], max_size=m[1]).map(validate)


WINDOW_LENGTHS = st.sampled_from([0, 1, 7, 60, 250])
STRIP_SETTINGS = settings(max_examples=60, deadline=None)


def _window(eq, length):
    return (10 * eq.T, 10 * eq.T + length)


@st.composite
def _picks(draw, overrides=False):
    """(eq, picked terms) or, with ``overrides``, (eq, I, g_override)."""
    eq = draw(_equations())
    picked = draw(st.lists(st.integers(0, eq.m - 1), min_size=1, max_size=eq.m, unique=True))
    if not overrides:
        return eq, picked
    return eq, picked, draw(st.lists(_delays(), min_size=len(picked), max_size=len(picked)))


# Every strip property runs these two: a general coefficient puts the strip
# on the window; a periodic equation whose picked delays leave out a lag
# table of period 5 puts it on one exact period of 6, not of 30.
GENERAL = validate([Term(parse("0.05 + 0.02*sin(n)"), DelaySpec.periodic([1, 3])),
                    Term(parse("per(0.03, 0.06)"), DelaySpec.constant(2))])
PERIODIC = validate([Term(parse("per(0.03, 0.06)"), DelaySpec.periodic([1, 4, 2])),
                     Term(parse("0.04"), DelaySpec.periodic([2, 1, 3, 1, 1]))])


@STRIP_SETTINGS
@given(case=_picks(), length=WINDOW_LENGTHS)
@example(case=(GENERAL, [0, 1]), length=60)
@example(case=(PERIODIC, [0]), length=60)
def test_windowed_delayed_sum_matches_reference(case, length):
    eq, picked = case
    window = _window(eq, length)
    delays = [eq.terms[l].delay for l in picked]

    def deepest(n):
        return max(d.lag_at(n) for d in delays)

    period = _ref_period(eq, delays)
    for upper in (-1, 0):
        est = windowed_delayed_sum(eq, delays, upper, window)
        ref = _ref_windowed_delayed_sum(eq, deepest, upper, window, period)
        assert (est.value, est.exact) == ref


@STRIP_SETTINGS
@given(case=_picks(overrides=True), length=WINDOW_LENGTHS)
@example(case=(GENERAL, [0], [DelaySpec.periodic([2, 0])]), length=60)
@example(case=(PERIODIC, [0], [DelaySpec.periodic([1, 2])]), length=60)
def test_theorem5_lhs_rhs_matches_reference(case, length):
    eq, I, g_override = case
    window = _window(eq, length)
    lhs, rhs, strip = criteria.theorem5_lhs_rhs(eq, I, g_override, window)
    got = lhs, rhs, strip.ns
    ref = _ref_theorem5_lhs_rhs(eq, I, g_override, window)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@STRIP_SETTINGS
@given(eq=_equations(lo=1, hi=8, min_lag=1), length=WINDOW_LENGTHS)
@example(eq=GENERAL, length=60)
@example(eq=PERIODIC, length=60)
def test_corollary7_gamma_matches_reference(eq, length):
    window = _window(eq, length)
    v = criteria.check_corollary7(eq, window)
    assert v.witnesses["gamma_min"] == _ref_corollary7_gamma(eq, window)


@STRIP_SETTINGS
@given(eq=_equations(lo=-10, hi=24, m=(2, 2)), length=WINDOW_LENGTHS)
@example(eq=GENERAL, length=60)
@example(eq=PERIODIC, length=60)
def test_corollary8_part2_gamma_matches_reference(eq, length):
    window = _window(eq, length)
    v = criteria.check_corollary8(eq, 2, window)
    if "gamma_min" in v.witnesses:
        assert v.witnesses["gamma_min"] == _ref_corollary8_gamma(eq, window)


@STRIP_SETTINGS
@given(eq=_equations(), length=WINDOW_LENGTHS)
@example(eq=GENERAL, length=60)
@example(eq=PERIODIC, length=60)
def test_pi_half_diagnostic_matches_reference(eq, length):
    window = _window(eq, length)
    est = criteria._pi_half_diagnostic(eq, window)
    period = _ref_period(eq, [t.delay for t in eq.terms])
    assert (est.value, est.exact) == _ref_pi_half_diagnostic(eq, window, period)


@STRIP_SETTINGS
@given(eq=_equations(), length=WINDOW_LENGTHS, data=st.data())
def test_limsup_ratio_matches_reference(eq, length, data):
    window = _window(eq, length)
    I = data.draw(st.lists(st.integers(0, eq.m - 1), min_size=1, max_size=eq.m, unique=True))
    assert criteria._limsup_ratio(eq, I, window) == _ref_limsup_ratio(eq, I, window)


def test_strip_depth_sees_lags_past_8192_samples():
    # the one deep lag sits 8,500 points into a windowed strip and reaches
    # 500 points below its start; the depth must come from the whole strip
    # (a general coefficient, so the strip is the window; it is 0.01 there)
    lags = [1] * 8500 + [9000] + [1] * 999
    eq = validate([Term(parse("splice(1, 0.02, 0.01)"), DelaySpec.periodic(lags))])
    window = (10 * len(lags), 10 * len(lags) + 9000)
    diag = criteria._pi_half_diagnostic(eq, window)
    assert diag.value == pytest.approx(9000 * 0.01)
    lhs, _, _ = criteria.theorem5_lhs_rhs(eq, [0], [DelaySpec.constant(1)], window)
    assert lhs.max() == pytest.approx(0.01 * 8999 * 0.01)


# ---------------------------------------------------------------------------
# The sliding-window limsup_product the running product replaced, kept
# verbatim as the reference: every p-step maximum must agree exactly.


def _ref_limsup_product(eq, p, window=None):
    """limsup over n of prod_{j=n}^{n+p-1} (1 - sum_l a_l(j))."""
    if p < 1:
        raise ValueError("p must be positive")
    window = window or default_window(eq)
    rows, exact = coeff_span(eq, window, extra=p - 1)
    factors = 1.0 - np.stack(rows).sum(axis=0)
    products = np.lib.stride_tricks.sliding_window_view(factors, p).prod(axis=1)
    return AsymptoticEstimate(float(products.max()), exact)


def _ref_products(eq, window):
    """Every product the rate search reads: the sliding-window maximum at
    each of ``P_CANDIDATES``, and on an exact span whose period P is not
    among them one period's product from the window start, unless it
    underflowed on positive factors."""
    ps = criteria.P_CANDIDATES
    want = {p: _ref_limsup_product(eq, p, window) for p in ps}
    rows, exact = coeff_span(eq, window)
    factors = 1.0 - np.stack(rows).sum(axis=0)
    b = float(np.prod(factors))
    if exact and len(factors) not in ps and (b >= np.finfo(float).tiny or min(factors) <= 0):
        want[len(factors)] = AsymptoticEstimate(b, True)
    return want


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=24),
       general=st.booleans())
def test_running_products_match_sliding_windows(values, general):
    # one periodic row of random factors 1 - a(n), or the same row plus a
    # general term, which makes the span the whole window
    terms = [Term(parse(f"per({', '.join(map(repr, values))})"), DelaySpec.constant(1))]
    if general:
        terms.append(Term(parse("0.01*sin(n)"), DelaySpec.constant(2)))
    eq = validate(terms)
    window = (10 * eq.T, 10 * eq.T + 300)
    got = limsup_products(eq, criteria.P_CANDIDATES, window)  # what the rate stage reads
    assert got == _ref_products(eq, window)
    for p in criteria.P_CANDIDATES:
        assert limsup_product(eq, p, window) == got[p]


@pytest.mark.parametrize("tables", [[5], [7], [10], [5, 7]], ids=["P5", "P7", "P10", "P35"])
def test_a_period_past_the_candidates_is_one_periods_product(tables):
    # exact spans whose period is no candidate: P's key is the product of
    # the window's first period, bit for bit, next to the sliding windows
    rng = np.random.default_rng(len(tables) * 100 + tables[0])
    eq = validate([Term(parse(f"per({', '.join(map(repr, rng.uniform(0, 0.3, k).tolist()))})"),
                        DelaySpec.constant(l)) for l, k in enumerate(tables)])
    period = math.prod(tables)
    assert aggregate_period(eq) == period and period not in criteria.P_CANDIDATES
    for start in (3, 10 * eq.T + 1, 1234):
        window = (start, start + 500)
        got = limsup_products(eq, criteria.P_CANDIDATES, window)
        factors = 1.0 - eq.coeff_table(start, start + period - 1).sum(axis=0)
        assert got[period] == AsymptoticEstimate(float(np.prod(factors)), True)
        assert got == _ref_products(eq, window)


def test_an_underflowed_period_product_is_no_rate():
    # per(0.99 x k, 0.5) at lag 0: the period's product 0.5 * 0.01^k is
    # subnormal at k = 160 and 0 at k = 162, both below its true value, so
    # only the candidates are offered; a factor 0 makes a zero product true
    for k in (160, 162):
        eq = validate([Term(parse("per(" + "0.99, " * k + "0.5)"), DelaySpec.constant(0))])
        assert sorted(limsup_products(eq, criteria.P_CANDIDATES)) == list(criteria.P_CANDIDATES)
    eq = validate([Term(parse("per(1, " + "0.5, " * 199 + "0.5)"), DelaySpec.constant(0))])
    assert limsup_products(eq, criteria.P_CANDIDATES)[201] == AsymptoticEstimate(0.0, True)


@pytest.mark.parametrize("ps", [[0, 2], [-1]])
def test_product_horizons_must_be_positive(eq_sin_cos, ps):
    with pytest.raises(ValueError, match=r"^p must be positive$"):
        limsup_products(eq_sin_cos, ps)


def test_best_product_horizons_match_sliding_windows_on_goldens(monkeypatch):
    from test_golden import CONFIGS
    from delaystab import limits

    calls = []
    plain = limits.limsup_products

    def recording(eq, ps, window=None):
        calls.append((eq, ps, window))
        return plain(eq, ps, window)

    monkeypatch.setattr(limits, "limsup_products", recording)
    for config in CONFIGS.values():
        window = config.get("window")
        criteria.run_all(config_to_equation(config), window and tuple(window))
    monkeypatch.undo()
    assert len(calls) >= 100
    for eq, ps, window in calls:
        assert ps == criteria.P_CANDIDATES
        assert limsup_products(eq, ps, window) == _ref_products(eq, window)
