import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaystab import (
    DelaySpec,
    KernelMemoryError,
    Outcome,
    Term,
    parse,
    run_all,
    stable_verdicts,
    validate,
)
from delaystab import _kernels, criteria, limits, seqexpr
from delaystab.criteria import (
    CLAIM_POSITIVE,
    SCAN_LEAD_MULT,
    SCAN_LEN,
    PositivityCertificate,
    PositivityRefutation,
    certify_positivity,
    check_classical,
    check_corollary2,
    check_corollary3,
    check_corollary4,
    check_corollary6,
    check_corollary7,
    check_corollary8,
    check_corollary9,
    check_corollary10,
    check_corollary_theorem5,
    check_lemma4,
    check_theorem1,
    check_theorem2,
    positivity_scan,
    scan_window,
    theorem5_lhs_rhs,
    _char_root,
)
from delaystab.equation import merge_same_delay
from delaystab.fixtures import FIXTURE_CONFIGS, config_to_equation
from delaystab.oracle import exact_stable, random_equation
from delaystab.simulator import kernel


def const_eq(*pairs):
    return validate([Term(parse(str(a)), DelaySpec.constant(lag)) for a, lag in pairs])


# --- positivity


def test_positivity_scan_factorial(eq_factorial):
    cert = positivity_scan(eq_factorial, (0, 100))
    assert cert == PositivityCertificate(0, 100, "numerical_scan")


def test_positivity_scan_unbounded_is_positive(eq_unbounded):
    cert = positivity_scan(eq_unbounded, (0, 60))
    assert isinstance(cert, PositivityCertificate)  # positive but growing


def test_positivity_scan_refutation():
    eq = const_eq((1.5, 0))
    ref = positivity_scan(eq, (0, 50))
    assert isinstance(ref, PositivityRefutation)
    assert ref.value == pytest.approx(-0.5)
    assert ref.n == ref.k + 1


def test_certify_positivity_routes():
    assert certify_positivity(const_eq((0.1, 2))).by == "lemma4"
    assert certify_positivity(const_eq((0.24, 1))).by == "lemma4"
    # windowed sum 2 * 0.13 > 1/4 but the sharp autonomous bound works
    assert certify_positivity(const_eq((0.13, 2))).by == "autonomous_bound"
    # two terms pass the characteristic-root route when lemma4 fails
    eq = const_eq((0.14, 1), (0.02, 2))
    assert certify_positivity(eq).by in ("lemma4", "corollary3_characteristic")
    ref = certify_positivity(const_eq((1.5, 0)))
    assert isinstance(ref, PositivityRefutation)


@pytest.mark.parametrize("autonomous", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_certify_positivity_reuses_checker_hypotheses(seed, autonomous):
    from delaystab.equation import merge_same_delay
    from delaystab.oracle import random_equation

    eq = random_equation(seed, m_max=2, T_max=3, K_max=0.4, autonomous=autonomous)
    by = getattr(certify_positivity(eq), "by", "refuted")
    merged = merge_same_delay(eq)
    pre = check_lemma4(merged)
    assert (by == "lemma4") == (pre.outcome is Outcome.STABLE and not pre.window_certified)
    if by in ("autonomous_bound", "corollary3_characteristic"):
        # corollary 3 found a root (or the sharp bound) exactly
        v = check_corollary3(merged)
        assert "part" in v.witnesses and not v.window_certified


def test_certify_positivity_window_estimates_fall_back_to_scan():
    # lemma 4 holds on the window for a general coefficient, but only as an
    # estimate, so positivity comes from the kernel scan
    eq = validate([Term(parse("0.1 + 0.01*sin(n)"), DelaySpec.constant(1))])
    pre = check_lemma4(eq)
    assert pre.outcome is Outcome.STABLE and pre.window_certified
    assert certify_positivity(eq).by == "numerical_scan"


def test_certify_positivity_merges_same_delay():
    eq = validate([
        Term(parse("per(-0.12, -0.05)"), DelaySpec.periodic([3, 5])),
        Term(parse("per(0.17, 0.08)"), DelaySpec.periodic([3, 5])),
    ])
    cert = certify_positivity(eq)
    assert isinstance(cert, PositivityCertificate)


# The dense-table scan and certify_positivity's underflow rescan that the
# row-streamed scan replaced, kept verbatim as the reference it must match.


def _reference_scan(eq, n0, N):
    """Tabulate X on [n0, N] and return a window certificate or the first
    nonpositive entry (scanning n outward, then k)."""
    if N - n0 < 5 * eq.T:
        raise ValueError(f"scan window must span at least 5T = {5 * eq.T}")
    table = kernel(eq, n0, N).values
    size = N - n0 + 1
    rows, cols = np.tril_indices(size)
    values = table[rows, cols]
    bad = values <= 0.0
    if bad.any():
        at = int(np.argmax(bad))
        return PositivityRefutation(n0 + int(rows[at]), n0 + int(cols[at]), float(values[at]))
    return PositivityCertificate(n0, N, "numerical_scan")


def _reference_certify(eq, window=None):
    """Try analytic positivity routes, then fall back to a kernel scan.

    Terms sharing a lag table are merged first so sign hypotheses apply to
    the effective coefficients.
    """
    merged = merge_same_delay(eq)
    pre = check_lemma4(merged, window)
    if pre.outcome is Outcome.STABLE and not pre.window_certified:
        return PositivityCertificate(0, -1, "lemma4")
    if pre.outcome is not Outcome.NOT_APPLICABLE:
        _, part1, part2, exact = _char_root(merged, pre.window)
        if exact and part2:
            return PositivityCertificate(0, -1, "autonomous_bound")
        if exact and part1:
            return PositivityCertificate(0, -1, "corollary3_characteristic")
    return _reference_window(eq, *_scan_window(eq.T, max(t.coeff.cutoff for t in eq.terms)))


def _scan_window(T, cutoff=0):
    """The scan window of lag T, from 5 T or from a later splice cutoff."""
    n0 = max(SCAN_LEAD_MULT * T, cutoff)
    return n0, n0 + max(SCAN_LEN, 10 * max(T, 1))


def _reference_window(eq, n0, N):
    """The dense scan on [n0, N] with the underflow rescan."""
    result = _reference_scan(eq, n0, N)
    if (isinstance(result, PositivityRefutation) and result.value == 0.0
            and result.n - n0 > 5 * eq.T + 20):
        # an exact zero that deep is a rapidly decaying kernel underflowing;
        # certify the numerically representable region instead
        result = _reference_scan(eq, n0, result.n - 1)
    return result


def _positivity_calls(eq, monkeypatch, window=None):
    """Every equation and window whose positivity run_all asks for: each
    set the positivity pass answers and each certify_positivity call."""
    seen = []
    certify, answer = criteria.certify_positivity, criteria._positivity_pass

    def recording(eq, window=None):
        seen.append((eq, window))
        return certify(eq, window)

    def asking(eq, window, sets, gated=()):
        answers = answer(eq, window, sets, gated)
        seen.extend((criteria.subset_equation(eq, I), window) for I in answers)
        return answers

    monkeypatch.setattr(criteria, "certify_positivity", recording)
    monkeypatch.setattr(criteria, "_positivity_pass", asking)
    run_all(eq, window)
    monkeypatch.undo()
    return seen


def _general_runs():
    """(equation, window) of the golden corpus's sin/cos configs, of the
    fixtures with general coefficients, and of general terms on one lag
    whose values sum to 0: sin(n) and -sin(n) merge to a general sum, so
    that equation goes straight to the scan, as its terms do."""
    from test_golden import GENERATED

    configs = [cfg for name, cfg in GENERATED.items() if not name.startswith("random_")]
    configs += [FIXTURE_CONFIGS[name] for name in
                ("two_delay_sin_cos", "factorial_kernel", "vanishing_coefficient")]
    runs = [(config_to_equation(cfg), tuple(cfg["window"]) if "window" in cfg else None)
            for cfg in configs]
    return runs + [(const_eq(("sin(n)", 2), ("-sin(n)", 2), (0.1, 1)), None)]


@pytest.mark.parametrize("corpus", ["periodic", "autonomous", "general"])
def test_streamed_scan_matches_dense_reference(corpus, monkeypatch):
    # the two generators of perfbench's check_periodic corpus, and general
    # coefficients, where the analytic routes are skipped
    if corpus == "general":
        runs = _general_runs()
    else:
        kw = (dict(m_max=3, T_max=4, K_max=1.0, autonomous=True) if corpus == "autonomous"
              else dict(m_max=3, T_max=5, K_max=0.8))
        runs = [(random_equation(seed, **kw), None) for seed in range(25)]
    kinds = set()
    for run_eq, run_window in runs:
        for eq, window in _positivity_calls(run_eq, monkeypatch, run_window):
            want = _reference_certify(eq, window)
            assert certify_positivity(eq, window) == want
            kinds.add(getattr(want, "by", "refuted"))
    assert {"numerical_scan", "refuted"} <= kinds
    if corpus == "general":
        assert "lemma4" in kinds


def test_general_coefficients_skip_the_analytic_routes(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("analytic route tried on a general coefficient")

    monkeypatch.setattr(criteria, "check_lemma4", refuse)
    monkeypatch.setattr(criteria, "_char_root", refuse)
    assert certify_positivity(const_eq(("0.1 + 0.02*sin(n)", 1))).by == "numerical_scan"


def test_streamed_scan_certifies_rows_before_underflow():
    # X(n+1) = 1e-9 (1.5 + sin n) X(n) underflows to an exact zero at row 37
    eq = const_eq(("1 - 1e-9*(1.5 + sin(n))", 0))
    cert = certify_positivity(eq)
    assert isinstance(cert, PositivityCertificate) and cert.N == 36
    assert cert == _reference_certify(eq)
    assert positivity_scan(eq, (0, 200)) == cert


def test_streamed_scan_refutation_matches_dense_reference():
    eq = const_eq((0.3, 2), (0.4, 1), ("-0.1*alt(n)", 0))
    ref = positivity_scan(eq, (10, 210))
    assert isinstance(ref, PositivityRefutation)
    assert ref == _reference_scan(eq, 10, 210)


def test_positivity_scan_caps_its_ring():
    # lag 4000 over [20000, 60000] needs 4,002 ring rows of 40,001 entries;
    # the cap refuses them before the scan allocates its block of rows
    eq = const_eq((0.0001, 4000))
    tracemalloc.start()
    try:
        with pytest.raises(KernelMemoryError):
            positivity_scan(eq, (20_000, 60_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _kernels.BLOCK * 40_001 * 8


def test_scan_refutes_an_overflowing_kernel():
    # the kernel grows like 1e20^n, overflows to inf and then turns nan;
    # the dense scan let the nan through and certified it
    eq = const_eq((0.001, 1), (-1e20, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = positivity_scan(eq, (5, 205))
        assert isinstance(certify_positivity(eq), PositivityRefutation)
    assert isinstance(ref, PositivityRefutation)
    assert not math.isfinite(ref.value)


def _no_tables(monkeypatch):
    from delaystab.equation import Equation

    def refuse(self, n0, n1):
        raise AssertionError(f"table on [{n0}, {n1}] built past the kernel cap")

    monkeypatch.setattr(Equation, "coeff_table", refuse)
    monkeypatch.setattr(Equation, "lag_table", refuse)


def test_positivity_scan_refuses_the_cap_before_its_tables(monkeypatch):
    eq = const_eq((0.0001, 4000))
    _no_tables(monkeypatch)
    with pytest.raises(KernelMemoryError, match=r"\(cap 100000000\)"):
        positivity_scan(eq, (20_000, 60_000))


def test_the_lag_4000_scan_names_the_ring_it_refuses():
    # the cap counts max lag + 2 rows, not the ring rounded up to a block
    eq = const_eq(("0.0001*(1 + 0.5*sin(n))", 4000))
    with pytest.raises(KernelMemoryError,
                       match=r"^kernel rows need 160084002 entries \(cap 100000000\)$"):
        positivity_scan(eq, scan_window(eq))


def _scanned(eq, window):
    """positivity_scan's result and the kernel entry points it read."""
    paths = set()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("kernel_rows", "kernel_columns"):
            def recording(*args, _name=name, _kernel=getattr(_kernels, name)):
                paths.add(_name)
                return _kernel(*args)
            mp.setattr(_kernels, name, recording)
        return positivity_scan(eq, window), paths


def _scan_period(eq):
    return limits.exact_period(eq, [t.delay for t in eq.terms])


@pytest.mark.parametrize("corpus", ["periodic", "autonomous"])
def test_column_scan_matches_dense_reference(corpus):
    # perfbench's check_periodic generators, on windows whose start is no
    # multiple of the period, among them windows shorter than the period
    kw = (dict(m_max=3, T_max=4, K_max=1.0, autonomous=True) if corpus == "autonomous"
          else dict(m_max=3, T_max=5, K_max=0.8))
    kinds, periods = set(), set()
    for seed in range(40):
        eq = random_equation(seed, **kw)
        periods.add(_scan_period(eq))
        for n0 in (1, 5 * eq.T + 1, 7):
            for N in (n0 + max(5 * eq.T, 1), n0 + 200):
                got, paths = _scanned(eq, (n0, N))
                want = _reference_window(eq, n0, N)
                assert got == want
                assert paths == {"kernel_columns"}
                kinds.add(type(want).__name__)
    assert kinds == {"PositivityCertificate", "PositivityRefutation"}
    assert max(periods) > 1 if corpus == "periodic" else periods == {1}


def _per_eq(values, lag=1):
    return const_eq(("0.01*per(" + ", ".join(map(str, values)) + ")", lag))


@pytest.mark.parametrize("extra", [0, 1])
def test_column_scan_runs_up_to_its_period_bound(extra):
    # P at SCAN_COLUMN_PERIOD steps columns, one above it streams rows
    P = criteria.SCAN_COLUMN_PERIOD + extra
    kinds = set()
    for values in (range(1, P + 1), [1] * (P - 1) + [200]):
        eq = _per_eq(values)
        assert _scan_period(eq) == P
        for window in ((3, 203), (2, 9)):
            got, paths = _scanned(eq, window)
            assert got == _reference_window(eq, *window)
            assert paths == {"kernel_rows" if extra else "kernel_columns"}
            kinds.add(type(got).__name__)
    assert kinds == {"PositivityCertificate", "PositivityRefutation"}


def test_column_scan_past_a_block_finds_each_diagonal(monkeypatch):
    # with the bound at 40, the stream's 32-row block from row 32 still
    # reaches past diagonals, wider than BLOCK; indices find them there too
    monkeypatch.setattr(criteria, "SCAN_COLUMN_PERIOD", 40)
    for values in ([1] * 39 + [2], [1] * 39 + [200]):
        eq = _per_eq(values)
        for window in ((3, 203), (2, 9)):
            got, paths = _scanned(eq, window)
            assert got == _reference_window(eq, *window)
            assert paths == {"kernel_columns"}


def test_column_scan_period_past_the_window():
    # P = 12 > the 8 rows of [3, 10]: every column is stepped
    eq = _per_eq(range(1, 13))
    for window in ((3, 10), (0, 5)):
        cert = positivity_scan(eq, window)
        assert isinstance(cert, PositivityCertificate)
        assert cert == _reference_window(eq, *window)
    # a(8) = 1.5 turns every column k <= 8 negative at n = 9
    eq = _per_eq([10] * 8 + [150] + [10] * 3, 0)
    ref = positivity_scan(eq, (3, 10))
    assert isinstance(ref, PositivityRefutation) and (ref.n, ref.k) == (9, 3)
    assert ref == _reference_scan(eq, 3, 10)


def test_column_scan_ties_go_to_the_smaller_k():
    # X(n+1, k) = (1 - a(n)) X(n, k) with a = 0.5, 1.5, ...: column 0 turns
    # negative at n = 2 after one good step, column 1 at once, also at n = 2
    eq = const_eq(("per(0.5, 1.5)", 0))
    ref = positivity_scan(eq, (0, 50))
    assert (ref.n, ref.k, ref.value) == (2, 0, -0.25)
    assert ref == _reference_scan(eq, 0, 50)


def test_column_scan_certifies_rows_before_underflow():
    # X(n+1) = 1e-9 per(1.5, 2.5) X(n) underflows to an exact zero
    eq = const_eq(("1 - 1e-9*per(1.5, 2.5)", 0))
    for n0 in (0, 3):
        cert, paths = _scanned(eq, (n0, n0 + 200))
        assert isinstance(cert, PositivityCertificate) and n0 + 30 < cert.N < n0 + 200
        assert cert == _reference_window(eq, n0, n0 + 200)
        assert paths == {"kernel_columns"}
    # an exact zero right away is no underflow: it refutes
    ref, paths = _scanned(const_eq((1, 0)), (4, 204))
    assert (ref.n, ref.k, ref.value) == (5, 4, 0.0) and paths == {"kernel_columns"}


def test_periodic_scans_read_no_kernel_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel_rows read on a periodic scan")

    monkeypatch.setattr(_kernels, "kernel_rows", refuse)
    for eq in (const_eq((0.1, 2), ("0.05*alt(n)", 1)), _per_eq([1, 2, 3], 4)):
        assert isinstance(positivity_scan(eq, scan_window(eq)), PositivityCertificate)
    with pytest.raises(AssertionError, match="kernel_rows"):
        positivity_scan(const_eq(("0.1 + 0.01*sin(n)", 1)), (5, 205))


def _general_scan_cases(n0):
    return {
        # a(n0 + 194) = 2 flips every column at n0 + 195, in the last block
        "refuted_in_last_block": const_eq((f"splice({n0 + 194}, 0.01, 2)", 0),
                                          ("0.001*(1 + sin(n))", 3)),
        # X(n+1) = 1e-9 (1.5 + 0.5 sin(n)) X(n) underflows to an exact zero
        "underflow": const_eq(("1 - 1e-9*(1.5 + 0.5*sin(n))", 0)),
        "certified": const_eq(("0.02 + 0.01*sin(n)", 2), ("0.01*(1 + cos(n))", 3)),
        "refuted_early": const_eq(("0.3 + 0.2*sin(n)", 4), ("0.1*cos(n)", 1)),
    }


def test_row_scan_matches_dense_reference_on_general_coefficients():
    # general coefficients take the row scan: blocks of BLOCK rows
    # checked in place, the last block partial on a 201-row window; at
    # n0 = 0 and 1 the underflow row holds an entry below every row above it
    for n0 in (0, 1, 15):
        for name, eq in _general_scan_cases(n0).items():
            got, paths = _scanned(eq, (n0, n0 + 200))
            assert got == _reference_window(eq, n0, n0 + 200)
            assert paths == {"kernel_rows"}, name
        cases = _general_scan_cases(n0)
        got = positivity_scan(cases["refuted_in_last_block"], (n0, n0 + 200))
        assert (got.n, got.k) == (n0 + 195, n0) and got.value < 0.0
        got = positivity_scan(cases["underflow"], (n0, n0 + 200))
        assert isinstance(got, PositivityCertificate) and n0 + 30 < got.N < n0 + 200
    # a window of one row: X(n0, n0) = 1
    eq = const_eq(("0.1 + 0.01*sin(n)", 0))
    got, paths = _scanned(eq, (5, 5))
    assert got == PositivityCertificate(5, 5, "numerical_scan")
    assert got == _reference_scan(eq, 5, 5)
    assert paths == {"kernel_rows"}


def test_a_scan_whose_block_ring_would_pass_the_cap_reads_single_rows(monkeypatch):
    # max lag + 2 rows fit the cap, the ring rounded up to BLOCK rows
    # would not: the scan reads one row at a time, with the same result
    for name, eq in _general_scan_cases(0).items():
        want = positivity_scan(eq, (0, 200))
        depth = criteria._ring_depth([t.delay for t in eq.terms], 0, 199)
        assert depth % _kernels.BLOCK, name
        monkeypatch.setattr(_kernels, "MAX_ENTRIES", depth * 201)
        assert positivity_scan(eq, (0, 200)) == want
        monkeypatch.undo()


def test_ring_depth_is_the_depth_kernel_rows_takes():
    # the deepest lag the window's tables hold, plus 2: a lag table longer
    # than the window may miss its deepest lag, an empty window holds none
    rng = np.random.default_rng(0)
    for _ in range(200):
        delays = [DelaySpec.periodic(rng.integers(0, 50, int(rng.integers(1, 30))))
                  for _ in range(int(rng.integers(1, 4)))]
        n0 = int(rng.integers(0, 100))
        n1 = n0 + int(rng.integers(-1, 40))
        table = np.stack([d.lag_range(n0, n1) for d in delays])
        assert criteria._ring_depth(delays, n0, n1) == int(table.max(initial=0)) + 2


# --- the positivity pass: one comparison-set stream for theorem1 and theorem2


def _pass(eq, sets, monkeypatch, window=None):
    """The positivity pass's answer for each of ``sets``, and the sets it
    left to certify_positivity, each to scan alone, in the order asked."""
    alone = []
    certify = criteria.certify_positivity

    def recording(sub, window=None):
        alone.extend(I for I in sets if criteria.subset_equation(eq, I) == sub)
        return certify(sub, window)

    with monkeypatch.context() as patch:
        patch.setattr(criteria, "certify_positivity", recording)
        answers = criteria._positivity_pass(eq, window, sets)
    return answers, alone


def _theorem2_positivity(eq, monkeypatch):
    """(subset equation, window, result) for every positivity theorem2 is
    handed inside run_all, and how many of those certificates a proper
    subset of the comparison set took from J's stream: a subset equation
    that no scan ran on."""
    seen, scanned = [], []
    check, scan = criteria.check_theorem2, criteria.positivity_scan

    def recording(eq, I, positivity, window=None):
        if positivity is not None:
            seen.append((criteria.subset_equation(eq, I), window, positivity))
        return check(eq, I, positivity, window)

    def scanning(eq, window):
        scanned.append(eq)
        return scan(eq, window)

    monkeypatch.setattr(criteria, "check_theorem2", recording)
    monkeypatch.setattr(criteria, "positivity_scan", scanning)
    run_all(eq, checks=["theorem2"])
    monkeypatch.undo()
    inherited = [got for sub, _, got in seen
                 if getattr(got, "by", None) == "numerical_scan" and sub not in scanned]
    return seen, len(inherited)


def _assert_inherits_soundly(eq, monkeypatch) -> int:
    """Each positivity theorem2 gets, inherited or not, is the subset's
    own.  Returns how many certificates were inherited."""
    seen, inherited = _theorem2_positivity(eq, monkeypatch)
    for sub, window, got in seen:
        assert got == certify_positivity(sub, window)
    return inherited


# the two generators of perfbench's check_periodic corpus
GENERATORS = {"periodic": dict(m_max=3, T_max=5, K_max=0.8),
              "autonomous": dict(m_max=3, T_max=4, K_max=1.0, autonomous=True)}


@pytest.mark.parametrize("autonomous", [False, True], ids=["periodic", "autonomous"])
def test_theorem2_inherits_only_sound_certificates(autonomous, monkeypatch):
    kw = GENERATORS["autonomous" if autonomous else "periodic"]
    inherited = sum(_assert_inherits_soundly(random_equation(seed, **kw), monkeypatch)
                    for seed in range(25))
    # every autonomous comparison set that a subset asks for refutes here
    assert autonomous or inherited > 0


@st.composite
def _trig_equations(draw):
    # laid out like perfbench's trig items: form, function, frequency and
    # lag fixed by term index, constants drawn; large totals refute
    m = draw(st.integers(2, 6))
    total = draw(st.sampled_from([0.03, 0.2, 0.6]))
    terms = []
    for l in range(m):
        a0 = total / m * draw(st.floats(0.5, 1.5))
        a1 = a0 * draw(st.floats(0.1, 0.9))
        fn = ("sin", "cos")[l % 2]
        wave = f"{fn}({1 + l % 5}*n)"
        text = [f"{a0!r} + {a1!r}*{wave}", f"{a0!r} - {a1!r}*{wave}", f"{a0!r}*abs({wave})"][l % 3]
        if l == 0:
            lag = DelaySpec.constant(1)
        elif l % 2:
            lag = DelaySpec.constant(6 - (l // 2) * 2)
        else:
            lag = DelaySpec.periodic([l // 2 - 1, 6 - l // 2])
        terms.append(Term(parse(text), lag))
    return validate(terms)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(eq=_trig_equations())
def test_theorem2_inherits_only_sound_certificates_on_trig_equations(eq, monkeypatch):
    _assert_inherits_soundly(eq, monkeypatch)


def _streams(eq, monkeypatch, checks=None):
    """The window of every positivity_scan stream run_all makes."""
    streams = []
    scan = criteria.positivity_scan

    def recording(eq, window):
        streams.append(tuple(window))
        return scan(eq, window)

    monkeypatch.setattr(criteria, "positivity_scan", recording)
    run_all(eq, checks=checks)
    monkeypatch.undo()
    return streams


def test_trig_m6_scans_each_window_once(monkeypatch):
    from test_golden import GENERATED

    eq = config_to_equation(GENERATED["sin_cos_m6"])
    streams = _streams(eq, monkeypatch, ["theorem2"])
    # 63 subsets over five scan windows (T = 1, 2, 4, 5, 6), one stream
    # over their union
    assert streams == [(5, 230)]


def test_sweep_streams_only_the_windows_that_reach_the_scan(monkeypatch):
    # ten terms 0.01 + 0.005*per(1, -1, 0) with lags cycling 1..4: the
    # analytic routes certify every set of T <= 3, so J streams once over
    # the window of T = 4, not over the union [5, 220] of all four windows
    eq = const_eq(*[("0.01 + 0.005*per(1, -1, 0)", 1 + l % 4) for l in range(10)])
    assert _streams(eq, monkeypatch, ["theorem1", "theorem2"]) == [(20, 220)]


def test_comparison_set_takes_only_the_terms_of_sets_left_to_a_scan(monkeypatch):
    # the lag-100 term turns negative at n = 500, so theorem2's sign gate
    # drops every set that keeps it; with theorem1 off the union is the one
    # window [5, 205], which could not hold that term's lag-100 ring
    eq = const_eq(("0.1 + 0.02*sin(n)", 1), ("splice(500, 0.001, -0.001)", 100))
    assert _streams(eq, monkeypatch, ["theorem2"]) == [(5, 205)]
    assert run_all(eq, checks=["theorem2"])[0].outcome is Outcome.STABLE


def test_run_all_asks_each_positivity_once(monkeypatch):
    # the full equation is no longer scanned once for theorem1 and again
    # for theorem2's full set, nor corollary 8.2's (a + b) x(h_2(n)) again
    # after corollary 4 at g = h_2
    eq = config_to_equation(FIXTURE_CONFIGS["two_delay_sin_cos"])
    assert _streams(eq, monkeypatch) == [(5, 300), (100, 300), (5, 205), (100, 300),
                                         (5, 205), (100, 300)]


def _reports(eq):
    return [v.to_dict() for v in run_all(eq)]


def _each_alone(eq, window, sets, gated=()):
    # theorem2 reads no positivity of a set its sign gate refuses
    return {I: certify_positivity(criteria.subset_equation(eq, I), window)
            for I in [*sets, *gated]}


def _assert_streams_change_no_report(eq, monkeypatch):
    shared = _reports(eq)
    # sharing off: every set that reaches the scan streams on its own
    monkeypatch.setattr(criteria, "_positivity_pass", _each_alone)
    alone = _reports(eq)
    monkeypatch.undo()
    assert shared == alone


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(eq=_trig_equations())
def test_shared_streams_report_as_one_window_scans_on_trig_equations(eq, monkeypatch):
    _assert_streams_change_no_report(eq, monkeypatch)


@pytest.mark.parametrize("generator", GENERATORS)
def test_shared_streams_report_as_one_window_scans(generator, monkeypatch):
    for seed in range(25):
        _assert_streams_change_no_report(random_equation(seed, **GENERATORS[generator]),
                                         monkeypatch)


# T = 1 scans [5, 205] and T = 30 scans [150, 450]
LAGS_1_AND_30 = (("0.05 + 0.02*sin(n)", 1), ("0.002 + 0.001*cos(n)", 30))


def test_lags_1_and_30_share_one_union_stream(monkeypatch):
    eq = const_eq(*LAGS_1_AND_30)
    assert _streams(eq, monkeypatch, ["theorem1", "theorem2"]) == [(5, 450)]
    _assert_streams_change_no_report(eq, monkeypatch)


def _assert_union_scan_answers_as_each_window(eq, seed=0):
    """the scan windows of lags t for several t beside windows with arbitrary starts,
    and one stream over their union [lo, hi]: a refutation at (n, k) inside
    a window is that window's own scan, and a certificate through hi is
    each window's own scan on that window.
    Returns which kinds of union result it checked."""
    rng = np.random.default_rng(seed)
    windows = [_scan_window(t) for t in (eq.T, eq.T + 1, eq.T + 3, max(eq.T - 1, 0))]
    for _ in range(3):
        n0 = int(rng.integers(0, 60))
        windows.append((n0, n0 + 5 * eq.T + int(rng.integers(0, 200))))
    lo, hi = min(n0 for n0, _ in windows), max(N for _, N in windows)
    union = positivity_scan(eq, (lo, hi))
    through = isinstance(union, PositivityCertificate) and union.N == hi
    kinds = set() if through or isinstance(union, PositivityRefutation) else {"underflow stop"}
    for n0, N in windows:
        own = positivity_scan(eq, (n0, N))
        if through:
            assert own == PositivityCertificate(n0, N, "numerical_scan"), (n0, N, own)
            kinds.add("certified")
        elif isinstance(union, PositivityRefutation) and n0 <= union.k and union.n <= N:
            assert own == union
            kinds.add("refuted")
    return kinds


@pytest.mark.parametrize("generator", ["periodic", "autonomous", "default"])
def test_one_stream_scans_each_window_as_its_own_scan(generator):
    kw = GENERATORS.get(generator, {})
    kinds = set()
    for seed in range(50):
        kinds |= _assert_union_scan_answers_as_each_window(random_equation(seed, **kw), seed)
    assert {"certified", "refuted"} <= kinds


@settings(max_examples=15, deadline=None)
@given(eq=_trig_equations(), seed=st.integers(0, 2**16))
def test_one_stream_scans_each_window_as_its_own_scan_on_trig_equations(eq, seed):
    _assert_union_scan_answers_as_each_window(eq, seed)


def test_one_stream_scans_underflow_and_overflow_as_their_own_scans():
    # the underflowing kernel of test_streamed_scan_certifies_rows_before_underflow
    # stops the union short of hi, which answers for no window; the
    # overflowing one of test_scan_refutes_an_overflowing_kernel refutes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _assert_union_scan_answers_as_each_window(
            const_eq(("1 - 1e-9*(1.5 + sin(n))", 0))) == {"underflow stop"}
        assert "refuted" in _assert_union_scan_answers_as_each_window(
            const_eq((0.001, 1), (-1e20, 0)))
    # X(k + 1, k) = 0 exactly: the union refutes at (lo + 1, lo), inside
    # the windows that start at lo
    assert _assert_union_scan_answers_as_each_window(const_eq((1.0, 0))) == {"refuted"}


# The rule tests pick each set's largest lag T for its scan window
# scan_window: T = 0, 1, 2, 3, 8 and 30 give [0, 200], [5, 205],
# [10, 210], [15, 215], [40, 240] and [150, 450], each starting instead at
# the deepest splice cutoff of the set's terms when that is later.  A sin or cos term keeps a
# set off the analytic routes, so it reaches the scan.


def test_comparison_set_leaves_out_early_negative_terms(monkeypatch):
    # the spliced term is negative on the rows before 40, which the union
    # [5, 240] of the windows reads, so J = (0, 2, 3) even on [40, 240];
    # the sets that hold it scan from its cutoff 40
    eq = const_eq(("0.1 + 0.02*sin(n)", 1), ("splice(40, -0.01, 0.02)", 3), ("0.03", 2),
                  ("0.001", 8))
    sets = [(0,), (0, 2), (0, 1), (0, 1, 2, 3)]
    assert [criteria.scan_window(criteria.subset_equation(eq, I)) for I in sets] == [
        (5, 205), (10, 210), (40, 240), (40, 240)]
    answers, alone = _pass(eq, sets, monkeypatch)
    assert alone == [(0, 1), (0, 1, 2, 3)]
    cert = answers[(0, 2)]
    assert isinstance(cert, PositivityCertificate) and (cert.n0, cert.N) == (10, 210)
    assert answers[(0, 1)] == certify_positivity(criteria.subset_equation(eq, [0, 1]))


def test_comparison_set_refutation_is_never_inherited(monkeypatch):
    # both terms are nonnegative, the pair's kernel is not positive
    eq = const_eq(("0.05 + 0.01*sin(n)", 1), (1.5, 0))
    own = positivity_scan(criteria.subset_equation(eq, [0, 1]), (5, 205))
    assert isinstance(own, PositivityRefutation)
    answers, alone = _pass(eq, [(0,), (0, 1)], monkeypatch)
    assert alone == [(0,)]
    # the set itself gets its own scan back
    assert answers[(0, 1)] == own
    # over the union [0, 205] the pair refutes at k = 0, outside [5, 205]
    answers, alone = _pass(eq, [(1,), (0, 1)], monkeypatch)
    assert alone == [(1,), (0, 1)]
    # J = (0,), the lag-0 term, refutes at k = 0 inside its own [0, 200]:
    # the alternating term is left out of J, and its pair scans alone
    eq = const_eq((1.5, 0), ("-0.01*alt(n)", 1))
    answers, alone = _pass(eq, [(0,), (0, 1)], monkeypatch)
    assert alone == [(0, 1)]
    assert answers[(0,)] == positivity_scan(eq, (0, 200))
    # a refutation past a window's end: a(250) = 1.05 gives X(251, k) < 0,
    # and [0, 200] certifies (a splice at 250 would start the windows there)
    eq = const_eq(("0.05 + (n/250)^40", 0), ("-0.001*alt(n)", 30))
    one = criteria.subset_equation(eq, [0])
    assert positivity_scan(one, (0, 450)).n == 251
    assert positivity_scan(one, (0, 200)).N == 200
    answers, alone = _pass(eq, [(0,), (0, 1)], monkeypatch)
    assert alone == [(0,), (0, 1)]


def test_comparison_set_underflow_stop_is_never_inherited(monkeypatch):
    # the pair's kernel underflows to an exact zero at row 37, short of N
    eq = const_eq(("1 - 1e-9*(1.5 + sin(n))", 0), ("1e-12", 0))
    answers, alone = _pass(eq, [(0,), (0, 1)], monkeypatch)
    stop = answers[(0, 1)]  # the pair's own scan: [0, 200] is the union
    assert isinstance(stop, PositivityCertificate) and stop.N < 200
    assert alone == [(0,)]
    # the pair at lag 1 scans [5, 205], the union is [0, 205]
    eq = const_eq(("1 - 1e-9*(1.5 + sin(n))", 0), ("1e-12", 1))
    answers, alone = _pass(eq, [(0,), (0, 1)], monkeypatch)
    assert alone == [(0,), (0, 1)]


def test_union_past_the_kernel_cap_scans_each_set_alone(monkeypatch):
    # a cap between the largest window's ring (32 rows of 301 entries) and
    # the union's (32 rows of 446): J's ring over [5, 450] passes it, no
    # error escapes, and every set scans alone, with the same reports
    eq = const_eq(*LAGS_1_AND_30)
    want = _reports(eq)
    monkeypatch.setattr(_kernels, "MAX_ENTRIES", 12_000)
    sets = [(0,), (1,), (0, 1)]
    answers, alone = _pass(eq, sets, monkeypatch)
    assert alone == sets
    assert _reports(eq) == want


def test_union_past_the_kernel_cap_evaluates_no_comparison_set(monkeypatch):
    # the union [5, 60000] of the windows (5, 205) and (20000, 60000) fits
    # the lag-1 term's ring, but a set that keeps the lag-4000 term cannot
    # take J's stream: its own scan's ring passes the cap, and it refuses
    # before J's table, or any table of its own, is built
    eq = const_eq(("0.1 + 0.02*sin(n)", 1), ("0.0001*(1 + 0.5*sin(n))", 4000))
    _no_tables(monkeypatch)
    asked = []
    certify = criteria.certify_positivity

    def recording(sub, window=None):
        asked.append(sub)
        return certify(sub, window)

    monkeypatch.setattr(criteria, "certify_positivity", recording)
    for sets in ([(0,), (1,), (0, 1)], [(0,), (0, 1)], [(1,), (0, 1)]):
        with pytest.raises(KernelMemoryError, match=r"\(cap 100000000\)"):
            criteria._positivity_pass(eq, None, sets)
    assert asked == []


def test_run_all_refuses_the_first_scan_the_cap_refuses_before_any_table(monkeypatch):
    # the full set's window [5*10^6, 1.5*10^7] and {0}'s [5, 205] have the
    # union [5, 1.5*10^7], which the lag-1 term's ring of 3 rows fits: J =
    # {0} would stream over it with a 16 x 1.5*10^7 block.  A set that keeps
    # the lag-10^6 term has a ring past the cap, so the run refuses before
    # any table; theorem2's sign gate alone asks no such set of a signed term
    signed = const_eq(("0.1 + 0.02*sin(n)", 1), ("0.001*sin(n)", 10**6))
    nonneg = const_eq(("0.1 + 0.02*sin(n)", 1), ("0.001*(1 + 0.5*sin(n))", 10**6))
    for eq, checks in ((signed, ["theorem1", "theorem2"]), (nonneg, ["theorem1", "theorem2"]),
                       (nonneg, ["theorem2"])):
        with monkeypatch.context() as patch:
            _no_tables(patch)
            with pytest.raises(KernelMemoryError, match=r"\(cap 100000000\)"):
                run_all(eq, checks=checks)
    assert _streams(signed, monkeypatch, ["theorem2"]) == [(5, 205)]


def test_run_all_copies_no_sliced_validation_window(monkeypatch):
    # two terms on lag 20000 merge into one, and corollary 4 validates its
    # comparison equations, on [0, 200010): four slices, none of which the
    # run's scope keeps, so no span grows by a slice at a time
    from delaystab import seqexpr

    copied = []
    window = seqexpr._Scope.window

    def recording(self, expr, n0, n1):
        before = self.spans.get(expr)
        out = window(self, expr, n0, n1)
        after = self.spans.get(expr)
        if after is not before and after[1] is not out:
            copied.append(len(after[1]))
        return out

    monkeypatch.setattr(seqexpr._Scope, "window", recording)
    eq = const_eq(("1e-9", 20_000), ("2e-9*(1 + 0.5*per(1, -1))", 20_000))
    assert eq.validation_window == (0, 200_010)
    verdicts = run_all(eq, checks=["theorem1", "corollary4"])
    assert [v.outcome for v in verdicts] == [Outcome.STABLE] * 3
    assert sum(copied) < 200_010


@pytest.mark.parametrize("coeff,lag,default,scan", [
    ("0.1 + 0.01*sin(n)", 3, (30, 10030), (15, 215)),
    # a cutoff before 5 T moves neither window, one between 5 T and 10 T
    # only the scan's, one past 10 T both, keeping their lengths
    ("splice(12, 0.3, 0.1 + 0.01*sin(n))", 3, (30, 10030), (15, 215)),
    ("splice(20, 0.3, 0.1 + 0.01*sin(n))", 3, (30, 10030), (20, 220)),
    ("0.05 + splice(500, 0.3, 0.1 + 0.01*sin(n))", 30, (500, 10500), (500, 800)),
])
def test_windows_start_past_the_last_splice_cutoff(coeff, lag, default, scan):
    eq = const_eq((coeff, lag), ("0.01*abs(cos(n))", 1))
    assert criteria.limits.default_window(eq) == default
    assert scan_window(eq) == scan
    assert {v.window for v in run_all(eq)} == {default}
    # an explicit window stays as given
    assert {v.window for v in run_all(eq, (0, 300))} == {(0, 300)}


def test_run_all_rejects_a_bad_window(eq_sin_cos):
    for window in ((100, 50), (-50, 100)):
        with pytest.raises(ValueError, match="must satisfy 0 <= N0 <= N1"):
            run_all(eq_sin_cos, window)


# --- nonoscillation (lemma4) and the autonomous sharp bound


def test_lemma4_examples(eq_zero):
    merged = validate([Term(parse("per(0.05, 0.03)"), DelaySpec.periodic([3, 5]))])
    v = check_lemma4(merged)
    assert v.outcome is Outcome.STABLE and v.claim == CLAIM_POSITIVE
    assert v.witnesses["double_sum"] <= 0.25

    assert check_lemma4(eq_zero).outcome is Outcome.STABLE

    v = check_lemma4(const_eq((0.6, 1)))
    assert v.outcome is Outcome.INCONCLUSIVE  # sup >= 1/2 is a failed test

    v = check_lemma4(const_eq((-0.1, 1)))
    assert v.outcome is Outcome.NOT_APPLICABLE  # sign hypothesis violated


def test_autonomous_nonosc_thresholds():
    assert criteria.nonosc_threshold(1) == 0.25
    assert criteria.nonosc_threshold(3) == 27 / 256


def test_sharp_bound_past_float_range():
    # (k+1)^(k+1) stops fitting a float at k = 143
    assert criteria.nonosc_threshold(142) > criteria.nonosc_threshold(143)
    assert criteria.nonosc_threshold(2000) == pytest.approx(1 / (math.e * 2001), rel=1e-3)
    # past it a float form, within 1e-15 of the correctly rounded quotient
    for k in range(143, 401):
        exact = k**k / (k + 1) ** (k + 1)
        assert abs(criteria.nonosc_threshold(k) - exact) <= 1e-15 * exact, k


@pytest.mark.parametrize("alphas,taus", [([1e-4], [2000]), ([1e-4, 0.0], [2000, 3000])])
def test_char_search_treats_overflowing_terms_as_infinite(alphas, taus):
    # f(lam) = lam - 1 + 1e-4 lam^-2000 overflows on the search's first two
    # probes; its minimum is at lam = 0.2^(1/2001)
    lam, fmin = criteria._char_lambda_search(alphas, taus)
    assert lam == pytest.approx(0.2 ** (1 / 2001), abs=1e-8)
    assert fmin < 0


# (lam, f_min) as float.hex, captured from the generator of per-term calls
# that the one loop replaced: every term adds to an int 0 in the same order
@pytest.mark.parametrize("alphas,taus,expected", [
    ([0.2], [1], ("0x1.c9f25c1e108ecp-2", "-0x1.b06d1d2009134p-4")),
    ([0.1, 0.05], [2, 5], ("0x1.b2333cd54a661p-1", "0x1.9e0ac3f72e360p-4")),
    ([0.0, 0.3], [1, 3], ("0x1.f2b09e58a9e35p-1", "0x1.31d6fbf06aab4p-2")),
    ([0.5], [0], ("0x1.0c6f7a0b5ed8dp-20", "-0x1.ffffbce4217d2p-2")),
    # lam^-800 overflows below lam = 0.41, on the search's first probe
    ([0.001], [800], ("0x1.ffdb7daad7f2ep-1", "0x1.fd24193cb4e14p-11")),
    ([0.0], [800], ("0x1.0c6f7a0b5ed8dp-20", "-0x1.ffffde7210be9p-1")),
    ([0.3, 0.0], [2, 800], ("0x1.afd667cf47f60p-1", "0x1.0f83380b18426p-2")),
])
def test_char_search_keeps_its_bits(alphas, taus, expected):
    lam, fmin = criteria._char_lambda_search(alphas, taus)
    assert (lam.hex(), fmin.hex()) == expected


# --- theorem1 and corollary2


def test_theorem1_constant_rate():
    eq = const_eq((0.2, 1))
    cert = certify_positivity(eq)
    v = check_theorem1(eq, cert)
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["mu"] == pytest.approx(0.8)


def test_theorem1_vanishing_coefficient(eq_vanishing):
    v = check_theorem1(eq_vanishing, certify_positivity(eq_vanishing))
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses["a"] == pytest.approx(0.0, abs=1e-12)
    assert v.witnesses["b"] >= 1.0 - 1e-9


def test_theorem1_zero(eq_zero):
    v = check_theorem1(eq_zero, certify_positivity(eq_zero))
    assert v.outcome is Outcome.INCONCLUSIVE


def test_theorem1_requires_nonnegative_coefficients(eq_unbounded):
    # the kernel is positive yet a coefficient is negative; without the
    # sign hypothesis this equation (which diverges) would be certified
    cert = certify_positivity(eq_unbounded)
    assert isinstance(cert, PositivityCertificate)
    v = check_theorem1(eq_unbounded, cert)
    assert v.outcome is Outcome.NOT_APPLICABLE


def test_theorem1_missing_certificate(eq_zero):
    assert check_theorem1(eq_zero, None).outcome is Outcome.NOT_APPLICABLE


def test_corollary2_cases(eq_sin_cos):
    assert check_corollary2(const_eq((0.1, 2))).outcome is Outcome.STABLE
    # deep-delay window sum exceeds 1/4, so the positivity route fails
    assert check_corollary2(eq_sin_cos).outcome is Outcome.INCONCLUSIVE
    assert check_corollary2(const_eq((-0.1, 1))).outcome is Outcome.NOT_APPLICABLE


# --- corollary3


def test_corollary3_parts():
    v = check_corollary3(const_eq((0.25, 1)))
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["f_min"] <= 1e-12

    v = check_corollary3(const_eq((0.3, 1)))
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses["f_min"] == pytest.approx(2 * math.sqrt(0.3) - 1, abs=1e-6)

    v = check_corollary3(validate([Term(parse("0"), DelaySpec.constant(1))]))
    assert v.outcome is Outcome.INCONCLUSIVE  # degenerate: rate condition fails


# --- theorem2


def _own_positivity(eq, I):
    """The positivity of the I-terms' equation, as theorem2 takes it."""
    return certify_positivity(criteria.subset_equation(eq, I))


def test_theorem2_sin_cos(eq_sin_cos):
    v = check_theorem2(eq_sin_cos, [0], _own_positivity(eq_sin_cos, [0]))
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["ratio"] < 0.667
    assert v.window_certified  # sin-driven coefficients are window estimates


def test_theorem2_full_set_ratio_zero():
    eq = const_eq((0.1, 1), (0.05, 2))
    v = check_theorem2(eq, [0, 1], _own_positivity(eq, [0, 1]))
    assert v.witnesses["ratio"] == 0.0
    assert v.outcome is Outcome.STABLE


def test_theorem2_dominant_negative_part():
    eq = const_eq((0.1, 1), (-0.2, 3))
    v = check_theorem2(eq, [0], _own_positivity(eq, [0]))
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses["ratio"] >= 1.0


def test_theorem2_rejects_empty():
    with pytest.raises(ValueError):
        check_theorem2(const_eq((0.1, 1)), [], None)


def test_theorem2_reads_positivity_only_past_its_sign_gate():
    eq = const_eq((0.1, 1), (-0.02, 2))
    assert check_theorem2(eq, [1], None).outcome is Outcome.NOT_APPLICABLE
    with pytest.raises(ValueError, match="needs the positivity"):
        check_theorem2(eq, [0], None)


# --- theorem5 / corollary4


def test_theorem5_periodic_mixed(eq_periodic_mixed):
    h = eq_periodic_mixed.terms[1].delay
    v = check_corollary_theorem5(eq_periodic_mixed, [0, 1], [h, h])
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] == pytest.approx(11 / 12, abs=1e-12)


def test_theorem5_no_gap_trivial():
    eq = const_eq((0.14, 2))  # under the lag-2 nonoscillation bound 4/27
    v = check_corollary_theorem5(eq, [0], [DelaySpec.constant(2)])
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] == 0.0


def test_theorem5_gamma_above_one():
    eq = const_eq((0.45, 6))
    v = check_corollary_theorem5(eq, [0], [DelaySpec.constant(0)])
    assert v.outcome in (Outcome.INCONCLUSIVE, Outcome.NOT_APPLICABLE)


def test_theorem5_sum_range_hypothesis(eq_zero):
    v = check_corollary_theorem5(eq_zero, [0], [DelaySpec.constant(0)])
    assert v.outcome is Outcome.NOT_APPLICABLE  # alpha0 > 0 fails


def test_theorem5_arity_check(eq_periodic_mixed):
    with pytest.raises(ValueError):
        check_corollary_theorem5(eq_periodic_mixed, [0, 1], [DelaySpec.constant(1)])
    with pytest.raises(ValueError, match="^empty index set$"):
        check_corollary_theorem5(eq_periodic_mixed, [], [])


def test_theorem5_pairs_each_index_with_its_own_delay():
    # g_override[i] is the comparison delay of term I[i] in whatever order I
    # lists the terms: each term moved onto its own lag leaves no gap
    eq = const_eq((0.05, 1), (0.05, 3))
    g1, g3 = DelaySpec.constant(1), DelaySpec.constant(3)
    v = check_corollary_theorem5(eq, [1, 0], [g3, g1])
    assert v == check_corollary_theorem5(eq, [0, 1], [g1, g3])
    assert v.outcome is Outcome.STABLE and v.witnesses["gamma_min"] == 0.0
    got = theorem5_lhs_rhs(eq, [1, 0], [g3, g1], (30, 10030))
    want = theorem5_lhs_rhs(eq, [0, 1], [g1, g3], (30, 10030))
    for a, b in zip(got[:2], want[:2]):
        assert (a == b).all()
    with pytest.raises(ValueError, match="index 0 appears more than once in I"):
        check_corollary_theorem5(eq, [0, 0], [g1, g3])


def test_theorem5_general_term_outside_I_uses_window():
    # the kept term is constant but the excluded one is general: the gap
    # inequality must run over the window, not over a one-point "period"
    eq = validate([Term(parse("0.2"), DelaySpec.constant(2)),
                   Term(parse("0.15*abs(sin(n))"), DelaySpec.constant(0))])
    v = check_corollary_theorem5(eq, [0], [DelaySpec.constant(1)])
    assert v.window_certified
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses["gamma_min"] == pytest.approx(1.0238, abs=1e-4)
    window = (10 * eq.T, 10 * eq.T + 10_000)
    _, _, strip = theorem5_lhs_rhs(eq, [0], [DelaySpec.constant(1)], window)
    assert (strip.ns[0], strip.ns[-1]) == window


def test_comparison_delay_deeper_than_the_validated_window_gets_a_verdict():
    # a lag-1 equation validated on [0, 1000): the comparison equation at
    # lag 200 keeps that window and is not validated again, which needed
    # 10 * (1 + 200) = 2010 points
    refuted = const_eq((0.1, 1))
    g = DelaySpec.constant(200)
    for v in (check_corollary4(refuted, g), check_corollary_theorem5(refuted, [0], [g])):
        assert v.outcome is Outcome.NOT_APPLICABLE and "refuted_n" in v.witnesses
    v = check_corollary4(const_eq((0.001, 1)), g)
    assert v.outcome is Outcome.STABLE and v.witnesses["gamma_min"] == pytest.approx(0.199)


def test_corollary4_delegates(eq_periodic_mixed):
    v = check_corollary4(eq_periodic_mixed, eq_periodic_mixed.terms[1].delay)
    assert v.outcome is Outcome.STABLE
    assert v.criterion.startswith("corollary4")


def _assert_corollary4_one_term_decides_like_m_terms(eq):
    """Corollary 4's comparison equation sum_l a_l(n) x(g(n)) as one term
    (a_0 + ... + a_{m-1}) x(g(n)) and as m terms: on its scan window, for
    every g run_all tries, both scans give the same result type, the same
    N and the same refutation (n, k).  Returns the kinds seen."""
    gs = list(dict.fromkeys([t.delay for t in eq.terms] + [DelaySpec.constant(1)]))
    kinds = set()
    for g in gs:
        terms = validate([Term(t.coeff, g) for t in eq.terms])
        one = merge_same_delay(terms)
        assert one.m == 1
        window = criteria.scan_window(one)
        got, want = positivity_scan(one, window), positivity_scan(terms, window)
        assert type(got) is type(want), (g, got, want)
        if isinstance(want, PositivityRefutation):
            assert (got.n, got.k) == (want.n, want.k)
            kinds.add("refuted")
        else:
            assert got.N == want.N
            kinds.add("certified")
    return kinds


@pytest.mark.parametrize("autonomous", [False, True], ids=["periodic", "autonomous"])
def test_corollary4_one_term_comparison_decides_like_m_terms(autonomous):
    # the two generators of perfbench's check_periodic corpus
    kw = (dict(m_max=3, T_max=4, K_max=1.0, autonomous=True) if autonomous
          else dict(m_max=3, T_max=5, K_max=0.8))
    kinds = set()
    for seed in range(50):
        kinds |= _assert_corollary4_one_term_decides_like_m_terms(random_equation(seed, **kw))
    assert kinds == {"certified", "refuted"}


def test_corollary4_scans_its_one_term_comparison_equation(monkeypatch):
    eq = const_eq(("0.05 + 0.02*sin(n)", 1), ("0.03 + 0.01*cos(n)", 2), ("0.02", 3))
    terms = []
    scan = criteria.positivity_scan
    monkeypatch.setattr(criteria, "positivity_scan", lambda e, w: terms.append(e.m) or scan(e, w))
    check_corollary4(eq, DelaySpec.constant(2))
    assert terms == [1]


@settings(max_examples=15, deadline=None)
@given(eq=_trig_equations())
def test_corollary4_one_term_comparison_decides_like_m_terms_on_trig_equations(eq):
    _assert_corollary4_one_term_decides_like_m_terms(eq)


# --- corollary6 / corollary7


def test_corollary6_cases():
    eq = validate([
        Term(parse("0.2"), DelaySpec.constant(1)),
        Term(parse("0.1*abs(cos(n))"), DelaySpec.constant(7)),
    ])
    v = check_corollary6(eq)
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] == pytest.approx(0.5, abs=1e-6)

    v = check_corollary6(const_eq((0.25, 1)))
    assert v.outcome is Outcome.NOT_APPLICABLE  # needs sup < 1/4 strictly

    v = check_corollary6(const_eq((0.2, 1), (0.3, 4)))
    assert v.outcome is Outcome.INCONCLUSIVE  # ratio 1.5 >= 1

    with pytest.raises(ValueError):
        check_corollary6(const_eq((0.2, 2)))


def test_corollary7_cases(eq_unbounded):
    v = check_corollary7(const_eq((0.2, 2)))
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] == pytest.approx(0.2)

    v = check_corollary7(const_eq((0.1, 1), (0.05, 1)))
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] == 0.0  # all windows empty at lag 1

    assert check_corollary7(const_eq((0.3, 2))).outcome is Outcome.NOT_APPLICABLE

    # an undelayed term escapes the displayed windows; the unbounded
    # fixture satisfies the aggregate range and must stay NotApplicable
    assert check_corollary7(eq_unbounded).outcome is Outcome.NOT_APPLICABLE


# --- corollary8


def test_corollary8_sin_cos(eq_sin_cos):
    v = check_corollary8(eq_sin_cos, 1)
    assert v.outcome is Outcome.STABLE
    assert 0 < v.witnesses["a_inf"] and v.witnesses["a_sup"] <= 0.25
    assert v.witnesses["gamma_min"] <= 0.1 / 0.15 + 1e-9


def test_corollary8_alternating(eq_alternating):
    v = check_corollary8(eq_alternating, 1)
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["window_sum"] == pytest.approx(0.24)
    assert v.witnesses["gamma_min"] == pytest.approx(0.21 / 0.22, abs=1e-12)


def test_corollary8_window_sum_failure():
    eq = const_eq((0.3, 1), (0.0, 2))
    v = check_corollary8(eq, 1)
    assert v.outcome is Outcome.INCONCLUSIVE  # single-step sum 0.3 > 1/4
    assert v.witnesses["window_sum"] == pytest.approx(0.3)


def test_corollary8_part2_periodic_mixed(eq_periodic_mixed):
    v = check_corollary8(eq_periodic_mixed, 2)
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["window_sum"] == pytest.approx(0.21, abs=1e-12)
    assert v.witnesses["gamma_min"] == pytest.approx(11 / 12, abs=1e-12)


def test_corollary8_part2_requires_comparison_positivity():
    # pair sum 0.407 at lag 3 oscillates; the displayed gap inequality
    # alone would wrongly certify this diverging equation
    eq = const_eq((-0.057721, 0), (0.464834, 3))
    v = check_corollary8(eq, 2)
    assert v.outcome is Outcome.NOT_APPLICABLE


def test_corollary8_arity_and_part():
    with pytest.raises(ValueError):
        check_corollary8(const_eq((0.1, 1)), 1)
    with pytest.raises(ValueError):
        check_corollary8(const_eq((0.1, 1), (0.1, 2)), 3)


# --- corollary9 / corollary10


def test_corollary9_part1():
    assert check_corollary9(0.25, 1, -0.2, 3, 1).outcome is Outcome.STABLE
    assert check_corollary9(0.3, 1, -0.2, 3, 1).outcome is Outcome.NOT_APPLICABLE
    assert check_corollary9(0.2, 1, 0.25, 3, 1).outcome is Outcome.INCONCLUSIVE
    with pytest.raises(ValueError):
        check_corollary9(0.0, 1, 0.1, 2, 1)


@pytest.mark.parametrize("part", [0, 3])
def test_corollary9_has_two_parts(part):
    with pytest.raises(ValueError, match=r"^part must be 1 or 2$"):
        check_corollary9(0.25, 1, -0.2, 3, part)


def test_scan_refuses_a_window_shorter_than_5T():
    eq = const_eq(("0.1 + 0.01*sin(n)", 4))
    with pytest.raises(ValueError, match=r"^scan window must span at least 5T = 20$"):
        positivity_scan(eq, (20, 39))
    assert isinstance(positivity_scan(eq, (20, 40)), PositivityCertificate)


def test_corollary9_pq_sufficiency():
    # p - q shape: the first-part test certifies p > |q| under the bound
    p, q = 0.2, 0.1
    assert check_corollary9(p, 1, -q, 2, 1).outcome is Outcome.STABLE


def test_corollary9_part2_threshold_gates_moved_delay():
    # pair sum clears the lag-1 bound but not the lag-9 bound the gap
    # inequality actually needs; radius of this equation exceeds 1
    v = check_corollary9(0.01, 1, 0.22, 9, 2)
    assert v.outcome is Outcome.NOT_APPLICABLE
    v = check_corollary9(0.2, 3, 0.03, 1, 2)
    assert v.outcome is Outcome.STABLE


def test_corollary10_cases():
    assert check_corollary10({1: 0.2, 2: 0.1}).outcome is Outcome.STABLE
    assert check_corollary10({1: 0.3}).outcome is Outcome.INCONCLUSIVE
    v = check_corollary10({1: 0.1, 2: 0.05, 3: 0.04})
    assert v.outcome is Outcome.STABLE and v.witnesses["k"] == 1.0
    with pytest.raises(ValueError):
        check_corollary10({})


def _corollary10_dense(a):
    """Corollary 10 with its head and tail sums taken at every k = 1..m:
    the outcome and the witnesses."""
    a = [float(v) for v in a]
    for k in range(1, len(a) + 1):
        if a[k - 1] < -criteria.EPS:
            break
        head = sum(a[:k])
        tail = sum(abs(v) for v in a[k:])
        if (head > criteria.EPS and head <= criteria.nonosc_threshold(k) + criteria.EPS
                and tail < head - criteria.EPS):
            return Outcome.STABLE, {"k": float(k), "head_sum": head, "tail_abs_sum": tail}
    return Outcome.INCONCLUSIVE, {"k": 0.0, "head_sum": sum(a[:1])}


def test_corollary10_skips_zero_lags_bit_for_bit():
    # a zero entry leaves head and tail as they were one lag earlier, and
    # the threshold only falls, so skipping it, or leaving its lag out of
    # the map, changes no bit
    rng = np.random.default_rng(10)
    special = [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 0.25, 0.1, -0.3, 1e-4, 1e-6]
    outcomes = set()
    for _ in range(3000):
        a = [0.0] * int(rng.integers(1, 60))
        lags = {len(a)}  # the map has each lag a term has, the largest among them
        for _ in range(int(rng.integers(0, 7))):
            # the value is drawn before its index, as in a[index] = value
            value = (float(rng.choice(special)) if rng.random() < 0.5
                     else float(rng.uniform(-0.05, 0.3)) * 10.0 ** -int(rng.integers(0, 7)))
            j = int(rng.integers(len(a)))
            a[j] = value
            lags.add(j + 1)
        v = check_corollary10({lag: a[lag - 1] for lag in lags})
        outcome, witnesses = _corollary10_dense(a)
        assert v.outcome is outcome, a
        # repr tells -0.0 from 0.0 and an int 0 (an empty tail) from 0.0
        assert ({k: repr(x) for k, x in v.witnesses.items()}
                == {k: repr(x) for k, x in witnesses.items()}), a
        outcomes.add(outcome)
    assert outcomes == {Outcome.STABLE, Outcome.INCONCLUSIVE}


def test_run_all_gives_corollary10_each_lag_sum_in_term_order(monkeypatch):
    pairs = [(0.1, 2), (0.2, 2), (-0.3, 2), ("-0.0", 3), (0.05, 5), (1e-13, 2)]
    seen = []
    check = criteria.check_corollary10
    monkeypatch.setattr(criteria, "check_corollary10", lambda a: seen.append(a) or check(a))
    run_all(const_eq(*pairs), checks=["corollary10"])
    coeffs = [float(c) for c, _ in pairs]
    want = {k: sum(c for c, (_, lag) in zip(coeffs, pairs) if lag == k) for k in (2, 3, 5)}
    assert ({k: float.hex(float(v)) for k, v in seen[0].items()}
            == {k: float.hex(float(v)) for k, v in want.items()})


def test_corollary10_on_a_long_lag_takes_no_quadratic_time():
    # the head and tail sums at every k = 1..20000 took 18.8 s
    eq = const_eq((1e-6, 1), (1e-4, 20_000))
    start = time.perf_counter()
    (v,) = run_all(eq, checks=["corollary10"])
    assert time.perf_counter() - start < 1.0
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses == {"k": 0.0, "head_sum": 1e-6}


@pytest.mark.parametrize("head,far,outcome,witnesses", [
    (1e-6, 1e-4, Outcome.INCONCLUSIVE, {"k": "0.0", "head_sum": "1e-06"}),
    (0.2, 1e-9, Outcome.STABLE, {"k": "1.0", "head_sum": "0.2", "tail_abs_sum": "1e-09"}),
])
def test_corollary10_reads_only_the_lags_an_equation_has(head, far, outcome, witnesses):
    # a dense list of one coefficient per lag took 0.18 s at lag 10^6, on
    # the zeros alone; the witnesses are the dense list's
    eq = const_eq((head, 1), (far, 10**6))
    start = time.perf_counter()
    (v,) = run_all(eq, checks=["corollary10"])
    assert time.perf_counter() - start < 0.05
    assert v.outcome is outcome
    assert {k: repr(x) for k, x in v.witnesses.items()} == witnesses


# --- classical tests


def test_classical_alternating(eq_alternating):
    verdicts = {v.criterion: v for v in check_classical(eq_alternating)}
    pi = verdicts["classical_pi_half"]
    assert pi.outcome is Outcome.INCONCLUSIVE
    assert pi.witnesses["diagnostic_sum"] == pytest.approx(1.78, abs=1e-12)


def test_classical_autonomous_margin():
    verdicts = {v.criterion: v for v in check_classical(const_eq((0.1, 3)))}
    assert verdicts["classical_margin"].outcome is Outcome.STABLE
    assert verdicts["classical_32"].outcome is Outcome.STABLE
    assert verdicts["classical_pi_half"].outcome is Outcome.STABLE


def test_classical_convergent_sum_not_applicable(eq_vanishing):
    verdicts = {v.criterion: v for v in check_classical(eq_vanishing)}
    assert verdicts["classical_32"].outcome is Outcome.NOT_APPLICABLE


def test_classical_zero_equation(eq_zero):
    verdicts = check_classical(eq_zero)
    assert all(v.outcome is not Outcome.STABLE for v in verdicts)


# --- orchestration


def test_run_all_fixture_outcomes(eq_sin_cos, eq_unbounded, eq_zero):
    stable = stable_verdicts(run_all(eq_sin_cos))
    assert any(v.criterion == "corollary8.1" for v in stable)
    assert not stable_verdicts(run_all(eq_unbounded))
    assert not stable_verdicts(run_all(eq_zero))


@pytest.mark.parametrize("text", ["splice(100, 0.1, -0.5)",
                                  "0.2 + 0.01*(abs(n - 100) - (100 - n))"])
def test_coefficients_constant_on_a_prefix_get_no_stable_verdict(text):
    # 0.1 and 0.2 for n < 100, then -0.5 and 0.2 + 0.02 (n - 100): the
    # kernel grows without bound, so no test may certify either
    from delaystab import fundamental
    eq = const_eq((text, 1))
    assert not stable_verdicts(run_all(eq))
    assert abs(fundamental(eq, 0, 400)[-1]) > 1e6


def test_run_all_orders_stable_first(eq_sin_cos):
    verdicts = run_all(eq_sin_cos)
    ranks = [v.outcome for v in verdicts]
    first_non_stable = next(i for i, o in enumerate(ranks) if o is not Outcome.STABLE)
    assert all(o is not Outcome.STABLE for o in ranks[first_non_stable:])
    ids = [v.criterion for v in verdicts if v.outcome is Outcome.STABLE]
    assert ids == sorted(ids)


def test_theorem2_subsets_above_the_cap():
    # every nonempty subset up to SUBSET_CAP terms; above it, the full set
    # and each drop-one set
    from delaystab.criteria import SUBSET_CAP, _theorem2_subsets
    assert SUBSET_CAP == 12
    assert len(_theorem2_subsets(const_eq(*[(0.01, 1)] * 12))) == 2**12 - 1
    subsets = _theorem2_subsets(const_eq(*[(0.01, 1)] * 13))
    assert len(subsets) == 14
    assert subsets[0] == tuple(range(13))
    assert [set(range(13)) - set(s) for s in subsets[1:]] == [{i} for i in range(13)]


def test_run_all_checks_filter(eq_sin_cos):
    verdicts = run_all(eq_sin_cos, checks=["corollary8"])
    assert {v.criterion for v in verdicts} == {"corollary8.1", "corollary8.2"}


def test_verdict_serialization(eq_alternating):
    v = run_all(eq_alternating)[0]
    d = v.to_dict()
    assert set(d) == {"criterion", "outcome", "claim", "witnesses", "window",
                      "window_certified", "citation"}
    assert all(isinstance(x, float) for x in d["witnesses"].values())


def test_verdict_serialization_nonfinite_witness():
    # an infinite domination ratio must serialize as null, not Infinity
    eq = validate([Term(parse("per(0.2, 0)"), DelaySpec.constant(1)),
                   Term(parse("0.1"), DelaySpec.constant(2))])
    v = check_theorem2(eq, [0], _own_positivity(eq, [0]))
    assert v.witnesses["ratio"] == math.inf
    assert v.to_dict()["witnesses"]["ratio"] is None
    import json
    json.loads(json.dumps(v.to_dict()))  # strictly valid JSON


def test_liminf_stable_implies_one_step_product_below_one():
    # a positive liminf of the coefficient sum forces the one-step product
    # estimate under 1, so the two rate routes never disagree
    from delaystab import limsup_product
    from delaystab.criteria import certify_positivity
    for pairs in [((0.2, 1),), ((0.05, 3),), ((0.12, 2), (0.08, 1))]:
        eq = const_eq(*pairs)
        v = check_theorem1(eq, certify_positivity(eq))
        if v.outcome is Outcome.STABLE and "a" in v.witnesses and v.witnesses["a"] > 0:
            assert limsup_product(eq, 1).value < 1.0


def test_a_period_past_the_candidates_is_tried_as_one_product():
    # a(n) = 0.5 once in 21 steps: no horizon in P_CANDIDATES has a product
    # below 1, and every 21-step product is 0.5
    eq = const_eq(("per(0.5" + ", 0" * 20 + ")", 0))
    found = limits.limsup_products(eq, criteria.P_CANDIDATES, limits.default_window(eq))
    assert all(found[p].value == 1.0 for p in criteria.P_CANDIDATES)
    assert found[21] == limits.AsymptoticEstimate(0.5, True)
    verdicts = {v.criterion: v for v in run_all(eq)}
    for name in ("theorem1", "corollary3", "theorem2(I=0)"):
        assert verdicts[name].outcome is Outcome.STABLE, name
        assert verdicts[name].witnesses["p"] == 21.0
        assert verdicts[name].witnesses["mu"] == 0.5 ** (1 / 21)


def test_the_rate_search_runs_no_horizon_past_the_candidates(monkeypatch):
    # period 30 * 31 = 930: a P- or 2P-step horizon taken from every point
    # of the span would cost O(P^2); one period's product is linear in P
    rng = np.random.default_rng(0)
    coeff = " + ".join("per(" + ", ".join(repr(float(v)) for v in rng.uniform(0, 0.1, k).round(4))
                       + ")" for k in (30, 31))
    eq = const_eq((coeff, 1))
    assert limits.aggregate_period(eq) == 930
    asked, plain = [], limits.limsup_products

    def recording(eq, ps, window=None):
        asked.extend(ps)
        return plain(eq, ps, window)

    monkeypatch.setattr(limits, "limsup_products", recording)
    window = limits.default_window(eq)
    d = criteria._Draft("theorem1", "positive-kernel rate bound", window)
    assert d.product_rate(eq, window)
    assert asked and max(asked) <= max(criteria.P_CANDIDATES)
    # the period's product wins: any shorter horizon's worst stretch is above its mean
    assert d.witnesses["p"] == 930 and not d.certified
    factors = 1.0 - eq.coeff_table(window[0], window[0] + 929).sum(axis=0)
    assert d.witnesses["b"] == pytest.approx(math.prod(factors.tolist()), rel=1e-12)
    assert d.mu == d.witnesses["b"] ** (1 / 930)


@pytest.mark.parametrize("k", [150, 160, 161, 162, 199])
def test_every_product_rate_is_a_true_bound_past_underflow(k):
    # per(0.99 x k, 0.5) at lag 0: the period's product 0.5 * 0.01^k is a
    # normal float at k = 150 and subnormal or 0 from k = 160 on, where the
    # search falls back to the 12-step product
    eq = const_eq(("per(" + "0.99, " * k + "0.5)", 0))
    rated = [v.witnesses for v in run_all(eq)
             if v.outcome is Outcome.STABLE and "p" in v.witnesses]
    assert {w["p"] for w in rated} == {151.0 if k == 150 else 12.0}
    for w in rated:
        assert w["mu"] == w["b"] ** (1 / w["p"])
        assert exact_stable(eq, w["mu"])


def test_stable_fixture_verdicts_match_empirical_decay(eq_sin_cos, eq_alternating,
                                                       eq_periodic_mixed):
    from delaystab import decay_fit
    for eq in (eq_sin_cos, eq_alternating, eq_periodic_mixed):
        stable = stable_verdicts(run_all(eq))
        assert stable
        fit = decay_fit(eq, 1000)
        assert fit.mu_hat < 1.0


def test_not_applicable_versus_inconclusive_discipline():
    # hypothesis violations and refutations say NotApplicable, failed test
    # inequalities say Inconclusive across the whole family
    na = [
        check_lemma4(const_eq((-0.1, 1))),
        check_corollary6(const_eq((0.3, 1))),
        check_corollary7(const_eq((0.3, 2))),
        check_corollary8(const_eq((0.6, 1), (0.0, 2)), 1),
        check_corollary9(0.3, 1, 0.1, 2, 1),
    ]
    assert all(v.outcome is Outcome.NOT_APPLICABLE for v in na)
    inc = [
        check_lemma4(const_eq((0.6, 1))),
        check_corollary6(const_eq((0.2, 1), (0.3, 4))),
        check_corollary8(const_eq((0.3, 1), (0.0, 2)), 1),
        check_corollary9(0.2, 1, 0.25, 3, 1),
        check_corollary10({1: 0.3}),
    ]
    assert all(v.outcome is Outcome.INCONCLUSIVE for v in inc)


# --- the per-run memo


def _counting(monkeypatch, names=("check_lemma4", "_char_root", "merge_same_delay")):
    """Wrap each named criteria function, or ``limits.<name>``; returns the
    (name, args) of every call that runs it."""
    calls = []
    for name in names:
        owner = limits if name.startswith("limits.") else criteria
        attr = name.removeprefix("limits.")

        def counted(*args, fn=getattr(owner, attr), name=name):
            calls.append((name, args))
            return fn(*args)
        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_run_all_asks_each_comparison_question_once(monkeypatch):
    # lemma 4 is inconclusive, so both the positivity routes and corollary
    # 3 take the characteristic root; lemma4 and corollary2 take lemma 4
    eq = const_eq(("0.07 + 0.02*alt(n)", 2), ("per(0.03, 0.05)", 3))
    calls = _counting(monkeypatch)
    verdicts = run_all(eq)
    assert len(calls) == len(set(calls))
    full = [name for name, args in calls if args[0] == eq]
    assert sorted(full) == ["_char_root", "check_lemma4", "merge_same_delay"]
    witnesses = [id(v.witnesses) for v in verdicts]
    assert len(witnesses) == len(set(witnesses))
    assert seqexpr._scope is None  # the memo went with the run's scope


@pytest.mark.parametrize("eq", [
    # corollary 7 and corollary 4(g=1) pass their gates: one gap product
    const_eq(("0.05 + 0.01*alt(n)", 1), (0.04, 2), ("per(0.02, 0.03)", 3)),
    # corollaries 6 and 8.1 and theorem2(I=0): one domination ratio
    const_eq((0.1, 1), ("per(0.03, 0.05)", 3)),
], ids=["m3", "m2_lag1"])
def test_run_all_answers_each_instance_once(eq, monkeypatch):
    calls = _counting(monkeypatch,
                      ("_limsup_ratio", "_gamma", "limits.limsup_products", "_sum_bounds"))
    verdicts = {v.criterion: v for v in run_all(eq)}
    assert len(calls) == len(set(calls))
    window = criteria.limits.default_window(eq)
    full = tuple(range(eq.m))
    # theorem 1's liminf is the lower bound of the sum bounds lemma 4 reads
    assert "a" in verdicts["theorem1"].witnesses
    assert calls.count(("_sum_bounds", (eq, full, window))) == 1
    # corollary 3 and theorem2(I=all) ask one product rate of the equation
    rate = ("limits.limsup_products", (eq, criteria.P_CANDIDATES, window))
    assert calls.count(rate) == 1
    label = "theorem2(I=" + ",".join(map(str, full)) + ")"
    for w in ("p", "b"):
        assert verdicts["corollary3"].witnesses[w] == verdicts[label].witnesses[w]
    if eq.m == 3:
        assert ("_gamma", (eq, full, (DelaySpec.constant(1),) * 3, window)) in calls
        assert (verdicts["corollary7"].witnesses["gamma_min"]
                == verdicts["corollary4(g=1)"].witnesses["gamma_min"])
    else:
        assert ("_limsup_ratio", (eq, (0,), window)) in calls
        ratios = {verdicts[c].witnesses[k] for c, k in [
            ("corollary6", "gamma_min"), ("corollary8.1", "gamma_min"), ("theorem2(I=0)", "ratio")]}
        assert len(ratios) == 1


BASELINE_SETS = [dict(m_max=3, T_max=4), dict(m_max=4, T_max=6), dict(m_max=2, T_max=3),
                 dict(m_max=3, T_max=4, autonomous=True)]


def test_corollaries_imply_their_parent_instance():
    # a Stable corollary is an instance of a theorem the run also checks:
    # (corollary, parent, the witness both must report alike)
    hits = dict.fromkeys(["corollary7", "corollary8.2", "corollary6", "corollary8.1",
                          "theorem1", "corollary2", "corollary3"], 0)
    for kw in BASELINE_SETS:
        for seed in range(75):
            eq = random_equation(seed, **kw)
            by = {v.criterion: v for v in run_all(eq)}
            lag1 = next((l for l, t in enumerate(eq.terms) if set(t.delay.lags) == {1}), None)
            h2 = ",".join(map(str, eq.terms[-1].delay.lags))
            pairs = [("corollary7", "corollary4(g=1)", "gamma_min"),
                     ("corollary8.2", f"corollary4(g={h2})", "gamma_min"),
                     ("corollary6", f"theorem2(I={lag1})", None),
                     ("corollary8.1", "theorem2(I=0)", None),
                     ("theorem1", "theorem2(I=" + ",".join(map(str, range(eq.m))) + ")", None),
                     ("corollary2", "theorem1", "mu"),
                     ("corollary3", "theorem1", None)]
            for child, parent, same in pairs:
                if child not in by or by[child].outcome is not Outcome.STABLE:
                    continue
                hits[child] += 1
                assert by[parent].outcome is Outcome.STABLE, (seed, kw, child, parent)
                if same:
                    assert by[child].witnesses[same] == by[parent].witnesses[same]
    assert all(hits.values()), hits


def test_no_memoised_result_outlives_its_run(eq_periodic_mixed, eq_alternating, monkeypatch):
    want = _reports(eq_alternating)
    _reports(eq_periodic_mixed)
    assert seqexpr._scope is None
    # outside a run nothing is kept: each call runs
    calls = _counting(monkeypatch, ["check_lemma4"])
    check_corollary2(eq_alternating)
    check_corollary2(eq_alternating)
    assert len(calls) == 2
    monkeypatch.undo()
    once = criteria.once
    held = []

    def first_use(*args):
        held.append(dict(seqexpr._scope.memo))
        return once(*args)

    monkeypatch.setattr(criteria, "once", first_use)
    assert _reports(eq_alternating) == want
    assert held[0] == {}


def test_a_run_that_raises_drops_its_memo(eq_periodic_mixed, monkeypatch):
    want = _reports(eq_periodic_mixed)

    def boom(*args, **kw):
        assert seqexpr._scope.memo
        raise RuntimeError("checker failed")

    monkeypatch.setattr(criteria, "check_corollary7", boom)
    with pytest.raises(RuntimeError, match="checker failed"):
        run_all(eq_periodic_mixed)
    assert seqexpr._scope is None
    monkeypatch.undo()
    assert _reports(eq_periodic_mixed) == want


def test_run_all_evaluates_each_term_once_on_its_seed_window(monkeypatch):
    # validated on [0, 1000): the run evaluates each coefficient there
    # first, and every window a checker asks inside it is a slice of that
    eq = const_eq(("0.07 + 0.02*alt(n)", 2), ("per(0.03, 0.05)", 3))
    evaluated = []
    plain = seqexpr._eval_window

    def recording(expr, n0, n1):
        evaluated.append((expr, n0, n1))
        return plain(expr, n0, n1)

    monkeypatch.setattr(seqexpr, "_eval_window", recording)
    run_all(eq)
    for t in eq.terms:
        assert [(n0, n1) for e, n0, n1 in evaluated if e == t.coeff and n1 < 1000] == [(0, 999)]
        assert evaluated.index((t.coeff, 0, 999)) < eq.m


def test_run_all_refuses_unknown_families(eq_periodic_mixed):
    with pytest.raises(ValueError, match=r"unknown checks \['theorm1'\]; known: \('lemma4'"):
        run_all(eq_periodic_mixed, checks=["theorem1", "theorm1"])
    assert run_all(eq_periodic_mixed, checks=[]) == []


@pytest.mark.parametrize("generator", GENERATORS)
def test_memo_changes_no_report(generator, monkeypatch):
    for seed in range(25):
        eq = random_equation(seed, **GENERATORS[generator])
        memoised = _reports(eq)
        monkeypatch.setattr(criteria, "once", lambda fn, *args: fn(*args))
        assert _reports(eq) == memoised
        monkeypatch.undo()
