import math
import warnings

import numpy as np
import pytest

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
from delaystab import criteria
from delaystab.criteria import (
    CLAIM_POSITIVE,
    SCAN_LEAD_MULT,
    SCAN_LEN,
    PositivityCertificate,
    PositivityRefutation,
    certify_positivity,
    check_autonomous_nonosc,
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
    theorem5_lhs_rhs,
    _char_root,
)
from delaystab.equation import merge_same_delay
from delaystab.oracle import random_equation
from delaystab.simulator import kernel


def const_eq(*pairs):
    return validate([Term(parse(str(a)), DelaySpec.constant(lag)) for a, lag in pairs])


# --- positivity


def test_positivity_scan_factorial(eq_factorial):
    cert = positivity_scan(eq_factorial, 0, 100)
    assert isinstance(cert, PositivityCertificate)
    assert cert.min_value > 0


def test_positivity_scan_unbounded_is_positive(eq_unbounded):
    cert = positivity_scan(eq_unbounded, 0, 60)
    assert isinstance(cert, PositivityCertificate)  # positive but growing


def test_positivity_scan_refutation():
    eq = const_eq((1.5, 0))
    ref = positivity_scan(eq, 0, 50)
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
    return PositivityCertificate(n0, N, float(values.min()), "numerical_scan")


def _reference_certify(eq, window=None):
    """Try analytic positivity routes, then fall back to a kernel scan.

    Terms sharing a lag table are merged first so sign hypotheses apply to
    the effective coefficients.
    """
    merged = merge_same_delay(eq)
    pre = check_lemma4(merged, window)
    if pre.outcome is Outcome.STABLE and not pre.window_certified:
        return PositivityCertificate(0, -1, math.nan, "lemma4")
    if pre.outcome is not Outcome.NOT_APPLICABLE:
        root, part1, part2, exact = _char_root(merged, pre.window)
        if exact and part2:
            return PositivityCertificate(0, -1, math.nan, "autonomous_bound")
        if exact and part1:
            return PositivityCertificate(0, -1, root["lambda"], "corollary3_characteristic")
    n0 = SCAN_LEAD_MULT * eq.T
    N = n0 + max(SCAN_LEN, 10 * max(eq.T, 1))
    result = _reference_scan(eq, n0, N)
    if (isinstance(result, PositivityRefutation) and result.value == 0.0
            and result.n - n0 > 5 * eq.T + 20):
        # an exact zero that deep is a rapidly decaying kernel underflowing;
        # certify the numerically representable region instead
        result = _reference_scan(eq, n0, result.n - 1)
    return result


def _assert_same_positivity(got, want):
    assert type(got) is type(want)
    for key, value in vars(want).items():
        mine = getattr(got, key)
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(mine), key
        else:
            assert mine == value, key


def _positivity_calls(eq, monkeypatch):
    """Every equation and window run_all hands to certify_positivity."""
    seen = []
    certify = criteria.certify_positivity

    def recording(eq, window=None):
        seen.append((eq, window))
        return certify(eq, window)

    monkeypatch.setattr(criteria, "certify_positivity", recording)
    run_all(eq)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("autonomous", [False, True], ids=["periodic", "autonomous"])
def test_streamed_scan_matches_dense_reference(autonomous, monkeypatch):
    # the two generators of perfbench's check_periodic corpus
    kw = (dict(m_max=3, T_max=4, K_max=1.0, autonomous=True) if autonomous
          else dict(m_max=3, T_max=5, K_max=0.8))
    kinds = set()
    for seed in range(25):
        for eq, window in _positivity_calls(random_equation(seed, **kw), monkeypatch):
            want = _reference_certify(eq, window)
            _assert_same_positivity(certify_positivity(eq, window), want)
            kinds.add(getattr(want, "by", "refuted"))
    assert {"numerical_scan", "refuted"} <= kinds


def test_streamed_scan_certifies_rows_before_underflow():
    # X(n+1) = 1e-9 (1.5 + sin n) X(n) underflows to an exact zero at row 37
    eq = const_eq(("1 - 1e-9*(1.5 + sin(n))", 0))
    cert = certify_positivity(eq)
    assert isinstance(cert, PositivityCertificate) and cert.N == 36
    _assert_same_positivity(cert, _reference_certify(eq))
    _assert_same_positivity(positivity_scan(eq, 0, 200), cert)


def test_streamed_scan_refutation_matches_dense_reference():
    eq = const_eq((0.3, 2), (0.4, 1), ("-0.1*alt(n)", 0))
    ref = positivity_scan(eq, 10, 210)
    assert isinstance(ref, PositivityRefutation)
    _assert_same_positivity(ref, _reference_scan(eq, 10, 210))


def test_positivity_scan_caps_its_ring():
    # lag 4000 over [20000, 60000] needs 4,002 ring rows of 40,001 entries
    with pytest.raises(KernelMemoryError):
        positivity_scan(const_eq((0.0001, 4000)), 20_000, 60_000)


def test_scan_refutes_an_overflowing_kernel():
    # the kernel grows like 1e20^n, overflows to inf and then turns nan;
    # the dense scan let the nan through and certified it (min_value nan)
    eq = const_eq((0.001, 1), (-1e20, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = positivity_scan(eq, 5, 205)
        assert isinstance(certify_positivity(eq), PositivityRefutation)
    assert isinstance(ref, PositivityRefutation)
    assert not math.isfinite(ref.value)


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
    assert check_autonomous_nonosc(0.25, 1)
    assert not check_autonomous_nonosc(0.26, 1)
    assert check_autonomous_nonosc(0.1, 3)  # 27/256 ~ 0.10547
    assert not check_autonomous_nonosc(-0.1, 3)
    with pytest.raises(ValueError):
        check_autonomous_nonosc(0.1, 0)


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


def test_theorem2_sin_cos(eq_sin_cos):
    v = check_theorem2(eq_sin_cos, [0])
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["ratio"] < 0.667
    assert v.window_certified  # sin-driven coefficients are window estimates


def test_theorem2_full_set_ratio_zero():
    eq = const_eq((0.1, 1), (0.05, 2))
    v = check_theorem2(eq, [0, 1])
    assert v.witnesses["ratio"] == 0.0
    assert v.outcome is Outcome.STABLE


def test_theorem2_dominant_negative_part():
    eq = const_eq((0.1, 1), (-0.2, 3))
    v = check_theorem2(eq, [0])
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.witnesses["ratio"] >= 1.0


def test_theorem2_rejects_empty():
    with pytest.raises(ValueError):
        check_theorem2(const_eq((0.1, 1)), [])


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
    _, _, ns = theorem5_lhs_rhs(eq, [0], [DelaySpec.constant(1)], window, True)
    assert (ns[0], ns[-1]) == window


def test_corollary4_delegates(eq_periodic_mixed):
    v = check_corollary4(eq_periodic_mixed, eq_periodic_mixed.terms[1].delay)
    assert v.outcome is Outcome.STABLE
    assert v.criterion.startswith("corollary4")


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
    assert check_corollary10([0.2, 0.1]).outcome is Outcome.STABLE
    assert check_corollary10([0.3]).outcome is Outcome.INCONCLUSIVE
    v = check_corollary10([0.1, 0.05, 0.04])
    assert v.outcome is Outcome.STABLE and v.witnesses["k"] == 1.0
    with pytest.raises(ValueError):
        check_corollary10([])


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
    v = check_theorem2(eq, [0])
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


def test_stable_fixture_verdicts_match_empirical_decay(eq_sin_cos, eq_alternating,
                                                       eq_periodic_mixed):
    from delaystab import fit_decay, fundamental
    for eq in (eq_sin_cos, eq_alternating, eq_periodic_mixed):
        stable = stable_verdicts(run_all(eq))
        assert stable
        fit = fit_decay(fundamental(eq, 0, 1000), max(5 * eq.T, 20))
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
        check_corollary10([0.3]),
    ]
    assert all(v.outcome is Outcome.INCONCLUSIVE for v in inc)
