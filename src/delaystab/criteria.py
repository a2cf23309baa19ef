"""Exponential-stability tests returning auditable three-valued verdicts.

Every checker certifies a sufficient condition: Stable means the cited
inequalities hold with margin on the certification window, Inconclusive
means a test inequality failed (no instability claim is ever made), and
NotApplicable means a hypothesis predicate is violated or refuted.
Witness quantities record each value that was compared to a threshold.

Positivity of the fundamental function of a comparison equation is the
common hypothesis; it is certified analytically when the window-sum or
characteristic-root routes apply and by a finite kernel scan otherwise
(scan-backed verdicts are flagged window-certified), which stops at the
first kernel entry that is nonpositive or not finite.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels, limits
from .equation import Equation, Term, merge_same_delay, subset_equation, validate
from .oracle import autonomous_coefficients
from .seqexpr import DelaySpec

__all__ = [
    "Outcome",
    "Verdict",
    "PositivityCertificate",
    "PositivityRefutation",
    "positivity_scan",
    "certify_positivity",
    "nonosc_threshold",
    "check_lemma4",
    "check_autonomous_nonosc",
    "check_theorem1",
    "check_corollary2",
    "check_corollary3",
    "check_theorem2",
    "check_corollary_theorem5",
    "theorem5_lhs_rhs",
    "check_corollary4",
    "check_corollary6",
    "check_corollary7",
    "check_corollary8",
    "check_corollary9",
    "check_corollary10",
    "check_classical",
    "run_all",
    "stable_verdicts",
]


class Outcome(str, Enum):
    STABLE = "Stable"
    INCONCLUSIVE = "Inconclusive"
    NOT_APPLICABLE = "NotApplicable"


CLAIM_EXPONENTIAL = "exponentially stable"
CLAIM_ASYMPTOTIC = "asymptotically stable"
CLAIM_POSITIVE = "positive fundamental function"


@dataclass(frozen=True)
class Verdict:
    criterion: str
    outcome: Outcome
    claim: str
    witnesses: dict[str, float]
    window: tuple[int, int]
    window_certified: bool
    citation: str

    def to_dict(self) -> dict:
        # non-finite witnesses (a domination ratio with zero denominator)
        # become JSON null rather than the invalid literal Infinity
        witnesses = {
            k: (float(v) if math.isfinite(v) else None)
            for k, v in sorted(self.witnesses.items())
        }
        return {
            "criterion": self.criterion,
            "outcome": self.outcome.value,
            "claim": self.claim,
            "witnesses": witnesses,
            "window": list(self.window),
            "window_certified": self.window_certified,
            "citation": self.citation,
        }


@dataclass(frozen=True)
class PositivityCertificate:
    n0: int
    N: int
    min_value: float
    by: str  # numerical_scan | lemma4 | autonomous_bound | corollary3_characteristic


@dataclass(frozen=True)
class PositivityRefutation:
    n: int
    k: int
    value: float


# Strict thresholds need a margin above EPS; <= thresholds accept EPS of slack.
EPS = 1e-12
# p-step product horizons tried for the rate b^(1/p), besides P and 2P
P_CANDIDATES = (1, 2, 3, 4, 6, 8, 12)
# the fallback kernel scan starts at 5 T and runs max(200, 10 T) steps
SCAN_LEAD_MULT = 5
SCAN_LEN = 200
# the scan checks this many kernel rows per vectorised test
SCAN_BLOCK = 16
# theorem2 tries every index subset up to this many terms
SUBSET_CAP = 12
# classical_32 needs more tail coefficient mass than this
DIVERGENCE_EPS = 1e-6
# golden-section search for corollary 3's characteristic root stops at this width
LAMBDA_TOL = 1e-10

# The certification-window override; None means limits.default_window.
Window = Optional[tuple[int, int]]


def _win(eq: Equation, window: Window) -> tuple[int, int]:
    return window or limits.default_window(eq)


def nonosc_threshold(k: int) -> float:
    """k^k / (k+1)^(k+1): the sharp autonomous nonoscillation bound."""
    thr = (k**k) / float((k + 1) ** (k + 1))
    if os.environ.get("DELAYSTAB_LOOSEN_THRESHOLDS"):
        # mutation self-check hook: corrupt the bound far enough that the
        # fuzz harness must surface unsound verdicts
        thr *= 6.0
    return thr


def _term_bounds(eq: Equation, l: int, window: tuple[int, int]) -> tuple[float, float, bool]:
    """(inf, sup, exact) of coefficient l over its span."""
    (values,), exact = limits.coeff_span(eq, window, [l])
    return float(values.min()), float(values.max()), exact


def _sum_bounds(eq: Equation, indices: Sequence[int],
                window: tuple[int, int]) -> tuple[float, float, bool]:
    """(inf, sup, exact) of sum_{l in indices} a_l over their span."""
    table, exact = limits.coeff_span(eq, window, indices)
    total = sum(table)
    return float(total.min()), float(total.max()), exact


def _all_nonnegative(eq: Equation, indices: Sequence[int],
                     window: tuple[int, int]) -> tuple[bool, float]:
    worst = math.inf
    for l in indices:
        inf, _, _ = _term_bounds(eq, l, window)
        worst = min(worst, inf)
    return worst >= -EPS, worst


def _best_product(eq: Equation, window: Window) -> tuple[int, float, bool]:
    """(p, b, exact) minimizing the rate b^(1/p) over candidate horizons."""
    window = _win(eq, window)
    candidates = set(P_CANDIDATES)
    period = limits.aggregate_period(eq)
    if period is not None:
        candidates |= {period, 2 * period}
    best = None
    for q in sorted(candidates):
        est = limits.limsup_product(eq, q, window)
        rate = max(est.value, 0.0) ** (1.0 / q)
        if best is None or rate < best[3]:
            best = (q, est.value, est.exact, rate)
    q, b, exact, _ = best
    return q, b, exact


# ---------------------------------------------------------------------------
# Positivity of the fundamental function


def positivity_scan(eq: Equation, n0: int, N: int) -> Union[PositivityCertificate, PositivityRefutation]:
    """Stream the rows of X on [n0, N]: the first entry that is nonpositive
    or not finite (n outward, then k) refutes, unless it is an exact zero
    more than 5T + 20 rows deep, a decaying kernel underflowing, which
    certifies the rows before it; otherwise certify with the minimum."""
    if N - n0 < 5 * eq.T:
        raise ValueError(f"scan window must span at least 5T = {5 * eq.T}")
    size = N - n0 + 1
    rows = _kernels.kernel_rows(eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1), size)
    # rows are checked SCAN_BLOCK at a time; the 1.0 past a row's end never
    # decides, as the diagonal X(k, k) = 1 keeps each row's minimum <= 1
    block, low = np.ones((SCAN_BLOCK, size)), math.inf
    # an overflowing kernel turns inf and then nan; both refute
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in enumerate(rows):
            j = i % SCAN_BLOCK
            block[j, : i + 1] = row
            if j < SCAN_BLOCK - 1 and i < size - 1:
                continue
            ok = (block[: j + 1] > 0.0) & (block[: j + 1] < math.inf)
            if not ok.all():
                r, k = divmod(int(np.argmin(ok)), size)
                n, value = i - j + r, float(block[r, k])
                if value == 0.0 and n > 5 * eq.T + 20:
                    low = min(low, float(block[:r].min(initial=math.inf)))
                    return PositivityCertificate(n0, n0 + n - 1, low, "numerical_scan")
                return PositivityRefutation(n0 + n, n0 + k, value)
            low = min(low, float(block[: j + 1].min()))
    return PositivityCertificate(n0, N, low, "numerical_scan")


def check_lemma4(eq: Equation, window: Window = None) -> Verdict:
    """Nonoscillation: nonnegative coefficients with sup sum < 1/2 and the
    delayed double window sum <= 1/4 force an eventually positive kernel."""
    window = _win(eq, window)
    nonneg, worst = _all_nonnegative(eq, range(eq.m), window)
    _, sup_sum, sup_exact = _sum_bounds(eq, range(eq.m), window)
    double = limits.windowed_delayed_sum(eq, [t.delay for t in eq.terms], -1, window,
                                         limits.aggregate_period(eq, with_delays=True))
    witnesses = {"min_coeff": worst, "sup_sum": sup_sum, "double_sum": double.value}
    if not nonneg:
        outcome = Outcome.NOT_APPLICABLE
    elif sup_sum < 0.5 - EPS and double.value <= 0.25 + EPS:
        outcome = Outcome.STABLE
    else:
        outcome = Outcome.INCONCLUSIVE
    return Verdict(
        "lemma4", outcome, CLAIM_POSITIVE, witnesses, window,
        not (sup_exact and double.exact),
        "positive kernel via coefficient window sums (sup < 1/2, delayed sum <= 1/4)",
    )


def check_autonomous_nonosc(a: float, k: int) -> bool:
    """Sharp test 0 < a <= k^k/(k+1)^(k+1) for a single constant delay k >= 1."""
    if k < 1:
        raise ValueError("delay must be >= 1")
    return 0.0 < a <= nonosc_threshold(k)


def certify_positivity(eq: Equation, window: Window = None
                       ) -> Union[PositivityCertificate, PositivityRefutation]:
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
    return positivity_scan(eq, n0, N)


def _char_root(eq: Equation, window: tuple[int, int]
               ) -> tuple[dict[str, float], bool, bool, bool]:
    """Corollary 3 on the caps alpha_l = sup a_l at delays tau_l: (witnesses,
    part 1 (a root lam in (0, 1]), part 2 (one term under the sharp
    autonomous bound), exact)."""
    alphas, taus, exact = [], [], True
    for l in range(eq.m):
        _, sup, term_exact = _term_bounds(eq, l, window)
        alphas.append(max(sup, 0.0))
        taus.append(eq.terms[l].delay.max_lag)
        exact = exact and term_exact
    lam, fmin = _char_lambda_search(alphas, taus)
    witnesses = {"lambda": lam, "f_min": fmin}
    part2 = False
    if eq.m == 1:
        k = max(1, eq.terms[0].delay.max_lag)
        witnesses["k"] = float(k)
        part2 = alphas[0] <= nonosc_threshold(k) + EPS
    return witnesses, fmin <= EPS, part2, exact


def _char_lambda_search(alphas: Sequence[float], taus: Sequence[int]) -> tuple[float, float]:
    """Minimize f(lam) = lam - 1 + sum alpha_l lam^(-tau_l) on (0, 1].

    f is convex for nonnegative alphas, so golden-section search locates
    the minimum; f(lam) <= 0 yields a positive characteristic root.
    """

    def f(lam: float) -> float:
        return lam - 1.0 + sum(a * lam ** (-t) for a, t in zip(alphas, taus))

    lo, hi = 1e-6, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > LAMBDA_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    xs = [lo, (lo + hi) / 2.0, hi, 1.0]
    best = min(xs, key=f)
    return best, f(best)


# ---------------------------------------------------------------------------
# Main rate theorem and its corollaries


def check_theorem1(eq: Equation,
                   positivity: Union[PositivityCertificate, PositivityRefutation, None],
                   window: Window = None) -> Verdict:
    """Positive kernel + nonnegative coefficients: a positive liminf of the
    coefficient sum (rate 1 - a), or a p-step product staying below one
    (rate b^(1/p)), certify exponential stability."""
    window = _win(eq, window)
    witnesses: dict[str, float] = {}
    certified = isinstance(positivity, PositivityCertificate) and positivity.by == "numerical_scan"
    if positivity is None or isinstance(positivity, PositivityRefutation):
        if isinstance(positivity, PositivityRefutation):
            witnesses = {"refuted_n": positivity.n, "refuted_k": positivity.k,
                         "refuted_value": positivity.value}
        return Verdict("theorem1", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, certified,
                       "positive-kernel rate bound (kernel positivity unavailable)")
    nonneg, worst = _all_nonnegative(eq, range(eq.m), window)
    if not nonneg:
        return Verdict("theorem1", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       {"min_coeff": worst}, window, certified,
                       "positive-kernel rate bound (needs nonnegative coefficients)")
    est_a = limits.liminf_sum(eq, window)
    witnesses["a"] = est_a.value
    certified = certified or not est_a.exact
    if est_a.value > EPS:
        witnesses["mu"] = max(1.0 - est_a.value, 0.0)
        return Verdict("theorem1", Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified,
                       "positive kernel with liminf coefficient sum > 0")
    q, b, exact = _best_product(eq, window)
    witnesses.update({"p": float(q), "b": b})
    certified = certified or not exact
    if b < 1.0 - EPS:
        witnesses["mu"] = max(b, 0.0) ** (1.0 / q)
        return Verdict("theorem1", Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified,
                       "positive kernel with p-step coefficient product < 1")
    return Verdict("theorem1", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "positive-kernel rate bound (both rate conditions failed)")


def check_corollary2(eq: Equation, window: Window = None) -> Verdict:
    """Nonoscillation window sums supply the kernel positivity, then the
    rate theorem runs on top."""
    pre = check_lemma4(eq, window)
    if pre.outcome is Outcome.NOT_APPLICABLE:
        return replace(pre, criterion="corollary2", claim=CLAIM_EXPONENTIAL,
                       citation="window-sum positivity + rate bound (negative coefficient)")
    if pre.outcome is Outcome.INCONCLUSIVE:
        return replace(pre, criterion="corollary2", claim=CLAIM_EXPONENTIAL,
                       citation="window-sum positivity + rate bound (window sums too large)")
    cert = PositivityCertificate(0, -1, math.nan, "lemma4")
    v = check_theorem1(eq, cert, window)
    merged = {**pre.witnesses, **v.witnesses}
    return Verdict("corollary2", v.outcome, CLAIM_EXPONENTIAL, merged, v.window,
                   v.window_certified or pre.window_certified,
                   "window-sum positivity + rate bound")


def check_corollary3(eq: Equation, window: Window = None) -> Verdict:
    """Characteristic-root comparison: coefficient caps alpha_l at delays
    tau_l admitting lam - 1 + sum alpha_l lam^(-tau_l) <= 0 (part 1), or a
    single term under the sharp autonomous bound (part 2)."""
    window = _win(eq, window)
    witnesses: dict[str, float] = {}
    nonneg, worst = _all_nonnegative(eq, range(eq.m), window)
    witnesses["min_coeff"] = worst
    if not nonneg:
        return Verdict("corollary3", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, False,
                       "characteristic-root comparison (needs nonnegative coefficients)")
    root, part1, part2, exact = _char_root(eq, window)
    witnesses.update(root)
    certified = not exact
    if not (part1 or part2):
        return Verdict("corollary3", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL,
                       witnesses, window, certified,
                       "characteristic-root comparison (no positive root found)")
    q, b, exact = _best_product(eq, window)
    witnesses.update({"p": float(q), "b": b, "part": 1.0 if part1 else 2.0})
    certified = certified or not exact
    if b < 1.0 - EPS:
        witnesses["mu"] = max(b, 0.0) ** (1.0 / q)
        return Verdict("corollary3", Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified, "characteristic-root comparison")
    return Verdict("corollary3", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "characteristic-root comparison (p-step product not below 1)")


def check_theorem2(eq: Equation, I: Sequence[int], window: Window = None) -> Verdict:
    """Dominant positive part: the I-terms alone form a positive-kernel
    equation with product rate < 1, and the remaining terms are uniformly
    smaller in limsup ratio."""
    I = sorted(set(I))
    if not I:
        raise ValueError("empty index set")
    # the comparison equation resolves its own default window
    override, window = window, _win(eq, window)
    label = "theorem2(I=" + ",".join(map(str, I)) + ")"
    nonneg, worst = _all_nonnegative(eq, I, window)
    if not nonneg:
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       {"min_coeff": worst}, window, False,
                       "dominant positive part (kept terms must be nonnegative)")
    sub = subset_equation(eq, I)
    cert = certify_positivity(sub, override)
    certified = isinstance(cert, PositivityCertificate) and cert.by == "numerical_scan"
    witnesses: dict[str, float] = {"min_coeff": worst}
    if isinstance(cert, PositivityRefutation):
        witnesses.update({"refuted_n": cert.n, "refuted_k": cert.k})
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, True,
                       "dominant positive part (comparison kernel not positive)")
    q, b, exact = _best_product(sub, override)
    witnesses.update({"p": float(q), "b": b})
    certified = certified or not exact
    ratio, ratio_exact = _limsup_ratio(eq, I, window)
    witnesses["ratio"] = ratio
    certified = certified or not ratio_exact
    if b < 1.0 - EPS and ratio < 1.0 - EPS:
        witnesses["mu"] = max(b, 0.0) ** (1.0 / q)
        return Verdict(label, Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified, "dominant positive part")
    return Verdict(label, Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "dominant positive part (rate or domination ratio failed)")


def _limsup_ratio(eq: Equation, I: Sequence[int],
                  window: tuple[int, int]) -> tuple[float, bool]:
    """limsup of sum_{l not in I} |a_l| / sum_{l in I} a_l."""
    out = [l for l in range(eq.m) if l not in I]
    table, exact = limits.coeff_span(eq, window)
    if not out:
        return 0.0, exact
    den = sum(table[l] for l in I)
    num = sum(np.abs(table[l]) for l in out)
    live = den > 0.0
    if (num[~live] > 0.0).any():
        return math.inf, exact
    return float((num[live] / den[live]).max(initial=0.0)), exact


# ---------------------------------------------------------------------------
# Comparison with shifted delays (the gap-product tests)


def theorem5_lhs_rhs(eq: Equation, I: Sequence[int],
                     g_override: Sequence[DelaySpec],
                     window: tuple[int, int],
                     exact: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise left/right sides of the comparison inequality: for n in the
    evaluation strip, lhs(n) = sum_{k in I} |a_k(n)| * (abs-aggregate over
    the index gap between h_k(n) and the comparison delay g_k(n)) plus the
    excluded terms, rhs(n) = sum_{k in I} a_k(n).  Returns (lhs, rhs, ns).
    """
    lhs, rhs, strip = _gap_sides(eq, I, g_override, window, exact)
    return lhs, rhs, strip.ns


def _gap_sides(eq: Equation, I: Sequence[int], g_override: Sequence[DelaySpec],
               window: tuple[int, int], exact: bool
               ) -> tuple[np.ndarray, np.ndarray, limits.DelayStrip]:
    """theorem5_lhs_rhs with its strip.  ``exact`` asks for one exact
    period; the strip is the window when any coefficient is general."""
    I = sorted(set(I))
    moved = {l: g for l, g in zip(I, g_override)}
    period = limits.aggregate_period(eq, with_delays=True) if exact else None
    if period is not None:
        for g in g_override:
            period = math.lcm(period, g.period)
    strip = limits.delay_strip([eq.terms[l].delay for l in I] + [moved[l] for l in I],
                               window, period)
    ns = strip.ns
    absagg = np.abs(eq.coeff_table(strip.lo, int(ns[-1]))).sum(axis=0)
    table = eq.coeff_table(int(ns[0]), int(ns[-1]))
    lhs = np.zeros(len(ns))
    rhs = np.zeros(len(ns))
    for l in range(eq.m):
        if l in moved:
            i = I.index(l)
            h = ns - strip.lags[i]
            g = ns - strip.lags[len(I) + i]
            lhs += np.abs(table[l]) * strip.sums(absagg, np.minimum(h, g), np.maximum(h, g))
            rhs += table[l]
        else:
            lhs += np.abs(table[l])
    return lhs, rhs, strip


def check_corollary_theorem5(eq: Equation, I: Sequence[int],
                             g_override: Sequence[DelaySpec],
                             window: Window = None) -> Verdict:
    """Comparison equation built from the I-terms at shifted delays g_l:
    positivity of its kernel plus a gap-product inequality with gamma < 1
    certify exponential stability."""
    I = sorted(set(I))
    if not I:
        raise ValueError("empty index set")
    if len(g_override) != len(I):
        raise ValueError(f"g_override arity {len(g_override)} != |I| = {len(I)}")
    # the comparison equation resolves its own default window
    override, window = window, _win(eq, window)
    label = "theorem5(I=" + ",".join(map(str, I)) + ")"
    inf_s, sup_s, exact_s = _sum_bounds(eq, I, window)
    witnesses = {"alpha0": inf_s, "alpha1": sup_s}
    certified = not exact_s
    if not (inf_s > EPS and sup_s < 1.0 - EPS):
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified,
                       "shifted-delay comparison (kept sum must sit inside (0, 1))")
    cmp_terms = [Term(eq.terms[l].coeff, g) for l, g in zip(I, g_override)]
    cmp_eq = validate(cmp_terms, None, eq.validation_window[1])
    cert = certify_positivity(cmp_eq, override)
    if isinstance(cert, PositivityRefutation):
        witnesses.update({"refuted_n": cert.n, "refuted_k": cert.k})
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, True,
                       "shifted-delay comparison (comparison kernel not positive)")
    lhs, rhs, strip = _gap_sides(eq, I, g_override, window, exact_s)
    certified = certified or cert.by == "numerical_scan" or not strip.exact
    gamma = float((lhs / rhs).max())
    witnesses["gamma_min"] = gamma
    if gamma < 1.0 - EPS:
        return Verdict(label, Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified, "shifted-delay comparison")
    return Verdict(label, Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "shifted-delay comparison (gap product needs gamma < 1)")


def check_corollary4(eq: Equation, g: DelaySpec, window: Window = None) -> Verdict:
    """All terms moved to one common comparison delay g."""
    v = check_corollary_theorem5(eq, list(range(eq.m)), [g] * eq.m, window)
    label = f"corollary4(g={','.join(map(str, g.lags))})"
    return replace(v, criterion=label,
                   citation=v.citation.replace("shifted-delay comparison",
                                               "common-delay comparison"))


def check_corollary6(eq: Equation, window: Window = None) -> Verdict:
    """A lag-1 term pinned inside (0, 1/4) dominating the other terms."""
    designated = None
    for l, t in enumerate(eq.terms):
        if set(t.delay.lags) == {1}:
            designated = l
            break
    if designated is None:
        raise ValueError("no term with lag identically 1")
    window = _win(eq, window)
    inf_a, sup_a, exact_a = _term_bounds(eq, designated, window)
    witnesses = {"a0": inf_a, "b0": sup_a, "term": float(designated)}
    certified = not exact_a
    if not (inf_a > EPS and sup_a < 0.25 - EPS):
        return Verdict("corollary6", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, certified,
                       "dominant lag-1 term (needs range inside (0, 1/4))")
    gamma, exact = _limsup_ratio(eq, [designated], window)
    certified = certified or not exact
    witnesses["gamma_min"] = gamma
    if gamma < 1.0 - EPS:
        return Verdict("corollary6", Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified, "dominant lag-1 term")
    return Verdict("corollary6", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "dominant lag-1 term (perturbation ratio needs gamma < 1)")


def check_corollary7(eq: Equation, window: Window = None) -> Verdict:
    """Aggregate sum inside (0, 1/4) with the memory products dominated by
    the aggregate itself; the inner windows run from h_k(n) up to n-2, so
    they are empty whenever every lag is at most 1."""
    window = _win(eq, window)
    if any(min(t.delay.lags) < 1 for t in eq.terms):
        # the gap windows [h_k(n), n-2] presume every term is delayed; an
        # undelayed term moves a full step and the bound no longer covers it
        return Verdict("corollary7", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       {}, window, False,
                       "short-memory domination (every lag must be >= 1)")
    inf_s, sup_s, exact_s = _sum_bounds(eq, range(eq.m), window)
    witnesses = {"a0": inf_s, "b0": sup_s}
    certified = not exact_s
    if not (inf_s > EPS and sup_s < 0.25 - EPS):
        return Verdict("corollary7", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, certified,
                       "short-memory domination (needs aggregate inside (0, 1/4))")
    # every term compared at the common delay 1: the gap [h_k(n), n-1)
    lhs, rhs, _ = theorem5_lhs_rhs(eq, range(eq.m), [DelaySpec.constant(1)] * eq.m,
                                   window, exact_s)
    gamma = float((lhs / rhs).max())
    witnesses["gamma_min"] = gamma
    if gamma < 1.0 - EPS:
        return Verdict("corollary7", Outcome.STABLE, CLAIM_EXPONENTIAL, witnesses,
                       window, certified, "short-memory domination")
    return Verdict("corollary7", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL, witnesses,
                   window, certified,
                   "short-memory domination (gap product needs gamma < 1)")


def _pair_sum_expr(eq: Equation):
    from .seqexpr import added
    return added(eq.terms[0].coeff, eq.terms[1].coeff)


def check_corollary8(eq: Equation, part: int, window: Window = None) -> Verdict:
    """Two-term tests: (1) first term inside (0, 1/2) with window sum
    <= 1/4 dominating |b|; (2) the pair sum inside (0, 1/2) with window sum
    <= 1/4 and the delay-gap product below the pair sum."""
    if eq.m != 2:
        raise ValueError(f"needs exactly two terms, got {eq.m}")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    # the pair-sum comparison equation resolves its own default window
    override, window = window, _win(eq, window)
    label = f"corollary8.{part}"
    if part == 1:
        inf_a, sup_a, exact_a = _term_bounds(eq, 0, window)
        witnesses = {"a_inf": inf_a, "a_sup": sup_a}
        certified = not exact_a
        if not (inf_a > EPS and sup_a < 0.5 - EPS):
            return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                           witnesses, window, certified,
                           "two-term splitting, part 1 (first term must sit inside (0, 1/2))")
        wsum = limits.delay_window_sum(subset_equation(eq, [0]), 0, window)
        witnesses["window_sum"] = wsum.value
        certified = certified or not wsum.exact
        gamma, exact = _limsup_ratio(eq, [0], window)
        certified = certified or not exact
        witnesses["gamma_min"] = gamma
        ok = wsum.value <= 0.25 + EPS and gamma < 1.0 - EPS
        outcome = Outcome.STABLE if ok else Outcome.INCONCLUSIVE
        return Verdict(label, outcome, CLAIM_EXPONENTIAL, witnesses, window,
                       certified, "two-term splitting, part 1 (dominant first term)")
    inf_s, sup_s, exact_s = _sum_bounds(eq, [0, 1], window)
    witnesses = {"sum_inf": inf_s, "sum_sup": sup_s}
    certified = not exact_s
    if not (inf_s > EPS and sup_s < 0.5 - EPS):
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, certified,
                       "two-term splitting, part 2 (pair sum must sit inside (0, 1/2))")
    # the gap inequality below moves the first term onto the second delay,
    # so the pair-sum comparison equation at that delay must have a
    # positive kernel; without this hypothesis the test would certify
    # e.g. (-0.06, lag 0) + (0.46, lag 3), which diverges
    pair = validate([Term(_pair_sum_expr(eq), eq.terms[1].delay)],
                    None, eq.validation_window[1])
    cert = certify_positivity(pair, override)
    if isinstance(cert, PositivityRefutation):
        witnesses.update({"refuted_n": cert.n, "refuted_k": cert.k})
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, window, True,
                       "two-term splitting, part 2 (pair-sum comparison kernel not positive)")
    certified = certified or cert.by == "numerical_scan"
    wsum = limits.delay_window_sum(eq, 0, window)
    witnesses["window_sum"] = wsum.value
    certified = certified or not wsum.exact
    # the displayed gap inequality: |a(n)| times the abs-aggregate between
    # the two delays, strictly below gamma * (a(n) + b(n)); both terms at
    # the second delay leave the second term no gap
    second = eq.terms[1].delay
    lhs, rhs, _ = theorem5_lhs_rhs(eq, [0, 1], [second, second], window, exact_s)
    gamma = float((lhs / rhs).max())
    witnesses["gamma_min"] = gamma
    ok = wsum.value <= 0.25 + EPS and gamma < 1.0 - EPS
    outcome = Outcome.STABLE if ok else Outcome.INCONCLUSIVE
    return Verdict(label, outcome, CLAIM_EXPONENTIAL, witnesses, window,
                   certified, "two-term splitting, part 2 (moving the second delay)")


def check_corollary9(a: float, g: int, b: float, h: int, part: int) -> Verdict:
    """Autonomous two-delay tests under the sharp nonoscillation bound."""
    if a * g == 0 or b * h == 0:
        raise ValueError("needs a*g != 0 and b*h != 0")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    label = f"corollary9.{part}"
    thr = nonosc_threshold(g)
    if part == 1:
        witnesses = {"a": a, "b": b, "threshold": thr}
        if not (a > EPS and a <= thr + EPS):
            return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                           witnesses, (0, 0), False,
                           "autonomous two-delay, part 1 (first coefficient outside (0, threshold])")
        outcome = Outcome.STABLE if abs(b) < a - EPS else Outcome.INCONCLUSIVE
        return Verdict(label, outcome, CLAIM_EXPONENTIAL, witnesses, (0, 0), False,
                       "autonomous two-delay, part 1 (|b| < a under nonoscillation bound)")
    # part 2 moves the first term onto the second delay h, so the pair sum
    # must clear the nonoscillation bound at h (gating it at g admits
    # counterexamples such as a=0.01 g=1, b=0.22 h=9, which diverges), and
    # for mixed signs the gap picks up the absolute coefficient mass
    thr_h = nonosc_threshold(h)
    gap = abs(a) * abs(g - h) * (abs(a) + abs(b))
    witnesses = {"a": a, "b": b, "sum": a + b, "threshold": thr_h,
                 "gap_displayed": abs(a * (g - h))}
    if not (a + b > EPS and a + b <= thr_h + EPS):
        return Verdict(label, Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                       witnesses, (0, 0), False,
                       "autonomous two-delay, part 2 (pair sum outside (0, threshold])")
    witnesses["gap_ratio"] = gap / (a + b)
    ok = abs(a * (g - h)) < 1.0 - EPS and witnesses["gap_ratio"] < 1.0 - EPS
    outcome = Outcome.STABLE if ok else Outcome.INCONCLUSIVE
    return Verdict(label, outcome, CLAIM_EXPONENTIAL, witnesses, (0, 0), False,
                   "autonomous two-delay, part 2 (first term moved onto the second delay)")


def check_corollary10(a: Sequence[float]) -> Verdict:
    """Autonomous equation with lags 1..m: some head sum must sit under the
    sharp bound while dominating the tail in absolute value."""
    a = [float(v) for v in a]
    if not a:
        raise ValueError("empty coefficient list")
    m = len(a)
    for k in range(1, m + 1):
        if a[k - 1] < -EPS:
            break  # head terms must be nonnegative for the comparison root
        head = sum(a[:k])
        tail = sum(abs(v) for v in a[k:])
        if head > EPS and head <= nonosc_threshold(k) + EPS and tail < head - EPS:
            return Verdict("corollary10", Outcome.STABLE, CLAIM_EXPONENTIAL,
                           {"k": float(k), "head_sum": head, "tail_abs_sum": tail},
                           (0, 0), False, "autonomous head-dominance over lags 1..m")
    head = sum(a[:1])
    return Verdict("corollary10", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL,
                   {"k": 0.0, "head_sum": head}, (0, 0), False,
                   "autonomous head-dominance over lags 1..m (no admissible split)")


# ---------------------------------------------------------------------------
# Classical comparison tests


def check_classical(eq: Equation, window: Window = None) -> list[Verdict]:
    """The three staple tests: the 3/2-type delayed sum bound (asymptotic
    claim), the autonomous margin test, and the pi/2 weighted-lag bound."""
    window = _win(eq, window)
    out: list[Verdict] = []

    # 3/2-type bound on the aggregate summed over the deepest delay window,
    # inclusive upper index n
    nonneg, worst = _all_nonnegative(eq, range(eq.m), window)
    agg = eq.coeff_table(window[0], window[1]).sum(axis=0)
    tail_mass = float(agg[len(agg) // 2 :].sum())
    period = limits.aggregate_period(eq, with_delays=True)
    if not nonneg or tail_mass <= DIVERGENCE_EPS:
        out.append(Verdict("classical_32", Outcome.NOT_APPLICABLE, CLAIM_ASYMPTOTIC,
                           {"min_coeff": worst, "tail_mass": tail_mass}, window, True,
                           "3/2-type delayed sum bound (needs nonnegative, divergent coefficients)"))
    else:
        delays = [t.delay for t in eq.terms]
        k = int(limits.delay_strip(delays, window, period).lags.max())
        est = limits.windowed_delayed_sum(eq, delays, 0, window, period)
        thr = 1.5 + 1.0 / (2.0 * k + 2.0)
        witnesses = {"delayed_sum": est.value, "threshold": thr, "k": float(k)}
        outcome = Outcome.STABLE if est.value < thr - EPS else Outcome.INCONCLUSIVE
        out.append(Verdict("classical_32", outcome, CLAIM_ASYMPTOTIC, witnesses,
                           window, not est.exact, "3/2-type delayed sum bound"))

    pairs = autonomous_coefficients(eq)

    # autonomous margin test: sum a_l * lag_l < 1 + 1/e - sum a_l
    if pairs is None or any(c <= 0 for c, _ in pairs):
        out.append(Verdict("classical_margin", Outcome.NOT_APPLICABLE, CLAIM_ASYMPTOTIC,
                           {}, window, False,
                           "autonomous margin test (needs positive constant coefficients)"))
    else:
        lhs = sum(c * lag for c, lag in pairs)
        rhs = 1.0 + 1.0 / math.e - sum(c for c, _ in pairs)
        outcome = Outcome.STABLE if lhs < rhs - EPS else Outcome.INCONCLUSIVE
        out.append(Verdict("classical_margin", outcome, CLAIM_ASYMPTOTIC,
                           {"weighted_lags": lhs, "margin": rhs}, window, False,
                           "autonomous margin test"))

    # pi/2 bound: the reported diagnostic is the per-term delayed absolute
    # window sum (sum_k lag_k * a_k for an autonomous equation).  The
    # stability gate weights each coefficient by the full step depth
    # lag + 1 (the recurrence advances from n to n+1), which is the form
    # for which pi/2 really is the best constant; weighting by the bare
    # lag would wrongly certify e.g. a = 0.37 at lag 4.
    diag = _pi_half_diagnostic(eq, window, period)
    witnesses = {"diagnostic_sum": diag.value, "threshold": math.pi / 2.0}
    applicable = (pairs is not None and all(c >= 0 for c, _ in pairs)
                  and all(lag >= 1 for _, lag in pairs)
                  and sum(c for c, _ in pairs) > EPS)
    if applicable:
        weighted = sum(c * (lag + 1) for c, lag in pairs)
        witnesses["step_weighted_sum"] = weighted
    if diag.value >= math.pi / 2.0 - EPS:
        out.append(Verdict("classical_pi_half", Outcome.INCONCLUSIVE, CLAIM_EXPONENTIAL,
                           witnesses, window, not diag.exact,
                           "pi/2 weighted-lag bound (sum not below pi/2)"))
    elif applicable:
        outcome = (Outcome.STABLE if witnesses["step_weighted_sum"] < math.pi / 2.0 - EPS
                   else Outcome.INCONCLUSIVE)
        out.append(Verdict("classical_pi_half", outcome, CLAIM_EXPONENTIAL,
                           witnesses, window, not diag.exact, "pi/2 weighted-lag bound"))
    else:
        out.append(Verdict("classical_pi_half", Outcome.NOT_APPLICABLE, CLAIM_EXPONENTIAL,
                           witnesses, window, not diag.exact,
                           "pi/2 weighted-lag bound (certifies delayed autonomous nonnegative equations)"))
    return out


def _pi_half_diagnostic(eq: Equation, window: tuple[int, int],
                        period: Optional[int]) -> limits.AsymptoticEstimate:
    """sup_n sum_l sum_{k=h_l(n)}^{n-1} |a_l(k)|."""
    strip = limits.delay_strip([t.delay for t in eq.terms], window, period)
    ns = strip.ns
    hi = int(ns[-1]) - 1
    if hi < strip.lo:
        return limits.AsymptoticEstimate(0.0, strip.exact)
    table = np.abs(eq.coeff_table(strip.lo, hi))
    total = np.zeros(len(ns))
    for l in range(eq.m):
        total += strip.sums(table[l], ns - strip.lags[l], ns)
    return limits.AsymptoticEstimate(float(total.max()), strip.exact)


# ---------------------------------------------------------------------------
# Orchestration


def _theorem2_subsets(eq: Equation) -> list[tuple[int, ...]]:
    """Every nonempty subset up to SUBSET_CAP terms; above it, the full set
    and each set with one term dropped."""
    indices = list(range(eq.m))
    if eq.m <= SUBSET_CAP:
        subsets = []
        for size in range(1, eq.m + 1):
            subsets.extend(itertools.combinations(indices, size))
        return subsets
    full = tuple(indices)
    out = [full]
    for drop in indices:
        out.append(tuple(i for i in indices if i != drop))
    return out


def run_all(eq: Equation, window: Window = None,
            checks: Optional[Sequence[str]] = None) -> list[Verdict]:
    """Run every applicable checker; verdicts sorted Stable-first, then by
    criterion id.  ``window`` overrides the certification window;
    ``checks`` filters by criterion family name."""

    def want(family: str) -> bool:
        return checks is None or family in checks

    verdicts: list[Verdict] = []
    cert = certify_positivity(eq, window)
    if want("lemma4"):
        verdicts.append(check_lemma4(eq, window))
    if want("theorem1"):
        verdicts.append(check_theorem1(eq, cert, window))
    if want("corollary2"):
        verdicts.append(check_corollary2(eq, window))
    if want("corollary3"):
        verdicts.append(check_corollary3(eq, window))
    if want("theorem2"):
        for I in _theorem2_subsets(eq):
            verdicts.append(check_theorem2(eq, I, window))
    if want("corollary4"):
        seen: list[DelaySpec] = []
        for t in eq.terms:
            if t.delay not in seen:
                seen.append(t.delay)
        if DelaySpec.constant(1) not in seen:
            seen.append(DelaySpec.constant(1))
        for g in seen:
            verdicts.append(check_corollary4(eq, g, window))
    if want("corollary6") and any(set(t.delay.lags) == {1} for t in eq.terms):
        verdicts.append(check_corollary6(eq, window))
    if want("corollary7"):
        verdicts.append(check_corollary7(eq, window))
    if want("corollary8") and eq.m == 2:
        verdicts.append(check_corollary8(eq, 1, window))
        verdicts.append(check_corollary8(eq, 2, window))
    pairs = autonomous_coefficients(eq)
    if want("corollary9") and pairs is not None and len(pairs) == 2:
        (a, g), (b, h) = pairs
        if a * g != 0 and b * h != 0:
            verdicts.append(check_corollary9(a, g, b, h, 1))
            verdicts.append(check_corollary9(a, g, b, h, 2))
    if want("corollary10") and pairs is not None and all(lag >= 1 for _, lag in pairs):
        by_lag: dict[int, float] = {}
        for c, lag in pairs:
            by_lag[lag] = by_lag.get(lag, 0.0) + c
        coeffs = [by_lag.get(lag, 0.0) for lag in range(1, max(by_lag) + 1)]
        verdicts.append(check_corollary10(coeffs))
    if want("classical"):
        verdicts.extend(check_classical(eq, window))
    rank = {Outcome.STABLE: 0, Outcome.INCONCLUSIVE: 1, Outcome.NOT_APPLICABLE: 2}
    verdicts.sort(key=lambda v: (rank[v.outcome], v.criterion))
    return verdicts


def stable_verdicts(verdicts: Sequence[Verdict]) -> list[Verdict]:
    """Verdicts that actually claim stability (positivity precursors such
    as the nonoscillation test are not stability claims)."""
    return [v for v in verdicts if v.outcome is Outcome.STABLE
            and v.claim in (CLAIM_EXPONENTIAL, CLAIM_ASYMPTOTIC)]
