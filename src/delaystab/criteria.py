"""Exponential-stability tests returning auditable three-valued verdicts.

Every checker certifies a sufficient condition: Stable means the cited
inequalities hold with margin on the certification window, Inconclusive
means a test inequality failed (no instability claim is ever made), and
NotApplicable means a hypothesis predicate is violated or refuted.

Each checker is one instance of the paper's theorems (a kept set I, a
positivity route for its comparison equation, a rate, a perturbation
bound) and fills one verdict draft, ``_Draft``, with one stage per
hypothesis: the range gate 0 < sum_I a < c, positivity, the p-step product
rate, the domination ratio, the gap product and the quarter window sum.
A stage notes each value it compared as a witness and flags the verdict
window-certified when the value is an estimate on the window; the rate
stage's products all come from ``limits.limsup_products``.  Inside
``run_all``'s evaluation scope ``seqexpr.once`` answers each range bound,
rate, ratio and gap product once, so corollaries 6 and 8.1 read theorem
2's ratio and corollaries 7 and 8.2 corollary 4's gap product; it also
answers the same-delay merge, the lemma 4 verdict, the characteristic
root, theorem 2's sign gate and each comparison equation's positivity.

Positivity is certified analytically (window sums, characteristic roots;
constant or periodic coefficients only) or by a kernel scan that stops at
the first entry that is nonpositive or not finite; ``_positivity_pass``
answers the full equation and theorem 2's subsets with one shared stream.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import _kernels, limits
from .equation import (Equation, Term, autonomous_coefficients, merge_same_delay,
                       subset_equation)
from .seqexpr import DelaySpec, eval_range, evaluation_scope, once

__all__ = [
    "Outcome",
    "Verdict",
    "PositivityCertificate",
    "PositivityRefutation",
    "scan_window",
    "positivity_scan",
    "certify_positivity",
    "nonosc_threshold",
    "check_lemma4",
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
    "CHECK_FAMILIES",
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
    """X(n, k) > 0 for n0 <= k <= n <= N by a kernel scan, or an eventually
    positive kernel by an analytic route, which records no window: [0, -1]."""

    n0: int
    N: int
    by: str  # numerical_scan | lemma4 | autonomous_bound | corollary3_characteristic


@dataclass(frozen=True)
class PositivityRefutation:
    n: int
    k: int
    value: float


Positivity = Union[PositivityCertificate, PositivityRefutation]


# Strict thresholds need a margin above EPS; <= thresholds accept EPS of slack.
EPS = 1e-12
# p-step horizons for the rate b^(1/p); limits.limsup_products adds a period P
P_CANDIDATES = (1, 2, 3, 4, 6, 8, 12)
# the fallback kernel scan starts at 5 T, or at the last splice cutoff past
# it, and runs max(200, 10 T) steps
SCAN_LEAD_MULT = 5
SCAN_LEN = 200
# the scan steps P columns instead of every row up to this exact period P:
# on whole-window certifying scans over T in {2, 20, 100} and m in
# {1, 3, 6}, column blocks took at most 0.87 of the rows' time at every
# P <= 16, up to 1.05 at P = 20 and 1.22 at P = 24
SCAN_COLUMN_PERIOD = 16
# theorem2 tries every index subset up to this many terms
SUBSET_CAP = 12
# classical_32 needs more tail coefficient mass than this
DIVERGENCE_EPS = 1e-6
# golden-section search for corollary 3's characteristic root stops at this width
LAMBDA_TOL = 1e-10

# mutation self-check hook: with DELAYSTAB_LOOSEN_THRESHOLDS set, the sharp
# nonoscillation bound grows and the domination ratio shrinks by this factor,
# far enough that the fuzz and benchmark gates must surface unsound verdicts
_LOOSEN = 6.0 if os.environ.get("DELAYSTAB_LOOSEN_THRESHOLDS") else 1.0

# the family names run_all's ``checks`` filter accepts
CHECK_FAMILIES = ("lemma4", "theorem1", "corollary2", "corollary3", "theorem2", "corollary4",
                  "corollary6", "corollary7", "corollary8", "corollary9", "corollary10",
                  "classical")

# The certification-window override; None means limits.default_window.
Window = Optional[tuple[int, int]]


def _win(eq: Equation, window: Window) -> tuple[int, int]:
    return window or limits.default_window(eq)


def nonosc_threshold(k: int) -> float:
    """k^k / (k+1)^(k+1): the sharp autonomous nonoscillation bound."""
    if k < 143:  # (k+1)^(k+1) fits a float
        thr = (k**k) / float((k + 1) ** (k + 1))
    else:  # (1 + 1/k)^-k / (k+1), within a few ulps of the exact quotient
        thr = math.exp(-k * math.log1p(1.0 / k)) / (k + 1)
    return thr * _LOOSEN


def _sum_bounds(eq: Equation, indices: Sequence[int],
                window: tuple[int, int]) -> tuple[float, float, bool]:
    """(inf, sup, exact) of sum_{l in indices} a_l over their span."""
    rows, exact = limits.coeff_span(eq, window, indices)
    total = sum(rows)
    return float(total.min()), float(total.max()), exact


def _all_nonnegative(eq: Equation, indices: Sequence[int],
                     window: tuple[int, int]) -> tuple[bool, float]:
    rows, _ = limits.coeff_span(eq, window, indices)
    worst = float(np.concatenate(rows).min())
    return worst >= -EPS, worst


@dataclass
class _Draft:
    """One verdict in the making: its label, base citation, window and
    claim, the witnesses noted so far, and whether any of them is an
    estimate on the window rather than an exact limit (window-certified).
    Each stage method checks one hypothesis on the draft's window, notes
    what it compared and says whether the hypothesis holds."""

    label: str
    base: str
    window: tuple[int, int] = (0, 0)
    claim: str = CLAIM_EXPONENTIAL
    witnesses: dict[str, float] = field(default_factory=dict)
    certified: bool = False
    mu: Optional[float] = None  # the rate a Stable verdict certifies

    def note(self, exact: bool = True, **witnesses: float) -> "_Draft":
        self.witnesses.update(witnesses)
        self.certified = self.certified or not exact
        return self

    def out(self, outcome: Outcome, why: Optional[str] = None) -> Verdict:
        """The verdict, citing the base and, when given, why in parentheses;
        a Stable one also states its rate mu, if a stage found one."""
        if outcome is Outcome.STABLE and self.mu is not None:
            self.note(mu=self.mu)
        citation = self.base if why is None else f"{self.base} ({why})"
        return Verdict(self.label, outcome, self.claim, self.witnesses, self.window,
                       self.certified, citation)

    def in_range(self, eq: Equation, I: Sequence[int], cap: float, low: str, high: str) -> bool:
        """0 < inf sum_I a_l and sup sum_I a_l < cap, noted as ``low``, ``high``."""
        inf_s, sup_s, exact = once(_sum_bounds, eq, tuple(I), self.window)
        self.note(exact, **{low: inf_s, high: sup_s})
        return inf_s > EPS and sup_s < cap - EPS

    def nonnegative(self, eq: Equation, I: Sequence[int]) -> bool:
        """Every a_l, l in I, nonnegative on its span; notes the least."""
        nonneg, worst = once(_all_nonnegative, eq, tuple(I), self.window)
        self.note(min_coeff=worst)
        return nonneg

    def positive(self, positivity: Positivity) -> bool:
        """A positive comparison kernel.  A scan-backed certificate makes the
        verdict window-certified, and so does a refutation, noted where found."""
        if isinstance(positivity, PositivityRefutation):
            self.note(False, refuted_n=positivity.n, refuted_k=positivity.k)
            return False
        self.note(positivity.by != "numerical_scan")
        return True

    def comparison_positive(self, eq: Equation, I: tuple[int, ...],
                            moved: tuple[DelaySpec, ...], window: Window) -> bool:
        """``positive`` for theorem 5's comparison equation: ``eq``'s validated
        coefficients at the delays g_l, one term (a + b) x(g(n)) per delay as
        the paper states it; it resolves its own default window."""
        cmp_terms = tuple(Term(eq.terms[l].coeff, g) for l, g in zip(I, moved))
        cmp_eq = once(merge_same_delay, Equation(cmp_terms, None, eq.validation_window))
        return self.positive(once(certify_positivity, cmp_eq, window))

    def product_rate(self, eq: Equation, window: tuple[int, int]) -> bool:
        """The p-step product b of least rate b^(1/p), the shorter p on a
        tie, below 1; that rate is mu."""
        found = once(limits.limsup_products, eq, P_CANDIDATES, window)
        rates = {p: max(est.value, 0.0) ** (1.0 / p) for p, est in sorted(found.items())}
        q = min(rates, key=rates.__getitem__)
        self.note(found[q].exact, p=float(q), b=found[q].value)
        self.mu = rates[q] if found[q].value < 1.0 - EPS else None
        return self.mu is not None

    def dominated(self, eq: Equation, I: Sequence[int], name: str) -> bool:
        """The terms outside I below the I-terms in limsup ratio, noted as ``name``."""
        ratio, exact = once(_limsup_ratio, eq, tuple(I), self.window)
        self.note(exact, **{name: ratio})
        return ratio < 1.0 - EPS

    def gap_product(self, eq: Equation, I: tuple[int, ...],
                    moved: tuple[DelaySpec, ...]) -> bool:
        """Theorem 5's gap product gamma < 1, each l in I moved to its delay."""
        gamma, exact = once(_gamma, eq, I, moved, self.window)
        self.note(exact, gamma_min=gamma)
        return gamma < 1.0 - EPS

    def quarter(self, name: str, eq: Equation, delays: Sequence[DelaySpec]) -> bool:
        """The window sum of ``eq``'s aggregate below ``delays`` at most 1/4."""
        est = limits.windowed_delayed_sum(eq, delays, -1, self.window)
        self.note(est.exact, **{name: est.value})
        return est.value <= 0.25 + EPS


# ---------------------------------------------------------------------------
# Positivity of the fundamental function


def scan_window(eq: Equation) -> tuple[int, int]:
    """The fallback kernel scan's window [s, s + max(200, 10 T)] from
    s = max(5 T, ``limits.tail_start``)."""
    n0 = max(SCAN_LEAD_MULT * eq.T, limits.tail_start(eq))
    return n0, n0 + max(SCAN_LEN, 10 * max(eq.T, 1))


def _ring_depth(delays: Sequence[DelaySpec], n0: int, n1: int) -> int:
    """The depth of ``kernel_rows``' ring over lag tables on [n0, n1]: the
    deepest lag there plus 2, read from at most one period of each delay
    (a scan window spans 5T rows, past every lag, so the ring takes all)."""
    return 2 + max(int(d.lag_range(n0, min(n1, n0 + d.period - 1)).max(initial=0))
                   for d in delays)


def positivity_scan(eq: Equation, window: tuple[int, int]) -> Positivity:
    """Scan X over ``window`` = [n0, N]: the first X(n, k), n0 <= k <= n,
    that is nonpositive or not finite (n outward, then k) refutes, unless
    it is an exact zero more than 5T + 20 rows past n0, a decaying kernel
    underflowing, which certifies the rows before it; otherwise certify
    the window.

    The scan checks each block of rows a kernel stream yields in place;
    the +0.0 entries past each row's diagonal pass by their indices.
    When coefficients and delays repeat with a period P of at most
    ``SCAN_COLUMN_PERIOD``, X(n + P, k + P) = X(n, k) bit for bit, so
    ``kernel_columns`` steps only the columns k < n0 + P: column k's first
    bad entry comes before that of every column k + qP, and the entries
    above it are among those of the rows above.  Otherwise ``kernel_rows``
    steps every column.
    """
    n0, N = window
    if N - n0 < 5 * eq.T:
        raise ValueError(f"scan window must span at least 5T = {5 * eq.T}")
    size = N - n0 + 1
    delays = [t.delay for t in eq.terms]
    # the ring's cap is checked before the tables it would read exist
    _kernels.require_ring(_ring_depth(delays, n0, N - 1), size)
    coeffs, lags = eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)
    period = limits.exact_period(eq, delays)
    if period is not None and period <= SCAN_COLUMN_PERIOD:
        blocks = _kernels.kernel_columns(coeffs, lags, min(period, size), size)
    else:
        blocks = _kernels.kernel_rows(coeffs, lags, size)
    # an overflowing kernel turns inf and then nan; both refute
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, rows in blocks:
            # the rows' columns up to the last diagonal, in place; column j
            # is past row i0 + r's diagonal, so +0.0 and good, when j > i0 + r
            part = rows[:, : i0 + len(rows)]
            good = (part > 0.0) & (part < math.inf)
            good[:, i0:] |= np.arange(i0, part.shape[1]) > np.arange(i0, i0 + len(rows))[:, None]
            if not good.all():
                r, k = divmod(int(np.argmin(good)), part.shape[1])
                value = float(part[r, k])
                # an exact zero deep enough is underflow and certifies the rows above
                if value == 0.0 and i0 + r > 5 * eq.T + 20:
                    return PositivityCertificate(n0, n0 + i0 + r - 1, "numerical_scan")
                return PositivityRefutation(n0 + i0 + r, n0 + k, value)
    return PositivityCertificate(n0, N, "numerical_scan")


def check_lemma4(eq: Equation, window: Window = None) -> Verdict:
    """Nonoscillation: nonnegative coefficients with sup sum < 1/2 and the
    delayed double window sum <= 1/4 force an eventually positive kernel."""
    d = _Draft("lemma4", "positive kernel via coefficient window sums "
               "(sup < 1/2, delayed sum <= 1/4)", _win(eq, window), CLAIM_POSITIVE)
    nonneg = d.nonnegative(eq, range(eq.m))
    _, sup_sum, exact = once(_sum_bounds, eq, tuple(range(eq.m)), d.window)
    d.note(exact, sup_sum=sup_sum)
    quarter = d.quarter("double_sum", eq, [t.delay for t in eq.terms])
    if not nonneg:
        return d.out(Outcome.NOT_APPLICABLE)
    return d.out(Outcome.STABLE if sup_sum < 0.5 - EPS and quarter else Outcome.INCONCLUSIVE)


def _analytic_positivity(eq: Equation, window: Window) -> Optional[PositivityCertificate]:
    """The analytic positivity routes, or None when they leave ``eq`` to
    the kernel scan.

    They certify only on exact spans, so they are tried only when every
    coefficient of ``eq`` is constant or periodic; general coefficients go
    straight to the scan, which gives the verdict and route it gave when
    the routes ran first.  A sum is periodic exactly when its summands are,
    so the routes then merge terms sharing a lag table and apply the sign
    hypotheses to the effective coefficients.
    """
    if limits.aggregate_period(eq) is None:
        return None
    merged = once(merge_same_delay, eq)
    pre = once(check_lemma4, merged, _win(merged, window))
    if pre.outcome is Outcome.STABLE and not pre.window_certified:
        return PositivityCertificate(0, -1, "lemma4")
    if pre.outcome is not Outcome.NOT_APPLICABLE:
        _, part1, part2, exact = once(_char_root, merged, pre.window)
        if exact and part2:
            return PositivityCertificate(0, -1, "autonomous_bound")
        if exact and part1:
            return PositivityCertificate(0, -1, "corollary3_characteristic")
    return None


def certify_positivity(eq: Equation, window: Window = None) -> Positivity:
    """The analytic routes, else a kernel scan of ``eq`` on its own window."""
    cert = once(_analytic_positivity, eq, window)
    return cert if cert is not None else positivity_scan(eq, scan_window(eq))


def _positivity_pass(eq: Equation, window: Window, sets: Sequence[tuple[int, ...]],
                     gated: Sequence[tuple[int, ...]] = ()
                     ) -> dict[tuple[int, ...], Positivity]:
    """The positivity of the subset equation of each of ``sets`` and of
    each of ``gated`` whose terms pass theorem2's sign gate (the full set
    asks about ``eq`` itself), with one kernel stream for all it can answer.

    Comparison lemma (Gyori & Ladas 1991, ch. 7; Berezansky & Braverman):
    with 0 <= b_l <= a_l on the same delays, X_a > 0 implies X_b >= X_a > 0.
    The sets the analytic routes leave to a scan have scan windows with a
    union [lo, hi]; J, their terms that are >= 0.0 on every row of it,
    streams once over [lo, hi] (a term of no such set may lag deeper than
    [lo, hi] spans).  A certificate through hi certifies each subset of J on
    its own window, as that set's own scan would.  J itself takes the
    stream's result when [lo, hi] is its window, or when the stream refutes
    at (n, k) inside it: bad entries are found row by row, and the
    underflow stop, counted from lo, is looser there.  Every other set, all
    of them when J's ring passes the kernel cap, goes to
    ``certify_positivity``: a refutation is never inherited.  J's ring is
    at least as deep and wide as that of any set it answers, so the first
    set, in the order asked, whose own ring the cap refuses raises at once.
    """
    gate = _win(eq, window)
    asked = [*sets, *(I for I in gated if once(_all_nonnegative, eq, I, gate)[0])]
    subs = {I: eq if len(I) == eq.m else subset_equation(eq, I) for I in asked}
    windows = {}
    for I, sub in subs.items():
        if once(_analytic_positivity, sub, window) is None:
            n0, N = windows[I] = scan_window(sub)
            if (sub.T + 2) * (N - n0 + 1) > _kernels.MAX_ENTRIES:  # no ring is deeper than T + 2
                _kernels.require_ring(_ring_depth([t.delay for t in sub.terms], n0, N - 1),
                                      N - n0 + 1)
    shared: dict[tuple[int, ...], Positivity] = {}
    if windows:
        lo, hi = min(n0 for n0, _ in windows.values()), max(N for _, N in windows.values())
        terms = sorted(set().union(*windows))
        depth = {l: _ring_depth([eq.terms[l].delay], lo, hi - 1) for l in terms}
        J, result = (), None
        # J contains each set it answers: when no set's own ring over [lo, hi]
        # fits the cap, neither would J's, and its table is never built
        try:
            _kernels.require_ring(min(max(depth[l] for l in I) for I in windows), hi - lo + 1)
            rows = subset_equation(eq, terms).coeff_table(lo, hi - 1)
            J = tuple(l for l, row in zip(terms, rows) if (row >= 0.0).all())
            if any(set(I) <= set(J) for I in windows):
                result = positivity_scan(subset_equation(eq, J), (lo, hi))
        except _kernels.KernelMemoryError:
            pass
        for I, (n0, N) in windows.items():
            inside = isinstance(result, PositivityRefutation) and n0 <= result.k and result.n <= N
            if isinstance(result, PositivityCertificate) and result.N == hi and set(I) <= set(J):
                shared[I] = replace(result, n0=n0, N=N)
            elif result is not None and I == J and ((n0, N) == (lo, hi) or inside):
                shared[I] = result
    return {I: shared[I] if I in shared else certify_positivity(sub, window)
            for I, sub in subs.items()}


def _char_root(eq: Equation, window: tuple[int, int]
               ) -> tuple[dict[str, float], bool, bool, bool]:
    """Corollary 3 on the caps alpha_l = sup a_l at delays tau_l: (witnesses,
    part 1 (a root lam in (0, 1]), part 2 (one term under the sharp
    autonomous bound), exact)."""
    bounds = [once(_sum_bounds, eq, (l,), window) for l in range(eq.m)]
    alphas = [max(sup, 0.0) for _, sup, _ in bounds]
    taus = [t.delay.max_lag for t in eq.terms]
    exact = all(term_exact for _, _, term_exact in bounds)
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
    the minimum; f(lam) <= 0 yields a positive characteristic root.  A
    term that overflows (long delays at small lam) is +inf, its true value.
    """

    terms = [(a, -t) for a, t in zip(alphas, taus)]

    def f(lam: float) -> float:
        total = 0  # an int 0 then each term in order, as sum() adds them
        for a, neg_t in terms:
            try:
                total += a * lam ** neg_t
            except OverflowError:
                total += math.inf if a > 0 else 0.0
        return lam - 1.0 + total

    lo, hi = 1e-6, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > LAMBDA_TOL:
        if f1 <= f2 < math.inf:  # on an infinite tie the minimum lies right
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


def _theorem1_rate(d: _Draft, eq: Equation) -> Optional[str]:
    """Theorem 1's rates on a positive kernel: 1 - a for a positive liminf
    a of the coefficient sum (the lower of the sum bounds lemma 4 reads),
    else the best p-step product's; the route that certified, or None."""
    a, _, exact = once(_sum_bounds, eq, tuple(range(eq.m)), d.window)
    d.note(exact, a=a)
    if a > EPS:
        d.mu = max(1.0 - a, 0.0)
        return "liminf coefficient sum > 0"
    return "p-step coefficient product < 1" if d.product_rate(eq, d.window) else None


def check_theorem1(eq: Equation,
                   positivity: Union[PositivityCertificate, PositivityRefutation, None],
                   window: Window = None) -> Verdict:
    """Positive kernel + nonnegative coefficients: a positive liminf of the
    coefficient sum (rate 1 - a), or a p-step product staying below one
    (rate b^(1/p)), certify exponential stability."""
    d = _Draft("theorem1", "positive-kernel rate bound", _win(eq, window))
    if not isinstance(positivity, PositivityCertificate):
        if positivity is not None:
            d.note(refuted_n=positivity.n, refuted_k=positivity.k, refuted_value=positivity.value)
        return d.out(Outcome.NOT_APPLICABLE, "kernel positivity unavailable")
    d.positive(positivity)
    nonneg, worst = once(_all_nonnegative, eq, tuple(range(eq.m)), d.window)
    if not nonneg:
        return d.note(min_coeff=worst).out(Outcome.NOT_APPLICABLE,
                                           "needs nonnegative coefficients")
    route = _theorem1_rate(d, eq)
    if route is None:
        return d.out(Outcome.INCONCLUSIVE, "both rate conditions failed")
    d.base = f"positive kernel with {route}"
    return d.out(Outcome.STABLE)


def check_corollary2(eq: Equation, window: Window = None) -> Verdict:
    """Nonoscillation window sums supply the kernel positivity, then the
    rate theorem runs on top."""
    pre = once(check_lemma4, eq, _win(eq, window))
    d = _Draft("corollary2", "window-sum positivity + rate bound", pre.window)
    d.note(not pre.window_certified, **pre.witnesses)
    if pre.outcome is Outcome.NOT_APPLICABLE:
        return d.out(pre.outcome, "negative coefficient")
    if pre.outcome is Outcome.INCONCLUSIVE:
        return d.out(pre.outcome, "window sums too large")
    return d.out(Outcome.STABLE if _theorem1_rate(d, eq) else Outcome.INCONCLUSIVE)


def check_corollary3(eq: Equation, window: Window = None) -> Verdict:
    """Characteristic-root comparison: coefficient caps alpha_l at delays
    tau_l admitting lam - 1 + sum alpha_l lam^(-tau_l) <= 0 (part 1), or a
    single term under the sharp autonomous bound (part 2)."""
    d = _Draft("corollary3", "characteristic-root comparison", _win(eq, window))
    if not d.nonnegative(eq, range(eq.m)):
        return d.out(Outcome.NOT_APPLICABLE, "needs nonnegative coefficients")
    root, part1, part2, exact = once(_char_root, eq, d.window)
    d.note(exact, **root)
    if not (part1 or part2):
        return d.out(Outcome.INCONCLUSIVE, "no positive root found")
    d.note(part=1.0 if part1 else 2.0)
    if d.product_rate(eq, d.window):
        return d.out(Outcome.STABLE)
    return d.out(Outcome.INCONCLUSIVE, "p-step product not below 1")


def check_theorem2(eq: Equation, I: Sequence[int], positivity: Optional[Positivity],
                   window: Window = None) -> Verdict:
    """Dominant positive part: the I-terms alone form a positive-kernel
    equation with product rate < 1, and the remaining terms are uniformly
    smaller in limsup ratio.  ``positivity`` is that of the I-terms'
    equation, read only past the sign gate: a set the gate refuses may
    pass None."""
    I = sorted(set(I))
    if not I:
        raise ValueError("empty index set")
    label = "theorem2(I=" + ",".join(map(str, I)) + ")"
    d = _Draft(label, "dominant positive part", _win(eq, window))
    if not d.nonnegative(eq, I):
        return d.out(Outcome.NOT_APPLICABLE, "kept terms must be nonnegative")
    if positivity is None:
        raise ValueError(f"{label} needs the positivity of its kept terms' equation")
    if not d.positive(positivity):
        return d.out(Outcome.NOT_APPLICABLE, "comparison kernel not positive")
    # the comparison equation resolves its own default window
    sub = subset_equation(eq, I)
    rate = d.product_rate(sub, _win(sub, window))
    if d.dominated(eq, I, "ratio") and rate:
        return d.out(Outcome.STABLE)
    return d.out(Outcome.INCONCLUSIVE, "rate or domination ratio failed")


def _limsup_ratio(eq: Equation, I: Sequence[int],
                  window: tuple[int, int]) -> tuple[float, bool]:
    """limsup of sum_{l not in I} |a_l| / sum_{l in I} a_l."""
    out = [l for l in range(eq.m) if l not in I]
    rows, exact = limits.coeff_span(eq, window)
    if not out:
        return 0.0, exact
    den = sum(rows[l] for l in I)
    num = sum(np.abs(rows[l]) for l in out)
    live = den > 0.0
    if (num[~live] > 0.0).any():
        return math.inf, exact
    return float((num[live] / den[live]).max(initial=0.0)) / _LOOSEN, exact


# ---------------------------------------------------------------------------
# Comparison with shifted delays (the gap-product tests)


def _paired(I: Sequence[int], g_override: Sequence[DelaySpec]
            ) -> tuple[tuple[int, ...], tuple[DelaySpec, ...]]:
    """I in increasing order, each index with its own comparison delay."""
    if not I:
        raise ValueError("empty index set")
    for l in I:
        if list(I).count(l) > 1:
            raise ValueError(f"index {l} appears more than once in I")
    if len(g_override) != len(I):
        raise ValueError(f"g_override arity {len(g_override)} != |I| = {len(I)}")
    return tuple(zip(*sorted(zip(I, g_override), key=lambda pair: pair[0])))


def theorem5_lhs_rhs(eq: Equation, I: Sequence[int],
                     g_override: Sequence[DelaySpec], window: tuple[int, int]
                     ) -> tuple[np.ndarray, np.ndarray, limits.DelayStrip]:
    """Pointwise left/right sides of the comparison inequality: for n in the
    evaluation strip, lhs(n) = sum_{k in I} |a_k(n)| * (abs-aggregate over
    the index gap between h_k(n) and the comparison delay g_k(n)) plus the
    excluded terms, rhs(n) = sum_{k in I} a_k(n).  ``g_override[i]`` is the
    comparison delay of term ``I[i]``.  Returns (lhs, rhs, strip);
    ``strip.ns`` are the n.
    """
    I, moved = _paired(I, g_override)
    strip = limits.delay_strip(eq, [eq.terms[l].delay for l in I] + list(moved), window)
    ns = strip.ns
    # the rows run from lo; from ns[0] on they are the strip's
    rows = eq.coeff_rows(strip.lo, int(ns[-1]))
    absrows = [np.abs(row) for row in rows]
    prefix = np.concatenate([[0.0], np.cumsum(limits.row_sum(absrows))])  # one for every gap
    on = slice(int(ns[0]) - strip.lo, None)
    lhs = np.zeros(len(ns))
    rhs = np.zeros(len(ns))
    for l, (row, absrow) in enumerate(zip(rows, absrows)):
        if l in I:
            i = I.index(l)
            h = ns - strip.lags[i]
            g = ns - strip.lags[len(I) + i]
            lhs += absrow[on] * strip.sums_from(prefix, np.minimum(h, g), np.maximum(h, g))
            rhs += row[on]
        else:
            lhs += absrow[on]
    return lhs, rhs, strip


def _gamma(eq: Equation, I: tuple[int, ...], moved: tuple[DelaySpec, ...],
           window: tuple[int, int]) -> tuple[float, bool]:
    """(the gap product gamma = max lhs / rhs over the strip, exact)."""
    lhs, rhs, strip = theorem5_lhs_rhs(eq, I, moved, window)
    return float((lhs / rhs).max()), strip.exact


def _theorem5(d: _Draft, eq: Equation, I: tuple[int, ...], moved: tuple[DelaySpec, ...],
              window: Window) -> Verdict:
    """Theorem 5's stages: range gate, comparison positivity, gap product."""
    if not d.in_range(eq, I, 1.0, "alpha0", "alpha1"):
        return d.out(Outcome.NOT_APPLICABLE, "kept sum must sit inside (0, 1)")
    if not d.comparison_positive(eq, I, moved, window):
        return d.out(Outcome.NOT_APPLICABLE, "comparison kernel not positive")
    if d.gap_product(eq, I, moved):
        return d.out(Outcome.STABLE)
    return d.out(Outcome.INCONCLUSIVE, "gap product needs gamma < 1")


def check_corollary_theorem5(eq: Equation, I: Sequence[int],
                             g_override: Sequence[DelaySpec],
                             window: Window = None) -> Verdict:
    """Comparison equation built from the I-terms at shifted delays g_l:
    positivity of its kernel plus a gap-product inequality with gamma < 1
    certify exponential stability."""
    I, moved = _paired(I, g_override)
    d = _Draft("theorem5(I=" + ",".join(map(str, I)) + ")", "shifted-delay comparison",
               _win(eq, window))
    return _theorem5(d, eq, I, moved, window)


def check_corollary4(eq: Equation, g: DelaySpec, window: Window = None) -> Verdict:
    """All terms moved to one common comparison delay g."""
    d = _Draft(f"corollary4(g={','.join(map(str, g.lags))})", "common-delay comparison",
               _win(eq, window))
    return _theorem5(d, eq, tuple(range(eq.m)), (g,) * eq.m, window)


def check_corollary6(eq: Equation, window: Window = None) -> Verdict:
    """A lag-1 term pinned inside (0, 1/4) dominating the other terms."""
    designated = next((l for l, t in enumerate(eq.terms) if set(t.delay.lags) == {1}), None)
    if designated is None:
        raise ValueError("no term with lag identically 1")
    d = _Draft("corollary6", "dominant lag-1 term", _win(eq, window))
    d.note(term=float(designated))
    if not d.in_range(eq, [designated], 0.25, "a0", "b0"):
        return d.out(Outcome.NOT_APPLICABLE, "needs range inside (0, 1/4)")
    if d.dominated(eq, [designated], "gamma_min"):
        return d.out(Outcome.STABLE)
    return d.out(Outcome.INCONCLUSIVE, "perturbation ratio needs gamma < 1")


def check_corollary7(eq: Equation, window: Window = None) -> Verdict:
    """Aggregate sum inside (0, 1/4) with the memory products dominated by
    the aggregate itself; the inner windows run from h_k(n) up to n-2, so
    they are empty whenever every lag is at most 1."""
    d = _Draft("corollary7", "short-memory domination", _win(eq, window))
    if any(min(t.delay.lags) < 1 for t in eq.terms):
        # the gap windows [h_k(n), n-2] presume every term is delayed; an
        # undelayed term moves a full step and the bound no longer covers it
        return d.out(Outcome.NOT_APPLICABLE, "every lag must be >= 1")
    I = tuple(range(eq.m))
    if not d.in_range(eq, I, 0.25, "a0", "b0"):
        return d.out(Outcome.NOT_APPLICABLE, "needs aggregate inside (0, 1/4)")
    # every term compared at the common delay 1: the gap [h_k(n), n-1)
    if d.gap_product(eq, I, (DelaySpec.constant(1),) * eq.m):
        return d.out(Outcome.STABLE)
    return d.out(Outcome.INCONCLUSIVE, "gap product needs gamma < 1")


def check_corollary8(eq: Equation, part: int, window: Window = None) -> Verdict:
    """Two-term tests: (1) first term inside (0, 1/2) with window sum
    <= 1/4 dominating |b|; (2) the pair sum inside (0, 1/2) with window sum
    <= 1/4 and theorem 5 with both terms moved onto the second delay."""
    if eq.m != 2:
        raise ValueError(f"needs exactly two terms, got {eq.m}")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    d = _Draft(f"corollary8.{part}", f"two-term splitting, part {part}", _win(eq, window))
    first = eq.terms[0].delay
    if part == 1:
        if not d.in_range(eq, [0], 0.5, "a_inf", "a_sup"):
            return d.out(Outcome.NOT_APPLICABLE, "first term must sit inside (0, 1/2)")
        quarter = d.quarter("window_sum", subset_equation(eq, [0]), [first])
        ok = d.dominated(eq, [0], "gamma_min") and quarter
        return d.out(Outcome.STABLE if ok else Outcome.INCONCLUSIVE, "dominant first term")
    if not d.in_range(eq, [0, 1], 0.5, "sum_inf", "sum_sup"):
        return d.out(Outcome.NOT_APPLICABLE, "pair sum must sit inside (0, 1/2)")
    # theorem 5 with both terms moved onto the second delay: its comparison
    # equation is the pair sum (a + b) x(h_2(n)), whose kernel must be
    # positive; without it the test would certify e.g. (-0.06, lag 0) +
    # (0.46, lag 3), which diverges.  The second term is left no gap.
    moved = (eq.terms[1].delay,) * 2
    if not d.comparison_positive(eq, (0, 1), moved, window):
        return d.out(Outcome.NOT_APPLICABLE, "pair-sum comparison kernel not positive")
    ok = d.gap_product(eq, (0, 1), moved)
    ok = d.quarter("window_sum", eq, [first]) and ok
    return d.out(Outcome.STABLE if ok else Outcome.INCONCLUSIVE, "moving the second delay")


def check_corollary9(a: float, g: int, b: float, h: int, part: int) -> Verdict:
    """Autonomous two-delay tests under the sharp nonoscillation bound."""
    if a * g == 0 or b * h == 0:
        raise ValueError("needs a*g != 0 and b*h != 0")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    d = _Draft(f"corollary9.{part}", f"autonomous two-delay, part {part}")
    if part == 1:
        thr = nonosc_threshold(g)
        d.note(a=a, b=b, threshold=thr)
        if not EPS < a <= thr + EPS:
            return d.out(Outcome.NOT_APPLICABLE, "first coefficient outside (0, threshold]")
        return d.out(Outcome.STABLE if abs(b) < a - EPS else Outcome.INCONCLUSIVE,
                     "|b| < a under nonoscillation bound")
    # part 2 moves the first term onto the second delay h, so the pair sum
    # must clear the nonoscillation bound at h (gating it at g admits
    # counterexamples such as a=0.01 g=1, b=0.22 h=9, which diverges), and
    # for mixed signs the gap picks up the absolute coefficient mass
    thr_h = nonosc_threshold(h)
    d.note(a=a, b=b, sum=a + b, threshold=thr_h, gap_displayed=abs(a * (g - h)))
    if not EPS < a + b <= thr_h + EPS:
        return d.out(Outcome.NOT_APPLICABLE, "pair sum outside (0, threshold]")
    gap_ratio = abs(a) * abs(g - h) * (abs(a) + abs(b)) / (a + b)
    d.note(gap_ratio=gap_ratio)
    ok = abs(a * (g - h)) < 1.0 - EPS and gap_ratio < 1.0 - EPS
    return d.out(Outcome.STABLE if ok else Outcome.INCONCLUSIVE,
                 "first term moved onto the second delay")


def check_corollary10(a: Mapping[int, float]) -> Verdict:
    """Autonomous equation as {lag: coefficient} over its lags 1..m: some head
    sum must sit under the sharp bound while dominating the tail in absolute value."""
    a = {lag: float(v) for lag, v in sorted(a.items())}
    if not a:
        raise ValueError("empty coefficient map")
    d = _Draft("corollary10", "autonomous head-dominance over lags 1..m")
    values = list(a.values())  # a missing lag is a zero: it changes no sum
    for i, (k, v) in enumerate(a.items()):
        if v < -EPS:
            break  # head terms must be nonnegative for the comparison root
        if v == 0.0:
            continue  # head and tail are the previous lag's, and the threshold only falls
        head, tail = sum(values[:i + 1]), sum(map(abs, values[i + 1:]))
        if head > EPS and head <= nonosc_threshold(k) + EPS and tail < head - EPS:
            return d.note(k=float(k), head_sum=head, tail_abs_sum=tail).out(Outcome.STABLE)
    return d.note(k=0.0, head_sum=0 + a.get(1, 0.0)).out(Outcome.INCONCLUSIVE, "no admissible split")


# ---------------------------------------------------------------------------
# Classical comparison tests


def check_classical(eq: Equation, window: Window = None) -> list[Verdict]:
    """The three staple tests: the 3/2-type delayed sum bound (asymptotic
    claim), the autonomous margin test, and the pi/2 weighted-lag bound."""
    window = _win(eq, window)

    # 3/2-type bound on the aggregate summed over the deepest delay window,
    # inclusive upper index n
    d32 = _Draft("classical_32", "3/2-type delayed sum bound", window, CLAIM_ASYMPTOTIC)
    nonneg, worst = once(_all_nonnegative, eq, tuple(range(eq.m)), window)
    agg = limits.row_sum(eq.coeff_rows(*window))
    tail_mass = float(agg[len(agg) // 2 :].sum())
    if not nonneg or tail_mass <= DIVERGENCE_EPS:
        v32 = d32.note(False, min_coeff=worst, tail_mass=tail_mass).out(
            Outcome.NOT_APPLICABLE, "needs nonnegative, divergent coefficients")
    else:
        delays = [t.delay for t in eq.terms]
        k = int(limits.delay_strip(eq, delays, window).deepest().max())
        est = limits.windowed_delayed_sum(eq, delays, 0, window)
        thr = 1.5 + 1.0 / (2.0 * k + 2.0)
        d32.note(est.exact, delayed_sum=est.value, threshold=thr, k=float(k))
        v32 = d32.out(Outcome.STABLE if est.value < thr - EPS else Outcome.INCONCLUSIVE)

    # autonomous margin test: sum a_l * lag_l < 1 + 1/e - sum a_l
    pairs = autonomous_coefficients(eq)
    dm = _Draft("classical_margin", "autonomous margin test", window, CLAIM_ASYMPTOTIC)
    if pairs is None or any(c <= 0 for c, _ in pairs):
        vm = dm.out(Outcome.NOT_APPLICABLE, "needs positive constant coefficients")
    else:
        lhs = sum(c * lag for c, lag in pairs)
        rhs = 1.0 + 1.0 / math.e - sum(c for c, _ in pairs)
        dm.note(weighted_lags=lhs, margin=rhs)
        vm = dm.out(Outcome.STABLE if lhs < rhs - EPS else Outcome.INCONCLUSIVE)

    # pi/2 bound: the reported diagnostic is the per-term delayed absolute
    # window sum (sum_k lag_k * a_k for an autonomous equation).  The
    # stability gate weights each coefficient by the full step depth
    # lag + 1 (the recurrence advances from n to n+1), which is the form
    # for which pi/2 really is the best constant; weighting by the bare
    # lag would wrongly certify e.g. a = 0.37 at lag 4.
    diag = _pi_half_diagnostic(eq, window)
    dpi = _Draft("classical_pi_half", "pi/2 weighted-lag bound", window)
    dpi.note(diag.exact, diagnostic_sum=diag.value, threshold=math.pi / 2.0)
    if (pairs is not None and all(c >= 0 and lag >= 1 for c, lag in pairs)
            and sum(c for c, _ in pairs) > EPS):
        dpi.note(step_weighted_sum=sum(c * (lag + 1) for c, lag in pairs))
    weighted = dpi.witnesses.get("step_weighted_sum")
    if diag.value >= math.pi / 2.0 - EPS:
        vpi = dpi.out(Outcome.INCONCLUSIVE, "sum not below pi/2")
    elif weighted is not None:
        vpi = dpi.out(Outcome.STABLE if weighted < math.pi / 2.0 - EPS else Outcome.INCONCLUSIVE)
    else:
        vpi = dpi.out(Outcome.NOT_APPLICABLE,
                      "certifies delayed autonomous nonnegative equations")
    return [v32, vm, vpi]


def _pi_half_diagnostic(eq: Equation, window: tuple[int, int]) -> limits.AsymptoticEstimate:
    """sup_n sum_l sum_{k=h_l(n)}^{n-1} |a_l(k)|."""
    strip = limits.delay_strip(eq, [t.delay for t in eq.terms], window)
    ns = strip.ns
    hi = int(ns[-1]) - 1
    if hi < strip.lo:
        return limits.AsymptoticEstimate(0.0, strip.exact)
    total = np.zeros(len(ns))
    for l, row in enumerate(eq.coeff_rows(strip.lo, hi)):
        total += strip.sums(np.abs(row), ns - strip.lags[l], ns)
    return limits.AsymptoticEstimate(float(total.max()), strip.exact)


# ---------------------------------------------------------------------------
# Orchestration


def _theorem2_subsets(eq: Equation) -> list[tuple[int, ...]]:
    """Every nonempty subset up to SUBSET_CAP terms; above it, the full set
    and each set with one term dropped."""
    indices = range(eq.m)
    if eq.m <= SUBSET_CAP:
        return [I for size in range(1, eq.m + 1) for I in itertools.combinations(indices, size)]
    return [tuple(indices), *(tuple(i for i in indices if i != drop) for drop in indices)]


# every checker reads the same coefficients: evaluate each once per run,
# and answer each repeated comparison-equation question once; a sum that
# overflows gives an inf or nan witness and a conservative verdict, unwarned
@evaluation_scope()
@np.errstate(over="ignore", invalid="ignore")
def run_all(eq: Equation, window: Window = None,
            checks: Optional[Sequence[str]] = None) -> list[Verdict]:
    """Run every applicable checker; verdicts sorted Stable-first, then by
    criterion id.  ``window`` overrides the certification window and must
    satisfy 0 <= N0 <= N1; ``checks`` filters by the names in
    ``CHECK_FAMILIES`` and refuses any other."""
    if window is not None and not 0 <= window[0] <= window[1]:
        raise ValueError(f"window {list(window)} must satisfy 0 <= N0 <= N1")
    unknown = [c for c in checks or () if c not in CHECK_FAMILIES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known: {CHECK_FAMILIES}")
    # each coefficient's span starts as its first validated slice
    for t in eq.terms:
        eval_range(t.coeff, 0, min(eq.validation_window[1], 1 << 16) - 1)

    def want(family: str) -> bool:
        return checks is None or family in checks

    verdicts: list[Verdict] = []
    subsets = _theorem2_subsets(eq) if want("theorem2") else []
    # the full equation's positivity and each sign-gated subset's, at once
    full = tuple(range(eq.m))
    positivity = _positivity_pass(eq, window, [full] if want("theorem1") else [], subsets)
    if want("theorem1"):
        verdicts.append(check_theorem1(eq, positivity[full], window))
    if want("lemma4"):
        verdicts.append(once(check_lemma4, eq, _win(eq, window)))
    if want("corollary2"):
        verdicts.append(check_corollary2(eq, window))
    if want("corollary3"):
        verdicts.append(check_corollary3(eq, window))
    verdicts += [check_theorem2(eq, I, positivity.get(I), window) for I in subsets]
    if want("corollary4"):
        # each distinct delay of the equation, in order, then lag 1
        delays = dict.fromkeys([*(t.delay for t in eq.terms), DelaySpec.constant(1)])
        verdicts += [check_corollary4(eq, g, window) for g in delays]
    if want("corollary6") and any(set(t.delay.lags) == {1} for t in eq.terms):
        verdicts.append(check_corollary6(eq, window))
    if want("corollary7"):
        verdicts.append(check_corollary7(eq, window))
    if want("corollary8") and eq.m == 2:
        verdicts += [check_corollary8(eq, part, window) for part in (1, 2)]
    pairs = autonomous_coefficients(eq)
    if want("corollary9") and pairs is not None and len(pairs) == 2:
        (a, g), (b, h) = pairs
        if a * g != 0 and b * h != 0:
            verdicts += [check_corollary9(a, g, b, h, part) for part in (1, 2)]
    if want("corollary10") and pairs is not None and all(lag >= 1 for _, lag in pairs):
        # the coefficient at each lag it has, added to an int 0 in term
        # order, as sum does
        a = {}
        for c, lag in pairs:
            a[lag] = a.get(lag, 0) + c
        verdicts.append(check_corollary10(a))
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
