"""Seeded input generators for the benchmark workloads.

Every input is a function of the workload seed.  The program under test
only ever sees the generated JSON jobs (or the equations its own config
parser builds from them); the numeric parameters behind each coefficient
are kept here as well, so the kernel checks can recompute results without
going through the program's expression evaluator.

The corpora are stratified.  In check_general and kernel_sums the number
of terms, the expression shapes, the lags and the horizons are fixed per
stratum and only the numeric constants vary with the seed; check_periodic
fills fixed shares of cost cells (see AUTONOMOUS_SHARES).  Item cost
therefore depends on the stratum, not on the seed, which keeps run-to-run
spread low.

Each item also carries a fixed repeat count.  The runner times an item that
many times, in rounds spread over the run, and keeps its best normalised
time (see hostspeed.py): on a shared host a single short timing also
catches whatever the neighbours did in those milliseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_SEED = 0

GENERAL_M = (1, 2, 3, 4, 5, 6)
GENERAL_HORIZON = 1000
GENERAL_FIXTURES = ("factorial_kernel", "vanishing_coefficient", "two_delay_sin_cos")
PERIODIC_FIXTURES = ("positive_unbounded", "alternating_two_delay", "periodic_mixed_sign")
PERIODIC_HORIZON = 400
# `check` fits the decay rate on [max(5T, 20), horizon]; the factorial and
# positive_unbounded fixture configs pin horizons of 40 and 60, too short for
# that fit (the command exits 2), so the corpus raises every fixture horizon
# to at least this value.
MIN_FIXTURE_HORIZON = 200
# Timings per item.  check_general times the strata that cost under a
# second at seed (fixtures, m = 1..3, where its median and tail fall) twice
# and m = 4..6 once: one of those runs already lasts several seconds, and
# repeating them, or a third round, would take the run past a minute on a
# loaded host.
GENERAL_REPEATS = 2
GENERAL_SINGLE = ("m4", "m5", "m6")
# check_periodic times each item twice and spends the rest on more distinct
# equations: about a third of the autonomous equations cost five times the
# rest, so the number of equations sets how much items_per_s moves with the
# seed (about 6% between quartiles at 240 pairs).
PERIODIC_REPEATS = 2
# kernel_sums items are short next to a run; each is timed three times.
KERNEL_REPEATS = 3


@dataclass(frozen=True)
class TermSpec:
    """One coefficient a(n) = a0 + sign * a1 * fn(k n), or a0 * |fn(k n)|."""

    a0: float
    a1: float
    fn: str  # sin | cos
    k: int
    form: str  # plus | minus | abs
    lag: object  # int, or list of ints for a periodic lag table

    def text(self) -> str:
        if self.form == "abs":
            return f"{self.a0:.6f}*abs({self.fn}({self.k}*n))"
        op = "+" if self.form == "plus" else "-"
        return f"{self.a0:.6f} {op} {self.a1:.6f}*{self.fn}({self.k}*n)"

    def values(self, n0: int, n1: int) -> np.ndarray:
        """a(n) on [n0, n1], evaluated with NumPy directly."""
        a0, a1 = float(f"{self.a0:.6f}"), float(f"{self.a1:.6f}")
        n = np.arange(n0, n1 + 1, dtype=np.float64)
        wave = (np.sin if self.fn == "sin" else np.cos)(self.k * n)
        if self.form == "abs":
            return a0 * np.abs(wave)
        return a0 + a1 * wave if self.form == "plus" else a0 - a1 * wave

    def lags(self, n0: int, n1: int) -> np.ndarray:
        table = np.asarray(self.lag if isinstance(self.lag, list) else [self.lag])
        return table[np.arange(n0, n1 + 1) % len(table)]


# Per-term layout by index: (form, fn, k, lag).  Lags: term 0 lag 1, odd
# terms distinct constant lags from the largest down, other even terms
# two-entry periodic tables, so every delay is distinct and, from m = 2 on,
# the largest lag is the generator's maximum.
TERM_FORMS = ("plus", "minus", "abs")
TERM_FNS = ("sin", "cos")


def term_lag(l: int, max_lag: int) -> object:
    if l == 0:
        return 1
    if l % 2:
        return max_lag - (l // 2) * 2
    return [l // 2 - 1, max_lag - l // 2]


def trig_terms(rng: np.random.Generator, m: int, total: float,
               max_lag: int) -> list[TermSpec]:
    """m nonnegative trigonometric coefficients whose means add to ``total``.

    Nonnegative coefficients keep every theorem2 subset on its full path
    (no early NotApplicable exit).  Form, function, frequency and lag are
    fixed by the term index and only the constants come from ``rng``: with
    the lag values and forms drawn too, items of one m differed in cost by
    up to 40% from seed to seed.
    """
    weights = rng.uniform(0.5, 1.5, m)
    weights /= weights.sum()
    specs = []
    for l, w in enumerate(weights):
        form = TERM_FORMS[l % 3]
        a0 = max(float(total * w), 0.002)
        if form == "abs":
            a0 *= 1.5  # mean of |sin| is about 2/3
        a1 = a0 * float(rng.uniform(0.1, 0.9))
        specs.append(TermSpec(a0, a1, TERM_FNS[l % 2], 1 + l % 5, form, term_lag(l, max_lag)))
    return specs


def job(specs: list[TermSpec], horizon: int, forcing: Optional[str] = None) -> dict:
    return {
        "schema": 1,
        "equation": {"terms": [{"coeff": s.text(), "lag": s.lag} for s in specs],
                     "forcing": forcing},
        "horizon": horizon,
        "checks": "all",
    }


def equation_job(eq, horizon: int) -> dict:
    """JSON job for an Equation built by the program's own generator."""
    terms = []
    for t in eq.terms:
        lags = list(t.delay.lags)
        terms.append({"coeff": str(t.coeff), "lag": lags[0] if len(lags) == 1 else lags})
    return {"schema": 1, "equation": {"terms": terms, "forcing": None},
            "horizon": horizon, "checks": "all"}


def fixture_job(name: str) -> dict:
    from delaystab.fixtures import FIXTURE_CONFIGS

    config = json.loads(json.dumps(FIXTURE_CONFIGS[name]))
    config["horizon"] = max(int(config.get("horizon", 0)), MIN_FIXTURE_HORIZON)
    return config


@dataclass
class Item:
    """One unit of work: a name, its kind and whatever the runner needs."""

    name: str
    kind: str
    stratum: str
    args: dict = field(default_factory=dict)
    repeats: int = 1


def check_general(seed: int, cycles: int) -> list[Item]:
    """``cycles`` rounds, each of the non-periodic fixtures and one fresh
    equation per m in 1..6."""
    rng = np.random.default_rng([seed, 1])
    items = []
    for c in range(cycles):
        items += [Item(f"fixture:{name}", "check", f"fixture:{name}", {"job": fixture_job(name)},
                       GENERAL_REPEATS)
                  for name in GENERAL_FIXTURES]
        for m in GENERAL_M:
            specs = trig_terms(rng, m, float(rng.uniform(0.02, 0.05)), 6)
            stratum = f"m{m}"
            items.append(Item(f"general:c{c}:m{m}", "check", stratum,
                              {"job": job(specs, GENERAL_HORIZON)},
                              1 if stratum in GENERAL_SINGLE else GENERAL_REPEATS))
    return items


# Input properties that set a periodic item's cost: (largest lag >= 3, some
# coefficient negative).  A long-lag equation with nonnegative coefficients
# costs three to six times the others (an autonomous one takes a dense
# positivity scan).  Each generator's equations fill fixed shares of these
# cells, its own frequencies over 20,000 draws, so the mix of cheap and dear
# items does not move with the seed.
AUTONOMOUS_SHARES = {(False, False): 0.256, (False, True): 0.144,
                     (True, False): 0.325, (True, True): 0.275}
NONAUTONOMOUS_SHARES = {(False, False): 0.104, (False, True): 0.097,
                        (True, False): 0.298, (True, True): 0.501}


def cost_cell(job: dict) -> tuple:
    """(largest lag >= 3, some coefficient negative) of a generated job."""
    lags, negative = [], False
    for term in job["equation"]["terms"]:
        lags += term["lag"] if isinstance(term["lag"], list) else [term["lag"]]
        values = term["coeff"].replace("per(", "").rstrip(")").split(",")
        negative |= min(float(v) for v in values) < 0
    return max(lags) >= 3, negative


def quotas(shares: dict, total: int) -> dict:
    """Whole counts in proportion to ``shares`` (largest remainders)."""
    exact = {cell: share * total / sum(shares.values()) for cell, share in shares.items()}
    counts = {cell: int(value) for cell, value in exact.items()}
    by_remainder = sorted(exact, key=lambda cell: counts[cell] - exact[cell])
    for cell in by_remainder[: total - sum(counts.values())]:
        counts[cell] += 1
    return counts


def stratified(rng: np.random.Generator, count: int, shares: dict, make) -> list:
    """``count`` (seed, job) draws of ``make(seed)``, filling each cost cell
    to its quota and skipping draws for cells already full."""
    left = quotas(shares, count)
    drawn = []
    while len(drawn) < count:
        seed = int(rng.integers(0, 2**31 - 1))
        job_ = make(seed)
        cell = cost_cell(job_)
        if left[cell] > 0:
            left[cell] -= 1
            drawn.append((seed, job_))
    return drawn


def check_periodic(seed: int, pairs: int) -> list[Item]:
    """``pairs`` rounds of one non-autonomous and one autonomous equation
    from ``oracle.random_equation``, stratified by cost cell, with the
    periodic fixtures at the front."""
    from delaystab.oracle import random_equation

    rng = np.random.default_rng([seed, 2])
    items = [Item(f"fixture:{name}", "check", f"fixture:{name}", {"job": fixture_job(name)},
                  PERIODIC_REPEATS)
             for name in PERIODIC_FIXTURES]
    periodic = stratified(rng, pairs, NONAUTONOMOUS_SHARES, lambda s: equation_job(
        random_equation(s, m_max=3, T_max=5, K_max=0.8), PERIODIC_HORIZON))
    autonomous = stratified(rng, pairs, AUTONOMOUS_SHARES, lambda s: equation_job(
        random_equation(s, m_max=3, T_max=4, K_max=1.0, autonomous=True), PERIODIC_HORIZON))
    for i, ((s_per, j_per), (s_aut, j_aut)) in enumerate(zip(periodic, autonomous)):
        items.append(Item(f"periodic:{i}:{s_per}", "check", "periodic", {"job": j_per},
                          PERIODIC_REPEATS))
        items.append(Item(f"autonomous:{i}:{s_aut}", "check", "autonomous", {"job": j_aut},
                          PERIODIC_REPEATS))
    return items


# kernel_sums strata, one item each per cycle: (kind, horizon, terms).  The
# shapes are fixed so item cost does not depend on the seed.  Three forced
# trajectories and two kernel columns per cycle put the median latency on a
# step_recurrence item; the weighted sums (O(N^2 m) in the fallback) sit
# above it and set the tail.  representation_check keeps the fuzz suite's
# horizon of 50: its residual is absolute, and on the generator's growing
# equations a longer horizon turns rounding into residuals far above 1e-9.
KERNEL_CYCLE = (
    ("simulate_csv", 20_000, 2),
    ("simulate_csv", 20_000, 2),
    ("simulate_csv", 20_000, 2),
    ("fundamental_csv", 5_000, 2),
    ("fundamental_csv", 5_000, 2),
    ("representation_check", 50, 0),
    ("cauchy_apply", 500, 2),
    ("lemma6_sum", 500, 2),
    ("pituk_sum", 500, 2),
)


def kernel_sums(seed: int, cycles: int) -> list[Item]:
    """``cycles`` rounds of the kernel strata on fresh equations."""
    from delaystab.oracle import random_equation

    rng = np.random.default_rng([seed, 3])
    items = []
    for c in range(cycles):
        for kind, horizon, m in KERNEL_CYCLE:
            name = f"{kind}:c{c}:N{horizon}"
            if kind == "representation_check":
                # the fuzz suite's generator and history/forcing shapes
                eq = random_equation(int(rng.integers(0, 2**31 - 1)),
                                     m_max=3, T_max=5, K_max=0.35)
                history = [float(v) for v in rng.uniform(-1.0, 1.0, eq.T + 1)]
                forcing = [float(v) for v in rng.uniform(-1.0, 1.0, 3)]
                items.append(Item(name, kind, kind, {"eq": eq, "history": history,
                                                     "forcing": forcing, "N": horizon},
                                  KERNEL_REPEATS))
                continue
            specs = trig_terms(rng, m, float(rng.uniform(0.03, 0.1)), 5)
            forcing = TermSpec(0.0, float(rng.uniform(0.1, 1.0)),
                               str(rng.choice(["sin", "cos"])), int(rng.integers(1, 6)),
                               "plus", 0)
            items.append(Item(name, kind, kind,
                              {"specs": specs, "forcing": forcing, "N": horizon,
                               "job": job(specs, horizon, forcing.text())},
                              KERNEL_REPEATS))
    return items
