"""Built-in regression fixtures: six small equations with pinned expectations.

Each fixture is a config-shaped equation plus a runner that recomputes its
known quantities (kernel values, growth ratios, checker verdicts, witness
margins) and compares them at fixed tolerances.  The CLI `examples`
command drives this registry; the acceptance tests build their own copies
of these equations and state their expectations on their own.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .criteria import (
    Outcome,
    check_classical,
    check_corollary8,
    check_corollary_theorem5,
    run_all,
    stable_verdicts,
    theorem5_lhs_rhs,
)
from .equation import Equation, Term, autonomous_coefficients, validate
from .limits import coeff_span, row_sum, windowed_delayed_sum
from .oracle import companion_radius, decay_fit
from .seqexpr import DelaySpec, SeqEvalError, parse
from .simulator import fundamental, kernel

__all__ = ["CheckResult", "FIXTURE_CONFIGS", "run_fixture", "config_to_equation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    expected: str
    volatile: bool = False  # timing-like values, excluded from stable output


FIXTURE_CONFIGS: dict[str, dict] = {
    # x(n+1)-x(n) = -(1 - 1/(n+1)) x(n); kernel is the inverse factorial ratio
    "factorial_kernel": {
        "schema": 1,
        "equation": {"terms": [{"coeff": "1 - 1/(n+1)", "lag": 0}]},
        "horizon": 40,
    },
    # x(n+1)-x(n) = -3^(-n-1) x(n); kernel stays above 1/2, no stability
    "vanishing_coefficient": {
        "schema": 1,
        "equation": {"terms": [{"coeff": "3^(-n-1)", "lag": 0}]},
        "horizon": 500,
    },
    # x(n+1)-x(n) = -2.2 x(n-1) + 2 x(n); positive and unbounded kernel
    "positive_unbounded": {
        "schema": 1,
        "equation": {"terms": [{"coeff": "2.2", "lag": 1}, {"coeff": "-2", "lag": 0}]},
        "horizon": 60,
    },
    "two_delay_sin_cos": {
        "schema": 1,
        "equation": {"terms": [
            {"coeff": "0.2 + 0.05*sin(n)", "lag": 1},
            {"coeff": "0.1*abs(cos(n))", "lag": 20},
        ]},
        "horizon": 2000,
    },
    "alternating_two_delay": {
        "schema": 1,
        "equation": {"terms": [
            {"coeff": "0.12 + 0.1*alt(n)", "lag": 2},
            {"coeff": "0.1 + 0.11*alt(n)", "lag": 14},
        ]},
        "horizon": 1000,
    },
    "periodic_mixed_sign": {
        "schema": 1,
        "equation": {"terms": [
            {"coeff": "per(-0.12, -0.05)", "lag": [3, 5]},
            {"coeff": "per(0.17, 0.08)", "lag": [4, 8]},
        ]},
        "horizon": 400,
    },
}


def config_to_equation(config: dict) -> Equation:
    """Build a validated Equation from the JSON config shape; an error in a
    term or in the forcing names it."""
    eq_cfg = config.get("equation")
    if not isinstance(eq_cfg, dict) or not isinstance(eq_cfg.get("terms"), list):
        raise ValueError("config needs equation.terms, a list of terms")
    terms = []
    for i, t in enumerate(eq_cfg["terms"]):
        if not isinstance(t, dict) or "coeff" not in t or "lag" not in t:
            raise ValueError(f"term {i} needs 'coeff' and 'lag'")
        lag = t["lag"]
        with _naming(f"term {i}"):
            delay = DelaySpec(tuple(lag) if isinstance(lag, list) else (lag,))
            terms.append(Term(parse(str(t["coeff"])), delay))
    forcing = eq_cfg.get("forcing")
    with _naming("forcing"):
        forcing = parse(str(forcing)) if forcing is not None else None
    return validate(terms, forcing)


@contextmanager
def _naming(name: str) -> Iterator[None]:
    """Prefix ``name: `` to an error raised inside, keeping its kind."""
    try:
        yield
    except SeqEvalError as exc:
        raise SeqEvalError(f"{name}: {exc.message}", exc.index) from None
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _run_factorial_kernel(eq: Equation) -> list[CheckResult]:
    t0 = time.perf_counter()
    table = kernel(eq, 0, 20)
    err = 0.0
    for k in range(21):
        fk = math.factorial(k)
        for n in range(k, 21):
            err = max(err, abs(table.at(n, k) - fk / math.factorial(n)))
    elapsed = time.perf_counter() - t0
    return [
        CheckResult("kernel_matches_inverse_factorials", err < 1e-12, err, "< 1e-12"),
        CheckResult("runtime_seconds", elapsed < 0.1, elapsed, "< 0.1", volatile=True),
    ]


def _run_vanishing_coefficient(eq: Equation) -> list[CheckResult]:
    t0 = time.perf_counter()
    col = fundamental(eq, 0, 500)
    above_half = float(col.min())
    product = Fraction(1)
    for k in range(200):
        product *= 1 - Fraction(1, 3 ** (k + 1))
    limit_err = abs(col[-1] - float(product))
    elapsed = time.perf_counter() - t0
    no_stable = len(stable_verdicts(run_all(eq))) == 0
    return [
        CheckResult("kernel_stays_above_half", above_half > 0.5, above_half, "> 0.5"),
        CheckResult("limit_matches_product_oracle", limit_err < 1e-10, limit_err, "< 1e-10"),
        CheckResult("no_stability_claim", no_stable, float(no_stable), "no Stable verdict"),
        CheckResult("runtime_seconds", elapsed < 0.1, elapsed, "< 0.1", volatile=True),
    ]


def _run_positive_unbounded(eq: Equation) -> list[CheckResult]:
    col = fundamental(eq, 0, 60)
    ratio_ok = bool(all(col[n] > 1.5 * col[n - 1] for n in range(1, 61)))
    exact = (3.0 + math.sqrt(0.2)) / 2.0
    radius_err = abs(companion_radius(autonomous_coefficients(eq)).radius - exact)
    no_stable = len(stable_verdicts(run_all(eq))) == 0
    return [
        CheckResult("growth_ratio_above_1p5", ratio_ok, float(ratio_ok), "X(n,0) > 1.5 X(n-1,0)"),
        CheckResult("companion_radius", radius_err < 1e-6, radius_err, "within 1e-6 of (3+sqrt(0.2))/2"),
        CheckResult("no_stability_claim", no_stable, float(no_stable), "no Stable verdict"),
    ]


def _run_two_delay_sin_cos(eq: Equation) -> list[CheckResult]:
    v = check_corollary8(eq, 1)
    a_inf = v.witnesses.get("a_inf", math.nan)
    a_sup = v.witnesses.get("a_sup", math.nan)
    gamma = v.witnesses.get("gamma_min", math.nan)
    fit = decay_fit(eq, 2000)
    return [
        CheckResult("two_term_part1_stable", v.outcome is Outcome.STABLE,
                    float(v.outcome is Outcome.STABLE), "Stable"),
        CheckResult("a_range_inside_quarter", 0.0 < a_inf and a_sup <= 0.25 + 1e-9,
                    a_sup, "(0, 0.25]"),
        CheckResult("gamma_at_most_two_thirds", gamma <= 0.1 / 0.15 + 1e-9, gamma,
                    "<= 0.1/0.15 + 1e-9"),
        CheckResult("decay_rate_below_one", fit.mu_hat < 1.0, fit.mu_hat, "mu_hat < 1"),
    ]


def _run_alternating_two_delay(eq: Equation) -> list[CheckResult]:
    v = check_corollary8(eq, 1)
    pi_half = [w for w in check_classical(eq) if w.criterion == "classical_pi_half"][0]
    diag = pi_half.witnesses["diagnostic_sum"]
    return [
        CheckResult("two_term_part1_stable", v.outcome is Outcome.STABLE,
                    float(v.outcome is Outcome.STABLE), "Stable"),
        CheckResult("diagnostic_sum_178", abs(diag - 1.78) < 1e-12, diag, "1.78 +/- 1e-12"),
        CheckResult("pi_half_inconclusive", pi_half.outcome is Outcome.INCONCLUSIVE,
                    float(pi_half.outcome is Outcome.INCONCLUSIVE), "Inconclusive"),
    ]


def _run_periodic_mixed_sign(eq: Equation) -> list[CheckResult]:
    window = (0, 400)
    pair = row_sum(coeff_span(eq, window, [0, 1])[0])
    inf_s, sup_s = float(pair.min()), float(pair.max())
    wsum = windowed_delayed_sum(eq, [eq.terms[0].delay], -1, window)
    h_spec = eq.terms[1].delay
    lhs, rhs, strip = theorem5_lhs_rhs(eq, [0, 1], [h_spec, h_spec], window)
    by_parity = {int(n) % 2: (float(l), float(r)) for n, l, r in zip(strip.ns, lhs, rhs)}
    v = check_corollary_theorem5(eq, [0, 1], [h_spec, h_spec])
    gamma = v.witnesses.get("gamma_min", math.nan)
    return [
        CheckResult("pair_sums_005_003", abs(inf_s - 0.03) < 1e-12 and abs(sup_s - 0.05) < 1e-12,
                    sup_s, "{0.05, 0.03} +/- 1e-12"),
        CheckResult("window_sum_021", abs(wsum.value - 0.21) < 1e-12 and wsum.value <= 0.25,
                    wsum.value, "0.21 +/- 1e-12, <= 1/4"),
        CheckResult("gap_product_even", abs(by_parity[0][0] - 0.0348) < 1e-12,
                    by_parity[0][0], "0.0348 +/- 1e-12"),
        CheckResult("gap_product_odd", abs(by_parity[1][0] - 0.0275) < 1e-12,
                    by_parity[1][0], "0.0275 +/- 1e-12"),
        CheckResult("comparison_stable_gamma", v.outcome is Outcome.STABLE and gamma < 0.95,
                    gamma, "Stable with gamma_min < 0.95"),
    ]


_RUNNERS: dict[str, Callable[[Equation], list[CheckResult]]] = {
    "factorial_kernel": _run_factorial_kernel,
    "vanishing_coefficient": _run_vanishing_coefficient,
    "positive_unbounded": _run_positive_unbounded,
    "two_delay_sin_cos": _run_two_delay_sin_cos,
    "alternating_two_delay": _run_alternating_two_delay,
    "periodic_mixed_sign": _run_periodic_mixed_sign,
}


def run_fixture(name: str) -> list[CheckResult]:
    if name not in FIXTURE_CONFIGS:
        raise ValueError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_CONFIGS)}")
    eq = config_to_equation(FIXTURE_CONFIGS[name])
    return _RUNNERS[name](eq)
