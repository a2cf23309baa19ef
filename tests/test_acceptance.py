"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantity so the run doubles as an audit log.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from delaystab import (
    DelaySpec,
    InitialData,
    Outcome,
    Term,
    companion_radius,
    decay_fit,
    exact_stable,
    fit_decay,
    fundamental,
    kernel,
    lemma6_sum,
    parse,
    product_bound,
    random_equation,
    representation_check,
    run_all,
    stable_verdicts,
    tail_equivalence_test,
    validate,
)
from delaystab.criteria import (
    PositivityCertificate,
    certify_positivity,
    check_classical,
    check_corollary8,
    check_corollary_theorem5,
    check_theorem1,
    positivity_scan,
    theorem5_lhs_rhs,
)
from delaystab.equation import autonomous_coefficients
from delaystab.limits import default_window, windowed_delayed_sum
from delaystab.seqexpr import periodic_table


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_factorial_kernel(eq_factorial):
    t0 = time.perf_counter()
    table = kernel(eq_factorial, 0, 20)
    err = max(
        abs(table.at(n, k) - math.factorial(k) / math.factorial(n))
        for k in range(21) for n in range(k, 21)
    )
    elapsed = time.perf_counter() - t0
    assert err < 1e-12
    assert elapsed < 0.1
    report(1, f"factorial kernel max error {err:.2e} in {elapsed * 1e3:.1f} ms")


def test_criterion_02_vanishing_coefficient_non_decay(eq_vanishing):
    t0 = time.perf_counter()
    col = fundamental(eq_vanishing, 0, 500)
    assert np.all(col > 0.5)
    product = Fraction(1)
    for k in range(200):
        product *= 1 - Fraction(1, 3 ** (k + 1))
    err = abs(float(col[-1]) - float(product))
    elapsed = time.perf_counter() - t0
    assert err < 1e-10
    assert elapsed < 0.1
    report(2, f"kernel min {col.min():.6f} > 1/2, limit error {err:.2e}, "
              f"{elapsed * 1e3:.1f} ms")


def test_criterion_03_unbounded_growth(eq_unbounded):
    col = fundamental(eq_unbounded, 0, 60)
    assert all(col[n] > 1.5 * col[n - 1] for n in range(1, 61))
    radius = companion_radius(autonomous_coefficients(eq_unbounded)).radius
    exact = (3 + math.sqrt(0.2)) / 2
    assert abs(radius - exact) < 1e-6
    assert not stable_verdicts(run_all(eq_unbounded))
    report(3, f"growth ratio > 1.5 up to n=60, radius {radius:.10f}, no Stable verdict")


def test_criterion_04_two_delay_sin_cos(eq_sin_cos):
    v = check_corollary8(eq_sin_cos, 1)
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["a_inf"] > 0
    assert v.witnesses["a_sup"] <= 0.25 + 1e-9
    assert v.witnesses["gamma_min"] <= 0.1 / 0.15 + 1e-9
    fit = decay_fit(eq_sin_cos, 2000)
    assert fit.mu_hat < 1
    report(4, f"two-term part 1 Stable, gamma {v.witnesses['gamma_min']:.4f}, "
              f"mu_hat {fit.mu_hat:.4f}")


def test_criterion_05_alternating_two_delay(eq_alternating):
    v = check_corollary8(eq_alternating, 1)
    assert v.outcome is Outcome.STABLE
    pi_half = [w for w in check_classical(eq_alternating)
               if w.criterion == "classical_pi_half"][0]
    diag = pi_half.witnesses["diagnostic_sum"]
    assert abs(diag - 1.78) < 1e-12
    assert pi_half.outcome is Outcome.INCONCLUSIVE
    report(5, f"part 1 Stable, diagnostic sum {diag!r} above pi/2, test Inconclusive")


def test_criterion_06_periodic_mixed_sign(eq_periodic_mixed):
    from delaystab.criteria import _sum_bounds
    inf_s, sup_s, exact = _sum_bounds(eq_periodic_mixed, [0, 1], (0, 400))
    assert exact
    assert abs(inf_s - 0.03) < 1e-12 and abs(sup_s - 0.05) < 1e-12
    wsum = windowed_delayed_sum(eq_periodic_mixed, [eq_periodic_mixed.terms[0].delay], -1,
                                default_window(eq_periodic_mixed))
    assert abs(wsum.value - 0.21) < 1e-12 and wsum.value <= 0.25
    h = eq_periodic_mixed.terms[1].delay
    lhs, rhs, strip = theorem5_lhs_rhs(eq_periodic_mixed, [0, 1], [h, h], (0, 400))
    by_parity = {int(n) % 2: float(l) for n, l in zip(strip.ns, lhs)}
    assert abs(by_parity[0] - 0.0348) < 1e-12
    assert abs(by_parity[1] - 0.0275) < 1e-12
    v = check_corollary_theorem5(eq_periodic_mixed, [0, 1], [h, h])
    assert v.outcome is Outcome.STABLE
    assert v.witnesses["gamma_min"] < 0.95
    report(6, f"sums ({inf_s:.2f}, {sup_s:.2f}), window sum {wsum.value:.2f}, "
              f"products (0.0348, 0.0275), gamma_min {v.witnesses['gamma_min']:.4f}")


def test_criterion_07_representation_formula():
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.35)
        history = [float(v) for v in rng.uniform(-1, 1, eq.T + 1)]
        forcing = periodic_table([float(v) for v in rng.uniform(-1, 1, 3)])
        resid = representation_check(eq, InitialData.from_values(0, history),
                                     forcing, 50)
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(7, f"100 seeded reconstructions, max residual {worst:.2e} in {elapsed:.2f} s")


def test_criterion_08_product_bound_and_kernel_mass(eq_factorial, eq_vanishing,
                                                    eq_sin_cos, eq_alternating,
                                                    eq_periodic_mixed, eq_unbounded):
    fixtures = [eq_factorial, eq_vanishing, eq_sin_cos, eq_alternating,
                eq_periodic_mixed, eq_unbounded]
    for eq in fixtures:
        col = np.abs(fundamental(eq, 0, 100))
        B = product_bound(eq, 0, 100)
        assert np.all(col <= B * (1 + 1e-12) + 1e-300)
    for seed in range(100):
        eq = random_equation(seed, m_max=3, T_max=5, K_max=1.0)
        col = np.abs(fundamental(eq, 0, 100))
        B = product_bound(eq, 0, 100)
        assert np.all(col <= B * (1 + 1e-12) + 1e-300)
    # kernel-mass bounds for the fixtures whose positivity is certified
    # (the factorial kernel underflows to exact zero near n = 178, so its
    # scan stops short of that)
    certified = 0
    for eq, scan_end in ((eq_factorial, 150), (eq_vanishing, 300)):
        assert isinstance(positivity_scan(eq, (0, scan_end)), PositivityCertificate)
        S = lemma6_sum(eq, 0, 300)
        assert S[eq.T:].min() >= -1e-10
        assert S[eq.T:].max() <= 1 + 1e-10
        certified += 1
    report(8, f"product bound held on 6 fixtures + 100 seeds; kernel mass in "
              f"[0,1] on {certified} certified fixtures")


def test_criterion_09_oracle_soundness():
    t0 = time.perf_counter()
    sound_violations = []
    rate_violations = []
    fits = 0
    for seed in range(200):
        eq = random_equation(seed, m_max=3, T_max=4, K_max=1.0, autonomous=True)
        rep = companion_radius(autonomous_coefficients(eq))
        stable = stable_verdicts(run_all(eq))
        if stable and not exact_stable(eq):
            sound_violations.append(seed)
        if 0.2 <= rep.radius <= 0.98:
            fits += 1
            fit = decay_fit(eq, 600)
            if abs(fit.mu_hat - rep.radius) > 0.02:
                rate_violations.append(seed)
    elapsed = time.perf_counter() - t0
    assert sound_violations == []
    assert rate_violations == []
    assert elapsed < 10.0
    report(9, f"200 autonomous seeds: 0 soundness violations, 0/{fits} rate "
              f"mismatches, {elapsed:.1f} s")


def test_criterion_10_rate_witness():
    for a in (0.05, 0.1, 0.2):
        eq = validate([Term(parse(str(a)), DelaySpec.constant(1))])
        cert = certify_positivity(eq)
        assert isinstance(cert, PositivityCertificate)
        v = check_theorem1(eq, cert)
        assert v.outcome is Outcome.STABLE
        witness_mu = v.witnesses["mu"]
        assert witness_mu == pytest.approx(1 - a, abs=1e-12)
        fit = fit_decay(fundamental(eq, 0, 1000), 20)
        assert fit.mu_hat <= (1 - a) + 0.05
        assert fit.mu_hat <= witness_mu + 0.05
    report(10, "fitted decay rates within 0.05 of the 1-a witnesses for "
               "a in {0.05, 0.1, 0.2}")


def test_criterion_11_tail_equivalence():
    rng = np.random.default_rng(77)
    produced = 0
    seed = 0
    agreements = 0
    while produced < 100:
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.8)
        seed += 1
        fit = decay_fit(eq, 400)
        if 0.98 <= fit.mu_hat <= 1.02:
            continue  # decay class ill-defined at the margin
        produced += 1
        n1 = int(rng.integers(1, 21))
        replacement = [Term(parse(repr(float(rng.uniform(-0.8, 0.8)))), t.delay)
                       for t in eq.terms]
        assert tail_equivalence_test(eq, n1, replacement, 400)
        agreements += 1
    report(11, f"{agreements}/100 seeded prefix rewrites agree in decay class")


def test_criterion_12_determinism(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "delaystab.cli", "examples", "--json",
             "--no-meta", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert r.returncode == 0, r.stdout + r.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["pass"] is True
    report(12, f"examples --json --no-meta byte-identical across runs "
               f"({len(outputs[0])} bytes)")
