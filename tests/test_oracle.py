import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from delaystab import (
    DelaySpec,
    Term,
    companion_radius,
    decay_fit,
    exact_stable,
    fit_decay,
    fundamental,
    parse,
    random_equation,
    run_all,
    stable_verdicts,
    tail_equivalence_test,
    validate,
)
from delaystab import criteria
from delaystab.equation import autonomous_coefficients
from delaystab.limits import exact_period
from delaystab.oracle import (
    _char_coeffs,
    _medians,
    _power_radius,
    general_surrogate,
    oracle_block,
    splice_surrogate,
)
from delaystab.seqexpr import classify, constant


# --- companion radius


def test_companion_double_root():
    rep = companion_radius([(0.25, 1)])
    assert rep.radius == pytest.approx(0.5, abs=1e-12)
    assert rep.dimension == 2


def test_companion_identity_marginal():
    assert companion_radius([(0.0, 0)]).radius == 1.0


@pytest.mark.parametrize("pairs,message", [([], "no coefficients"),
                                           ([(0.1, 1), (0.2, -1)], "negative lag")])
def test_companion_radius_refuses_what_is_no_equation(pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        companion_radius(pairs)


def test_companion_unbounded_fixture(eq_unbounded):
    rep = companion_radius(autonomous_coefficients(eq_unbounded))
    assert rep.radius == pytest.approx((3 + math.sqrt(0.2)) / 2, abs=1e-9)


def test_companion_rejects_nonautonomous(eq_sin_cos):
    assert autonomous_coefficients(eq_sin_cos) is None


def test_companion_against_polynomial_roots():
    # independent cross-check of both the d <= 3 eigenvalue path and the power path
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(150):
        d = int(rng.integers(1, 8))
        pairs = [(float(rng.uniform(-0.8, 0.8)), int(rng.integers(0, d)))
                 for _ in range(int(rng.integers(1, 4)))]
        rep = companion_radius(pairs)
        poly = np.concatenate([[1.0], -_char_coeffs(pairs)])
        ref = float(np.abs(np.roots(poly)).max())
        worst = max(worst, abs(rep.radius - ref))
        assert abs(rep.radius - ref) <= max(1e-3, rep.dominant_modulus_error_bound * 3 + 1e-6)
    assert worst < 1e-3


# --- the exact stability boundary (Levin & May 1976; Kuruklis 1994):
# x(n+1) - x(n) = -a x(n - k) is asymptotically stable exactly when
# 0 < a < 2 sin(pi / (2 (2k + 1))); each lag is probed a hair on each side


BOUNDARY_LAGS = range(1, 51)
BOUNDARY_HAIR = 1e-6
EXACT_HAIR = 1e-12  # only exact_stable tells the two sides apart here


def _boundary_cases(hair: float = BOUNDARY_HAIR):
    for k in BOUNDARY_LAGS:
        a = 2 * math.sin(math.pi / (2 * (2 * k + 1)))
        yield k, a * (1 - hair), a * (1 + hair)


def _stable_lags_past_the_boundary(hair: float = BOUNDARY_HAIR) -> list:
    return [k for k, _, above in _boundary_cases(hair)
            if stable_verdicts(run_all(validate([Term(constant(above), DelaySpec.constant(k))])))]


@functools.cache
def _exact(a: float, lags: tuple) -> bool:
    return exact_stable(validate([Term(constant(a), DelaySpec.periodic(list(lags)))]))


def test_closed_form_boundary_is_never_certified_from_outside():
    for k, below, above in _boundary_cases():
        # |lambda| is within about 1e-6 of 1 on both sides, so the radius
        # alone does not say which side of 1 it is on; its interval must
        inside, outside = companion_radius([(below, k)]), companion_radius([(above, k)])
        assert inside.radius - inside.dominant_modulus_error_bound < 1, k
        assert outside.radius + outside.dominant_modulus_error_bound > 1, k
    assert _stable_lags_past_the_boundary() == []
    for k, _, above in _boundary_cases(EXACT_HAIR):
        assert not _exact(above, (k,)), k
    assert _stable_lags_past_the_boundary(EXACT_HAIR) == []


def test_closed_form_boundary_catches_a_loosened_threshold(monkeypatch):
    # the factor DELAYSTAB_LOOSEN_THRESHOLDS=1 sets: the test above can fail
    monkeypatch.setattr(criteria, "_LOOSEN", 6.0)
    assert _stable_lags_past_the_boundary() == list(BOUNDARY_LAGS)


def _true_radius(c: np.ndarray):
    """max |root| of x^d - c_0 x^(d-1) - ... - c_(d-1) at 50 digits."""
    mp = pytest.importorskip("mpmath")
    c = np.trim_zeros(np.asarray(c, dtype=float), "b")  # each trailing zero is a root at 0
    if len(c) < 2:
        return abs(mp.mpf(c[0])) if len(c) else mp.mpf(0)
    # roots of p(M y) / M^d, with M a power of two near the Fujiwara bound
    M = mp.mpf(2) ** math.frexp(max(abs(x) ** (1 / (j + 1)) for j, x in enumerate(c)))[1]
    with mp.workdps(50):
        roots = mp.polyroots([1] + [-mp.mpf(x) / M ** (j + 1) for j, x in enumerate(c)],
                             maxsteps=200, extraprec=200)
        return M * max(abs(r) for r in roots)


@pytest.mark.parametrize("pairs", [
    [(0.1, 0), (0.27, 1), (-0.027, 2)],  # near-triple root at 0.3
    [(0.25, 1)],  # double root 0.5
    [(0.1, 0), (0.2025, 1)],  # double root 0.45
    [(-1e300, 1)],
    [(1.0, 0), (0.0, 2)],  # x^3: triple root at 0
    [(-1e-300, 2)],  # x^3 - x^2 - 1e-300: two tiny roots under a simple one
])
def test_small_companion_bound_holds(pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = companion_radius(pairs)
    assert rep.dimension <= 3
    assert math.isfinite(rep.dominant_modulus_error_bound)
    assert abs(rep.radius - _true_radius(_char_coeffs(pairs))) <= rep.dominant_modulus_error_bound


def test_small_companion_bound_holds_on_random_equations():
    for seed in range(1500):
        pairs = autonomous_coefficients(random_equation(seed, m_max=3, T_max=2, autonomous=True))
        rep = companion_radius(pairs)
        assert rep.dimension <= 3
        err = abs(rep.radius - _true_radius(_char_coeffs(pairs)))
        assert err <= rep.dominant_modulus_error_bound, seed


def test_power_path_bound_holds_on_benchmark_generator():
    powered = 0
    for seed in range(100):
        pairs = autonomous_coefficients(
            random_equation(seed, m_max=3, T_max=4, K_max=1.0, autonomous=True))
        rep = companion_radius(pairs)
        if rep.dimension < 4:
            continue
        powered += 1
        err = abs(rep.radius - _true_radius(_char_coeffs(pairs)))
        assert err <= rep.dominant_modulus_error_bound, seed
    assert powered > 50


# --- the Floquet monodromy (Elaydi): exact_stable decides in rationals
# whether M over one exact period L has every multiplier below rate^L


def _step_rate(eq) -> float:
    """rho(M)^(1/L) in floats, with M as the L step matrices multiplied out
    without rescaling: a cross-check of exact_stable for short periods."""
    L, d = exact_period(eq, [t.delay for t in eq.terms]), eq.T + 1
    coeffs, lags = eq.coeff_table(0, L - 1), eq.lag_table(0, L - 1)
    M = np.eye(d)
    for n in range(L):
        A = np.eye(d, k=-1)
        A[0, 0] = 1.0
        np.subtract.at(A[0], lags[:, n], coeffs[:, n])
        M = A @ M
    return float(np.abs(np.linalg.eigvals(M)).max()) ** (1 / L)


def test_exact_stable_decides_the_closed_form_boundary():
    for k, below, above in _boundary_cases(EXACT_HAIR):
        assert _exact(below, (k,)) and not _exact(above, (k,)), k
        if k <= 25:  # a lag table of period 2: M is the companion squared
            assert _exact(below, (k, k)) and not _exact(above, (k, k)), k


@pytest.mark.parametrize("coeff, lag, rate, want", [
    ("0.1 + 0.01*sin(n)", 1, 1.0, "a coefficient is general"),
    # d = 501: 3 d^2 + d^3 = 126,504,504
    ("per(0.1, 0.2, 0.3)", 500, 1.0, "exact monodromy work 126504504 exceeds the cap 1000000"),
    ("per(1.0, 0.5)", 0, 1.0, True),  # a(0) = 1 zeroes x(1): M = 0
    ("0", 0, 1.0, False),  # the multiplier 1
    ("2", 0, 1.0, False),  # the multiplier -1
    ("0.5", 0, 0.5, False),  # the multiplier 0.5 is not below the rate 0.5
    ("0.5", 0, math.nextafter(0.5, 1), True),
    # a step whose coefficients are all 0 copies x(n) into x(n + 1): float
    # rates 1.148 and 0.920
    ("per(-0.55, 0)", 5, 1.0, False),
    ("per(0.203, 0, 0, 0)", 5, 1.0, True),
    # a lag table of period 200: M is the companion to the 200th power, with
    # rates (1 + sqrt(0.2)) / 2 = 0.72361 and sqrt(5) = 2.23607
    ("0.2", [1] * 200, 0.7236, False),
    ("0.2", [1] * 200, 0.7237, True),
    ("5.0", [1] * 200, 2.236, False),
    ("5.0", [1] * 200, 2.2361, True),
    # the rate is finite and nonnegative; at rate 0 nothing is stable
    ("0.5", 0, -0.6, "rate -0.6 must be finite and nonnegative"),
    ("0.5", 0, math.inf, "rate inf must be finite and nonnegative"),
    ("0.5", 0, math.nan, "rate nan must be finite and nonnegative"),
    ("0.5", 0, 0.0, False),
    ("per(1.0, 0.5)", 0, 0.0, False),
])
def test_exact_stable_edges(coeff, lag, rate, want):
    delay = DelaySpec.constant(lag) if isinstance(lag, int) else DelaySpec.periodic(lag)
    eq = validate([Term(parse(coeff), delay)])
    if isinstance(want, str):
        with pytest.raises(ValueError, match=f"^{want}$"):
            exact_stable(eq, rate)
    else:
        assert exact_stable(eq, rate) is want


# --- the soundness baseline: random_equation seeds 0..299 in four cells; no
# Stable verdict on an equation exact_stable decides as not stable, the
# share of stable equations with one, and the Stable mu that fail the exact
# rate check


@functools.cache
def _baseline(m_max: int, T_max: int, autonomous: bool = False) -> tuple:
    """(equation, exact_stable) for seeds 0..299 of one cell, decided once
    for every test that reads the cell."""
    eqs = [random_equation(seed, m_max=m_max, T_max=T_max, autonomous=autonomous)
           for seed in range(300)]
    return tuple((eq, exact_stable(eq)) for eq in eqs)


# Stable verdicts whose mu fails the exact check, by cell and family: item
# 2's theorem2 mu more than one ulp below the rate, and item 23b's mu at most
# one ulp below it or equal to it (rounding), all on T = 0 equations
_MU_DEFECTS = {
    (3, 4, False): ({"theorem2": 3}, {"corollary3": 1, "theorem2": 1}),
    (4, 6, False): ({"theorem2": 10}, {"corollary3": 1, "theorem2": 1}),
    (2, 3, False): ({"theorem2": 5},
                    {"corollary2": 1, "corollary3": 4, "theorem1": 1, "theorem2": 4}),
    (3, 4, True): ({"theorem2": 44},
                   {"corollary2": 6, "corollary3": 8, "theorem1": 8, "theorem2": 8}),
}


@pytest.mark.parametrize("kwargs, covered, stable", [
    ({"m_max": 3, "T_max": 4}, 105, 242),
    ({"m_max": 4, "T_max": 6}, 86, 226),
    ({"m_max": 2, "T_max": 3}, 136, 238),
    ({"m_max": 3, "T_max": 4, "autonomous": True}, 173, 208),
])
def test_soundness_baseline(kwargs, covered, stable):
    cell = (kwargs["m_max"], kwargs["T_max"], kwargs.get("autonomous", False))
    found_covered = found_stable = 0
    below, rounded = Counter(), Counter()
    for seed, (eq, exact) in enumerate(_baseline(*cell)):
        verdicts = stable_verdicts(run_all(eq))
        if not exact:
            assert not verdicts, seed
            continue
        found_stable += 1
        found_covered += bool(verdicts)
        # exact_stable(eq, mu) is monotone in mu: past the least mu that
        # passes, every mu does
        for v in sorted((v for v in verdicts if "mu" in v.witnesses),
                        key=lambda v: v.witnesses["mu"]):
            mu = v.witnesses["mu"]
            if exact_stable(eq, mu):
                break
            if exact_stable(eq, math.nextafter(mu, math.inf)):
                assert eq.T == 0, seed
                rounded[_family(v.criterion)] += 1
            else:
                below[_family(v.criterion)] += 1
    assert (found_covered, found_stable) == (covered, stable)
    assert (below, rounded) == _MU_DEFECTS[cell]


def test_float_monodromy_agrees_with_exact_stable_away_from_one():
    margin = 1e-6  # a float rate this near 1 is not compared
    compared = 0
    for cell in _MU_DEFECTS:
        for seed, (eq, exact) in enumerate(_baseline(*cell)):
            rate = _step_rate(eq)
            if abs(rate - 1) > margin:
                compared += 1
                assert (rate < 1) == exact, (cell, seed)
    assert compared == 1200


# --- a stability-region atlas (Levin & May; Kuruklis): the autonomous
# equation x(n+1) - x(n) = -a x(n - k) - b x(n - j) on a 17 x 17 grid of
# a, b in [-0.5, 1.0], decided by exact_stable; no Stable verdict outside
# the exact region, and the count inside pinned


@pytest.mark.parametrize("lags, stable, covered", [
    ((1, 3), 89, 26),
    ((0, 2), 163, 114),
    ((2, 5), 36, 11),
], ids=["lags_1_3", "lags_0_2", "lags_2_5"])
def test_stability_region_atlas(lags, stable, covered):
    found_covered = found_stable = 0
    grid = np.linspace(-0.5, 1.0, 17)
    for a in grid:
        for b in grid:
            eq = validate([Term(constant(float(a)), DelaySpec.constant(lags[0])),
                           Term(constant(float(b)), DelaySpec.constant(lags[1]))])
            certified = bool(stable_verdicts(run_all(eq)))
            if not exact_stable(eq):
                assert not certified, (a, b)
            else:
                found_stable += 1
                found_covered += certified
    assert (found_covered, found_stable) == (covered, stable)


# --- periodic surrogates: a periodic equation written with
# general coefficients takes the general path, with exact_stable of the
# periodic form as its truth


# read autonomous_coefficients, so they cannot fire on a general coefficient
_AUTONOMOUS_FAMILIES = {"corollary9", "corollary10", "classical_margin", "classical_pi_half"}


def _family(criterion):
    return criterion.split("(")[0].split(".")[0]


def _stable_witnesses(eq):
    return {v.criterion: v.witnesses for v in stable_verdicts(run_all(eq))}


def test_the_general_path_is_sound_on_periodic_surrogates():
    # the general path gives the periodic path's Stable verdicts, less the
    # autonomous families, with the same product witnesses and rate
    unstable = 0
    for seed, (eq, exact) in enumerate(_baseline(3, 4)[:100]):
        general = general_surrogate(eq)
        assert all(classify(t.coeff) is None for t in general.terms)
        assert general.coeff_table(0, 999).tobytes() == eq.coeff_table(0, 999).tobytes()
        periodic, found = _stable_witnesses(eq), _stable_witnesses(general)
        if not exact:
            unstable += 1
            assert not found, seed
        assert not {_family(c) for c in found} & _AUTONOMOUS_FAMILIES, seed
        shared = {c for c in periodic if _family(c) not in _AUTONOMOUS_FAMILIES}
        assert found.keys() == shared, seed
        for c in found:
            for w in ("p", "b", "mu"):
                assert found[c].get(w) == periodic[c].get(w), (seed, c, w)
    assert unstable == 18


def test_no_stable_verdict_rests_on_a_prefix_before_a_splice():
    # the cutoff lies past 10 T and 5 T, where the windows started before
    # they read the cutoff; the calm prefix passed every hypothesis there
    unstable = 0
    for seed, (eq, exact) in enumerate(_baseline(3, 4)[:100]):
        if not exact:
            unstable += 1
            verdicts = run_all(splice_surrogate(eq, 20_000))
            assert not stable_verdicts(verdicts), seed
            assert {v.window for v in verdicts} == {(20_000, 30_000)}, seed
    assert unstable == 18


# --- block power iteration against the per-step loop


# the per-step loop that _power_radius replaced, kept verbatim as the reference
def _ref_power_radius(c: np.ndarray, restarts: int = 64, max_iter: int = 4000,
                      tol: float = 1e-10) -> tuple[float, float]:
    """Dominant modulus of the companion matrix by growth-rate iteration.

    All random restarts advance together as the columns of one matrix;
    the radius is the median of exp(mean log growth over the trailing
    half), which converges even when the dominant eigenvalue is a complex
    pair or defective and the plain Rayleigh quotient oscillates.
    Returns (radius, error bound from restart spread and stop slack).
    """
    d = len(c)
    rng = np.random.default_rng(0xD15ABE)
    V = rng.standard_normal((d, restarts))
    V /= np.linalg.norm(V, axis=0)
    log_hist = np.zeros((max_iter, restarts))
    prev = None
    stable = 0
    slack = math.inf
    used = 0
    for it in range(max_iter):
        W = np.empty_like(V)
        W[0] = c @ V
        W[1:] = V[:-1]
        norms = np.sqrt((W * W).sum(axis=0))
        zero = norms == 0.0
        if zero.any():
            # nilpotent direction: growth is exactly zero from here on
            log_hist[it:] = -np.inf
            used = max_iter
            break
        log_hist[it] = np.log(norms)
        V = W / norms
        used = it + 1
        if used % 64 == 0:
            half = log_hist[used // 2 : used]
            est = float(np.median(half.mean(axis=0)))
            if prev is not None:
                slack = abs(est - prev)
                if slack < tol:
                    stable += 1
                    if stable >= 2:
                        break
                else:
                    stable = 0
            prev = est
    with np.errstate(invalid="ignore"):
        means = log_hist[used // 2 : used].mean(axis=0)
    estimates = np.exp(means)
    radius = float(np.median(estimates))
    spread = float(estimates.max() - estimates.min()) if np.isfinite(estimates).all() else 0.0
    err = max(spread, min(slack, 1.0), 1e-12)
    return radius, err


def _power_rows():
    # criterion 9's companion rows that take the power path (d >= 4)
    rows = [_char_coeffs(autonomous_coefficients(
        random_equation(seed, m_max=3, T_max=4, K_max=1.0, autonomous=True)))
        for seed in range(200)]
    rows = [c for c in rows if len(c) >= 4]
    rng = np.random.default_rng(11)
    for _ in range(12):
        d = int(rng.integers(4, 9))
        rows.append(rng.uniform(-1.2, 1.2, d))
        # a complex dominant pair r e^(+-i theta) over smaller real roots
        r, theta = rng.uniform(0.3, 1.3), rng.uniform(0.2, 3.0)
        roots = [r * np.exp(1j * theta), r * np.exp(-1j * theta),
                 *rng.uniform(-0.8 * r, 0.8 * r, d - 2)]
        rows.append(-np.poly(roots).real[1:])
    rows += [np.zeros(4), np.array([1e-17, 0, 0, 0]), np.array([0, 0, 0, -1e-80]),
             np.array([0, 0, 0, 0, 1.0])]
    return rows


def test_block_power_radius_matches_step_loop():
    for c in _power_rows():
        radius, err = _power_radius(c)
        ref, ref_err = _ref_power_radius(c)
        assert not math.isnan(radius), c
        assert abs(radius - ref) <= 1e-12 * max(abs(ref), 1e-3), c
        if ref >= 1e-3:
            assert abs(err - ref_err) <= 1e-12, c


@pytest.mark.parametrize("c", [[0, 0, 0, 1e80], [1e30, 0, 0, 0], [0, 0, 0, -1e-100]])
def test_block_power_radius_rescales_out_of_range_powers(c):
    # C^16 overflows (or underflows to zero); the step loop still resolves these
    c = np.array(c, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius, err = _power_radius(c)
    ref, _ = _ref_power_radius(c)
    assert abs(radius - ref) <= 1e-12 * ref
    assert abs(radius - ref) <= err


def _row(seed, **kw):
    return _char_coeffs(autonomous_coefficients(random_equation(seed, **kw)))


# (radius, err) as float.hex, captured from the loops that the strided one
# replaced, which keeps every operation and its order: the first six from the
# allocating step loop, the rest from the buffered one.  The strides end at
# blocks 16, 32, 64, 128, 192 and 250, and a stop check falls every 4 blocks
@pytest.mark.parametrize("c,expected", [
    (_row(3, autonomous=True),  # stops early
     ("0x1.bf1f622948793p-1", "0x1.19799812dea11p-40")),
    (_row(1, m_max=4, T_max=8, autonomous=True),  # d = 5, all 250 blocks
     ("0x1.b97ae902b15b8p-1", "0x1.e416bd4596800p-12")),
    (_row(8, m_max=4, T_max=8, autonomous=True),  # d = 6, all 250 blocks
     ("0x1.00d64c347f5d8p+0", "0x1.49a0e9bfc8000p-12")),
    (np.array([0, 0, 0, 1e80]), ("0x1.5af1d78b58c41p+66", "0x1.19799812dea11p+28")),
    (np.array([0, 0, 0, -1e-100]), ("0x1.ef2d0f5da7dd9p-84", "0x1.19799812dea11p-122")),
    (np.zeros(20), ("0x0.0p+0", "0x1.0000000000000p+0")),  # nilpotent after one block
    (_row(29, m_max=4, T_max=8, autonomous=True),  # stops at block 12, the earliest stop
     ("0x1.ef6ec024278e7p-1", "0x1.19799812dea11p-40")),
    (_row(2, autonomous=True),  # stops at block 16, a stride's last
     ("0x1.076e7589b2b89p+0", "0x1.19799812dea11p-40")),
    (_row(3, m_max=4, T_max=8, autonomous=True),  # stops at block 20, inside the second stride
     ("0x1.bdd5aaf176d79p-1", "0x1.19799812dea11p-40")),
    (_row(55, m_max=4, T_max=8, autonomous=True),  # stops at block 32, a stride's last
     ("0x1.0682d4917ca5ep+0", "0x1.4a68000000000p-39")),
    (_row(21, m_max=4, T_max=8, autonomous=True),  # stops at block 48, inside the third stride
     ("0x1.034adb921af06p+0", "0x1.605a4c0000000p-30")),
    (_row(109, autonomous=True),  # stops at block 56, inside the third stride
     ("0x1.e60afa471da18p-1", "0x1.b858000000000p-35")),
    # shift companions: the first zero scale at block ceil(d / 16), each after
    # checks with a finite slack; blocks 9 and 10 are inside the first
    # stride, 17 starts the second and 33 the third
    (np.zeros(144), ("0x0.0p+0", "0x1.f4e0a1912d7dap-8")),
    (np.zeros(160), ("0x0.0p+0", "0x1.0793a85f2d8fcp-8")),
    (np.zeros(272), ("0x0.0p+0", "0x1.32370d896cd4cp-8")),
    (np.zeros(528), ("0x0.0p+0", "0x1.66776812295dcp-9")),
])
def test_power_radius_keeps_its_bits(c, expected):
    radius, err = _power_radius(c)
    assert (radius.hex(), err.hex()) == expected


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(5)
    samples = [rng.standard_normal(64), rng.standard_normal(64) * 1e300,
               np.exp(rng.uniform(-3, 3, 64)), np.zeros(64), np.full(64, -0.0),
               np.repeat(rng.standard_normal(4), 16)]
    for special in (math.inf, -math.inf, math.nan):
        for count in (1, 32, 64):
            x = rng.standard_normal(64)
            x[rng.choice(64, count, replace=False)] = special
            samples.append(x)
    x = rng.standard_normal(64)
    x[:32], x[32:] = -math.inf, math.inf
    samples.append(x)
    for head in ((-math.inf, math.inf), (math.nan, -math.inf)):
        # -0.0 in the middle, with infinities, or a NaN, beside it
        x = rng.standard_normal(64)
        x[rng.choice(64, 20, replace=False)] = -0.0
        x[:2] = head
        samples.append(x)
    batch = np.stack(samples)  # one call, each row its own median
    with np.errstate(invalid="ignore"):
        medians = _medians(batch)
        assert len(medians) == len(samples)
        for x, m in zip(samples, medians):
            assert m.tobytes() == np.median(x).tobytes(), x


def test_companion_radius_past_the_step_loop_range():
    # the per-step loop squares norms near 1e300 and returns nan here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = companion_radius([(-1e300, 3)])
    assert rep.radius == pytest.approx(1e75, rel=1e-12)
    assert rep.dominant_modulus_error_bound < 1e-10 * rep.radius


# --- decay fitting


def test_fit_exact_geometric():
    fit = fit_decay(0.8 ** np.arange(300), 20)
    assert fit.mu_hat == pytest.approx(0.8, abs=1e-9)
    assert fit.residual < 1e-10


def test_fit_envelope_bounds_column():
    eq = validate([Term(parse("0.25"), DelaySpec.constant(1))])
    col = fundamental(eq, 0, 600)
    fit = fit_decay(col, 20)
    assert fit.mu_hat == pytest.approx(0.5, abs=1e-2)
    tail = col[fit.window[0]:]
    bound = fit.L_hat * fit.mu_hat ** np.arange(len(tail))
    assert np.all(np.abs(tail) <= bound * (1 + 1e-9))


def test_fit_super_exponential_flagged(eq_factorial):
    col = fundamental(eq_factorial, 0, 150)
    fit = fit_decay(col, 20)
    assert fit.mu_hat < 0.1  # slope strongly negative
    assert fit.residual > 1.0  # clearly not a clean geometric profile


def test_fit_zero_tail_convention(eq_zero):
    fit = fit_decay(np.zeros(120), 20)
    assert fit.mu_hat == 0.0


def test_fit_short_column_rejected():
    with pytest.raises(ValueError):
        fit_decay(np.ones(30), 20)


@pytest.mark.parametrize("seed,horizon", [(0, 600), (3, 1000), (7, 30), (11, 0)])
def test_decay_fit_is_the_fit_of_the_column_past_its_skip(seed, horizon):
    # a horizon short of skip + 49 is lengthened so the fit has 50 points
    eq = random_equation(seed, m_max=3, T_max=12, K_max=0.8)
    skip = max(5 * eq.T, 20)
    column = fundamental(eq, 0, max(horizon, skip + 49))
    assert decay_fit(eq, horizon) == fit_decay(column, skip)


def test_decay_fit_of_an_early_overflow_raises_the_fit_error():
    # X(n, 0) = (1 - 1e20)^n is non-finite from n = 16, before the skip of 20;
    # the overflow raises no NumPy warning (they fail tests here)
    eq = validate([Term(parse("1e20"), DelaySpec.constant(0))])
    with pytest.raises(ValueError, match=r"at n = 16 is not finite \(overflow\)"):
        decay_fit(eq, 200)


def test_decay_fit_reads_the_tail_past_the_last_splice_cutoff():
    # a = 1.5 at lag 1 is past the Levin-May bound of 1; its rate is
    # sqrt(1.5) ~ 1.2247.  X(n, 0) fitted the calm prefix (mu_hat 0.887 on
    # [20, 1000]), and underflows to zero long before the cutoff
    eq = validate([Term(parse("splice(100000, 0.1, 1.5)"), DelaySpec.constant(1))])
    fit = decay_fit(eq, 1000)
    assert fit.mu_hat > 1
    assert fit.window == (100_020, 100_069)
    assert decay_fit(eq, 100_500).window[0] >= 100_000


def test_decay_fit_names_an_overflow_past_a_splice_by_its_own_n():
    # X(n, 1000) = (1 - 1e20)^(n - 1000) is non-finite from n = 1016
    eq = validate([Term(parse("splice(1000, 0.1, 1e20)"), DelaySpec.constant(0))])
    with pytest.raises(ValueError, match=r"at n = 1016 is not finite .* past n = 1020$"):
        decay_fit(eq, 2000)


def test_oracle_block_is_the_report_entry():
    # the entries ``check`` wrote for these equations at horizon 1000
    autonomous = random_equation(3, autonomous=True)
    assert oracle_block(autonomous, 1000) == {
        "decay": {"mu_hat": 0.8732863116640487, "L_hat": 0.07445179242815517,
                  "window": (20, 1000), "residual": 5.999289953706466e-11},
        "spectral": {"radius": 0.873286311664048, "dominant_modulus_error_bound": 1e-12,
                     "dimension": 4},
    }
    periodic = random_equation(0)
    assert oracle_block(periodic, 1000) == {
        "decay": {"mu_hat": 0.8288536916292571, "L_hat": 0.014367930762328613,
                  "window": (25, 1000), "residual": 6.325728843622031},
        "spectral": None,
    }


def test_spectral_agreement_sample():
    mismatches = []
    fits = 0
    for seed in range(200):
        eq = random_equation(seed, m_max=2, T_max=4, K_max=1.0, autonomous=True)
        rep = companion_radius(autonomous_coefficients(eq))
        if not 0.2 <= rep.radius <= 0.98:
            continue
        fits += 1
        fit = decay_fit(eq, 600)
        if abs(fit.mu_hat - rep.radius) > 0.02:
            mismatches.append(seed)
    assert fits > 50
    assert mismatches == []


# --- tail equivalence


def test_tail_equivalence_stable_and_unstable(eq_unbounded):
    eq = validate([Term(parse("0.2"), DelaySpec.constant(1))])
    garbage = [Term(parse("0.9"), DelaySpec.constant(1))]
    assert tail_equivalence_test(eq, 10, garbage, 400)
    zeros = [Term(parse("0"), t.delay) for t in eq_unbounded.terms]
    assert tail_equivalence_test(eq_unbounded, 10, zeros, 200)
    # a prefix past N is all the fit reads, so a growing one changes the
    # fitted class
    growing = [Term(parse("-0.5"), DelaySpec.constant(1))]
    assert not tail_equivalence_test(eq, 300, growing, 200)


def test_tail_equivalence_identity(eq_sin_cos):
    same = list(eq_sin_cos.terms)
    assert tail_equivalence_test(eq_sin_cos, 0, same, 300)


# --- random generator


def test_random_equation_deterministic():
    a = random_equation(0)
    b = random_equation(0)
    assert [(str(t.coeff), t.delay.lags) for t in a.terms] == \
        [(str(t.coeff), t.delay.lags) for t in b.terms]


def test_random_equation_seed0_pinned():
    eq = random_equation(0)
    assert [(str(t.coeff), t.delay.lags) for t in eq.terms] == [
        ("0.002024948571271545", (3, 3, 5)),
        ("0.11456409268682459", (4,)),
        ("per(0.0893966200560517, 0.02152114241392786, 0.10575577629038337)", (0,)),
    ]


def test_random_equation_shapes():
    eq = random_equation(5, m_max=1, T_max=0)
    assert eq.m == 1 and eq.T == 0
    auto = random_equation(9, autonomous=True)
    assert autonomous_coefficients(auto) is not None
    with pytest.raises(ValueError):
        random_equation(0, m_max=0)
