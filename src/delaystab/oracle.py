"""Ground-truth layer independent of the stability checkers.

Autonomous equations reduce to a companion matrix whose spectral radius
decides stability exactly; general equations get an empirical geometric
decay rate fitted to a fundamental-function column.  Every Stable verdict
can be cross-validated against one of the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .equation import Equation, Term, validate
from .seqexpr import DelaySpec, classify, constant, evaluate, periodic_table

__all__ = [
    "SpectralReport",
    "DecayFit",
    "NonAutonomousError",
    "companion_radius",
    "companion_from_equation",
    "autonomous_coefficients",
    "fit_decay",
    "decay_class",
    "tail_equivalence_test",
    "random_equation",
]

_FIT_FLOOR = 1e-290  # drop subnormal magnitudes before taking logs

# companion power iteration: restarts, step budget, stop tolerance
_RESTARTS = 64
_MAX_ITER = 4000
_TOL = 1e-10
# steps per matrix product; every check point (a multiple of 64) and every
# half-window start (used // 2, down to 4000 // 2) must fall on a block end
_BLOCK = 16


class NonAutonomousError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralReport:
    radius: float
    dominant_modulus_error_bound: float
    dimension: int


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric envelope |X(n)| <= L_hat * mu_hat^(n - n_lo).

    mu_hat = 0 flags an identically-zero tail; a large residual with a
    strongly negative slope flags super-exponential decay, for which no
    single geometric rate is meaningful.
    """

    mu_hat: float
    L_hat: float
    window: tuple[int, int]
    residual: float


def _char_coeffs(pairs: Sequence[tuple[float, int]]) -> np.ndarray:
    """First companion row c with x(n+1) = sum_j c_j x(n-j)."""
    T = max(lag for _, lag in pairs)
    c = np.zeros(T + 1)
    c[0] = 1.0
    for a, lag in pairs:
        c[lag] -= a
    return c


def _roots_radius_small(c: np.ndarray) -> float:
    """Exact dominant modulus for dimension <= 3 via root formulas."""
    d = len(c)
    if d == 1:
        return abs(c[0])
    if d == 2:
        # lambda^2 - c0 lambda - c1
        disc = cmath.sqrt(c[0] * c[0] + 4.0 * c[1])
        return max(abs((c[0] + disc) / 2.0), abs((c[0] - disc) / 2.0))
    # lambda^3 - c0 lambda^2 - c1 lambda - c2, depressed-cubic form
    a, b, cc = -c[0], -c[1], -c[2]
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + cc
    disc = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u = (-q / 2.0 + disc) ** (1.0 / 3.0)
    if abs(u) < 1e-30:
        u = (-q / 2.0 - disc) ** (1.0 / 3.0)
    best = 0.0
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    for k in range(3):
        uk = u * omega**k
        v = -p / (3.0 * uk) if abs(uk) > 1e-300 else 0.0
        root = uk + v - a / 3.0
        best = max(best, abs(root))
    return best


def _companion(c: np.ndarray) -> np.ndarray:
    d = len(c)
    C = np.zeros((d, d))
    C[0] = c
    C[np.arange(1, d), np.arange(d - 1)] = 1.0
    return C


def _power_radius(c: np.ndarray) -> tuple[float, float]:
    """Dominant modulus of the companion matrix by growth-rate iteration.

    All random restarts advance together as the columns of one matrix,
    _BLOCK steps per product with C^_BLOCK; L[k] = log|C^(k _BLOCK) v0|
    telescopes the step norms.  The radius is the median of exp(mean log
    growth over the trailing half), (L[k] - L[k // 2]) / steps, which
    converges even when the dominant eigenvalue is a complex pair or
    defective and the plain Rayleigh quotient oscillates.
    Returns (radius, error bound from restart spread and stop slack).
    """
    d = len(c)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.linalg.matrix_power(_companion(c), _BLOCK)
        top = float(np.abs(P).max())
    shift = 0
    if c.any() and not 2.0 ** -500 < top < 2.0 ** 500:
        # C^_BLOCK under- or overflows: c_j 2^(-shift (j + 1)), exact in
        # binary, has the roots divided by 2^shift; with shift from the
        # Fujiwara bound 2 max |c_j|^(1 / (j + 1)) every scaled |c_j| is
        # below 2^-(j + 1), so the scaled companion has max-row-sum <= 1
        j1 = np.arange(1, d + 1)
        shift = math.frexp(2.0 * float((np.abs(c) ** (1.0 / j1)).max()))[1]
        P = np.linalg.matrix_power(_companion(np.ldexp(c, -shift * j1)), _BLOCK)
    rng = np.random.default_rng(0xD15ABE)
    V = rng.standard_normal((d, _RESTARTS))
    V /= np.linalg.norm(V, axis=0)
    L = np.zeros((_MAX_ITER // _BLOCK + 1, _RESTARTS))
    prev = None
    stable = 0
    slack = math.inf
    for k in range(1, len(L)):
        W = P @ V
        # scale before squaring: C^_BLOCK entries of near-nilpotent rows
        # reach 1e-221, whose squares underflow
        scale = np.abs(W).max(axis=0)
        if not scale.all():
            # nilpotent direction: growth is exactly zero from here on
            return 0.0, math.ldexp(max(min(slack, 1.0), 1e-12), shift)
        W /= scale
        ss = (W * W).sum(axis=0)
        L[k] = L[k - 1] + np.log(scale) + 0.5 * np.log(ss)
        V = W / np.sqrt(ss)
        used = k * _BLOCK
        if used % 64 == 0:
            est = float(np.median((L[k] - L[k // 2]) / (used - used // 2)))
            if prev is not None:
                slack = abs(est - prev)
                if slack < _TOL:
                    stable += 1
                    if stable >= 2:
                        break
                else:
                    stable = 0
            prev = est
    estimates = np.exp((L[k] - L[k // 2]) / (used - used // 2))
    radius = float(np.median(estimates))
    spread = float(estimates.max() - estimates.min())
    err = max(spread, min(slack, 1.0), 1e-12)
    return math.ldexp(radius, shift), math.ldexp(err, shift)


def companion_radius(pairs: Sequence[tuple[float, int]]) -> SpectralReport:
    """Spectral radius for the autonomous equation given as (coeff, lag)
    pairs of x(n+1) - x(n) = -sum a_l x(n - lag_l)."""
    pairs = [(float(a), int(lag)) for a, lag in pairs]
    if not pairs:
        raise ValueError("no coefficients")
    for _, lag in pairs:
        if lag < 0:
            raise ValueError("negative lag")
    c = _char_coeffs(pairs)
    d = len(c)
    if d <= 3:
        return SpectralReport(_roots_radius_small(c), 1e-12, d)
    radius, err = _power_radius(c)
    return SpectralReport(radius, err, d)


def autonomous_coefficients(eq: Equation) -> Optional[list[tuple[float, int]]]:
    """(coeff, lag) pairs when the equation is autonomous, else None."""
    pairs = []
    for t in eq.terms:
        if t.delay.kind != "constant" or classify(t.coeff).tag != "constant":
            return None
        pairs.append((evaluate(t.coeff, 0), t.delay.max_lag))
    return pairs


def companion_from_equation(eq: Equation) -> SpectralReport:
    pairs = autonomous_coefficients(eq)
    if pairs is None:
        raise NonAutonomousError("equation has variable coefficients or delays")
    return companion_radius(pairs)


def fit_decay(column: Sequence[float], skip: int) -> DecayFit:
    """Fit log|X| ~ alpha + beta n over the column tail after ``skip``.

    L_hat is inflated by the largest positive residual so the geometric
    envelope bounds every fitted point by construction.  A zero tail fits
    as mu_hat = 0; one that overflows before 5 points are usable raises.
    """
    col = np.asarray(column, dtype=float)
    if len(col) < skip + 50:
        raise ValueError(f"column too short: {len(col)} < skip + 50 = {skip + 50}")
    tail = col[skip:]
    idx = np.arange(len(tail), dtype=float)
    finite = np.isfinite(tail)
    usable = finite & (np.abs(tail) > _FIT_FLOOR)
    # an overflowed column is fitted, and reported, up to its last finite value
    window = (skip, skip + int(np.flatnonzero(finite)[-1]) if finite.any() else skip)
    if usable.sum() < 5:
        if not finite.all():
            n = int(np.argmin(np.isfinite(col)))
            raise ValueError(f"fundamental column at n = {n} is not finite (overflow); "
                             f"fewer than 5 points are left to fit past n = {skip}")
        return DecayFit(0.0, 0.0, window, 0.0)
    x = idx[usable]
    y = np.log(np.abs(tail[usable]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    mu_hat = math.exp(slope)
    L_hat = math.exp(intercept + max(0.0, resid.max()))
    return DecayFit(mu_hat, L_hat, window, float(np.abs(resid).max()))


def decay_class(fit: DecayFit) -> str:
    """'decaying' when the fitted rate certifies contraction."""
    return "decaying" if fit.mu_hat < 1.0 else "nondecaying"


def tail_equivalence_test(eq: Equation, n1: int, replacement: Sequence[Term],
                          N: int) -> bool:
    """True when rewriting the coefficients before n1 leaves the decay
    class of the fundamental function unchanged (finite prefixes must not
    matter for exponential stability)."""
    from .equation import prefix_modify
    from .simulator import fundamental

    modified = prefix_modify(eq, n1, replacement)
    skip = min(n1 + 5 * eq.T, max(0, N - 60))
    fit_orig = fit_decay(fundamental(eq, 0, N), skip)
    fit_mod = fit_decay(fundamental(modified, 0, N), skip)
    return decay_class(fit_orig) == decay_class(fit_mod)


def random_equation(seed: int, m_max: int = 3, T_max: int = 5,
                    K_max: float = 1.0, autonomous: bool = False) -> Equation:
    """Deterministic pseudo-random equation for the property suites.

    Coefficients are constant or short periodic tables, lags constant or
    periodic, magnitudes scaled so the typical instance stays desk-sized.
    """
    if m_max < 1 or T_max < 0 or K_max <= 0:
        raise ValueError("bounds must be positive")
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, m_max + 1))
    scale = float(rng.uniform(0.05, 1.0)) * min(1.2 / m, K_max)
    terms = []
    for _ in range(m):
        if autonomous or rng.random() < 0.55:
            mags = [min(float(rng.uniform(0.0, scale)), K_max)]
        else:
            p = int(rng.integers(2, 5))
            mags = [min(float(rng.uniform(0.0, scale)), K_max) for _ in range(p)]
        signs = [-1.0 if rng.random() < 0.25 else 1.0 for _ in mags]
        values = [s * v for s, v in zip(signs, mags)]
        coeff = constant(values[0]) if len(values) == 1 else periodic_table(values)
        if autonomous or rng.random() < 0.7:
            delay = DelaySpec.constant(int(rng.integers(0, T_max + 1)))
        else:
            p = int(rng.integers(2, 5))
            delay = DelaySpec.periodic([int(rng.integers(0, T_max + 1)) for _ in range(p)])
        terms.append(Term(coeff, delay))
    return validate(terms)
