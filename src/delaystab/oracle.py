"""Ground-truth layer independent of the stability checkers.

Autonomous equations reduce to a companion matrix whose spectral radius
decides stability exactly; general equations get an empirical geometric
decay rate fitted to a fundamental-function column.  Every Stable verdict
can be cross-validated against one of the two: ``oracle_block`` gives both
as a report's ``oracle`` entry, and ``decay_fit`` is the one decay oracle.
Periodic equations have a Floquet monodromy over one period, and
``exact_stable`` decides its stability, or a rate bound, in exact rationals,
which the tests and ``fuzz`` read.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .equation import Equation, Term, autonomous_coefficients, prefix_modify, validate
from .limits import exact_period, tail_start
from .seqexpr import DelaySpec, constant, parse, periodic_table
from .simulator import fundamental

__all__ = [
    "SpectralReport",
    "DecayFit",
    "companion_radius",
    "exact_stable",
    "fit_decay",
    "decay_fit",
    "oracle_block",
    "tail_equivalence_test",
    "random_equation",
    "general_surrogate",
    "splice_surrogate",
]

_FIT_FLOOR = 1e-290  # drop subnormal magnitudes before taking logs

# companion power iteration: restarts, step budget, stop tolerance
_RESTARTS = 64
_MAX_ITER = 4000
_TOL = 1e-10
# steps per matrix product; every check point (a multiple of 64: every fourth
# block) and every half-window start (used // 2) must fall on a block end
_BLOCK = 16
# exact_stable's cap on d^2 (d L g)^2 (d + 1): Schur-Cohn's d^2 and the reduction's d^3
# steps (none at L = 1) on d L g bits; d = 96 at L = 1 takes 3.1 s, d = 16 at L = 10 1.5 s
_EXACT_WORK = 5 * 10**11


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


def _companion(c: np.ndarray) -> np.ndarray:
    d = len(c)
    C = np.zeros((d, d))
    C[0] = c
    C[np.arange(1, d), np.arange(d - 1)] = 1.0
    return C


def _eig_radius(c: np.ndarray) -> tuple[float, float]:
    """Dominant modulus of the companion matrix from its eigenvalues z_i, with
    an error bound from p(x) = x^d - c_0 x^(d-1) - ... - c_(d-1), rescaled
    as in _power_radius so that every root lambda_j has |lambda_j| < 1.

    R_i >= |p(z_i)| = prod_j |z_i - lambda_j| and p'/p = sum_j 1 / (x -
    lambda_j) put a root within e_i = min(R_i^(1/d), d R_i / |p'(z_i)|) of
    z_i; disjoint disks hold one root each.  Where disks meet, every root has
    prod_j |lambda - z_j| = |(q - p)(lambda)| <= sum_k |q_k - p_k| for
    q = prod_j (x - z_j).  g = 8 d eps exceeds each step's rounding bound.
    """
    d = len(c)
    j1 = np.arange(1, d + 1)
    shift = math.frexp(2.0 * float((np.abs(c) ** (1.0 / j1)).max()))[1]
    c = np.ldexp(c, -shift * j1)
    z = np.linalg.eigvals(_companion(c))
    a = np.abs(z)
    g = 8 * d * np.finfo(float).eps
    p = np.concatenate([[1.0], -c])
    dp = np.polyder(p)
    R = np.abs(np.polyval(p, z)) + g * np.polyval(np.abs(p), a)
    P1 = np.abs(np.polyval(dp, z)) - g * np.polyval(np.abs(dp), a)
    e = np.fmin(R ** (1.0 / d), d * R / np.where(P1 > 0, P1, np.nan))  # nan: p' may vanish
    t = float(e.max())
    if (np.abs(z[:, None] - z) * (1 - g) <= e[:, None] + e).sum() > d:  # off the diagonal
        # q's leading 1 is exact; np.poly's rounding is within g prod (x + a_j)
        delta = np.abs(np.poly(z) - p)[1:] + g * np.poly(-a)[1:]
        t = max(t, float(delta.sum()) ** (1.0 / d))
    r = float(a.max())
    return math.ldexp(r, shift), math.ldexp(t * (1 + g) + g * r, shift)


def _medians(x: np.ndarray) -> np.ndarray:
    """np.median of each row of an even-width 2-d array, bit for bit, in a
    tenth of its time: the mean of the two middle sorted values, NaN where
    the row holds NaN.  The sum starts at +0.0, as np.mean's does, so two
    -0.0 give +0.0."""
    s = np.sort(x, axis=1)
    mid = s.shape[1] // 2
    m = (0.0 + s[:, mid - 1] + s[:, mid]) / 2.0
    m[np.isnan(s[:, -1])] = np.nan
    return m


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
    # row 2k holds L[k]: block k writes its scales to row 2k - 1 and its sums
    # of squares to row 2k, and each stride of blocks then takes their logs,
    # L[k] = (L[k - 1] + log scale) + 0.5 log ss as one running sum, and its
    # stop checks, each in the step loop's order, so the radius keeps its bits
    K = _MAX_ITER // _BLOCK
    L = np.zeros((2 * K + 1, _RESTARTS))
    W, A, rt = np.empty_like(V), np.empty_like(V), np.empty(_RESTARTS)
    prev, stable, slack, k = None, 0, math.inf, 0
    dot, absolute, col_max, square, col_sum, sqrt, divide = (  # bound once
        np.dot, np.abs, np.maximum.reduce, np.square, np.add.reduce, np.sqrt, np.divide)
    # blocks past a zero scale run on NaN, and nothing reads them
    with np.errstate(divide="ignore", invalid="ignore"):
        while k < K:
            # a stride of as many blocks as ran before it, 16 to 64: most stops
            # come at block 12 or 16, and a later one wastes at most the stride
            k0, k = k, min(k + min(max(k, 16), 64), K)
            rows = L[2 * k0 + 1:2 * k + 1]
            pairs = iter(rows)
            for scale, ss in zip(pairs, pairs):
                dot(P, V, W)
                # scale before squaring: C^_BLOCK entries of near-nilpotent
                # rows reach 1e-221, whose squares underflow
                absolute(W, A)
                col_max(A, 0, out=scale)
                W /= scale
                square(W, A)
                col_sum(A, 0, out=ss)
                sqrt(ss, rt)
                divide(W, rt, V)
            # nilpotent direction: growth is exactly zero from the first
            # zero scale on, and only the checks before it count
            end = k + 1 if rows[::2].all() else k0 + 1 + int(np.argmin(rows[::2].all(axis=1)))
            np.log(rows, rows)
            rows[1::2] *= 0.5
            np.add.accumulate(L[2 * k0:2 * k + 1], 0, out=L[2 * k0:2 * k + 1])
            # checks every 64 steps: L[at] - L[at // 2] over used - used // 2
            # = 8 at, with L[at // 2] on row at, as at is even
            checks = np.arange(k0 + 4, min(k + 1, end), 4)
            last = 2 * k0 + 8 * len(checks)
            rates = (L[2 * k0 + 8:last + 1:8] - L[k0 + 4:last // 2 + 1:4]) / (8 * checks)[:, None]
            for at, est in zip(checks.tolist(), _medians(rates).tolist()):
                if prev is not None:
                    slack = abs(est - prev)
                    if slack < _TOL:
                        stable += 1
                        if stable >= 2:
                            break
                    else:
                        stable = 0
                prev = est
            else:
                if end <= k:
                    return 0.0, math.ldexp(max(min(slack, 1.0), 1e-12), shift)
                continue
            k = at
            break
    used = k * _BLOCK
    estimates = np.exp((L[2 * k] - L[k // 2 * 2]) / (used - used // 2))
    radius = float(_medians(estimates[None])[0])
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
    radius, err = (_eig_radius if len(c) <= 3 else _power_radius)(c)
    return SpectralReport(radius, err, len(c))


def exact_stable(eq: Equation, rate: float = 1.0) -> bool:
    """Whether every Floquet multiplier of a periodic ``eq`` has modulus
    below rate^L, decided in rationals with no tolerance (Elaydi, Floquet
    theory and the Schur-Cohn criterion); at rate 1, exponential stability.
    A multiplier on the circle is not stable.  It decides the equation
    whose constants are the doubles nearest to what the user wrote.

    The state (x(n), ..., x(n - T)) advances by A(n), whose first row is
    e_0 - sum_l a_l(n) e_(d_l(n)) and whose other rows shift down.  With D
    the largest of one period's coefficient denominators (powers of two),
    D^L M = D A(L - 1) ... D A(0), for L = ``exact_period``, is built in
    integers, reduced to Hessenberg form by elementary similarities, and p =
    det(zI - D^L M) taken by the Hessenberg recurrence (Cohen 1993, Alg.
    2.2.9).  p(s z), s = (rate D)^L, has every root in the open unit disk iff
    |p(0)| < |lead| and p - (p(0) / lead) p_rev, less its zero constant term,
    does too."""
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate {rate!r} must be finite and nonnegative")
    period = exact_period(eq, [t.delay for t in eq.terms])
    if period is None:
        raise ValueError("a coefficient is general")
    table = eq.coeff_table(0, period - 1).T.tolist()
    D = max(a.as_integer_ratio()[1] for col in table for a in col)  # powers of two: their lcm
    steps = [[int(Fraction(a) * D) for a in col] for col in table]  # D a_l(n)
    d, g = eq.T + 1, max(D + sum(map(abs, col)) for col in steps).bit_length()
    if (work := d**2 * (d * period * g) ** 2 * (d + 1 if period > 1 else 1)) > _EXACT_WORK:
        raise ValueError(f"exact monodromy work {work} exceeds the cap {_EXACT_WORK}")
    M = [[int(i == j) for j in range(d)] for i in range(d)]
    for col, lags in zip(steps, eq.lag_table(0, period - 1).T.tolist()):  # M <- D A(n) M
        row = [D * x for x in M[0]]
        for a, lag in zip(col, lags):
            if a:
                row = [x - a * y for x, y in zip(row, M[lag])]
        M = [row] + [[D * x for x in r] for r in M[:-1]]
    M = [list(map(Fraction, r)) for r in M]  # D^L times the monodromy
    for j in range(d - 2):  # zero column j below the subdiagonal
        pivot = next((i for i in range(j + 1, d) if M[i][j]), None)
        if pivot is None:
            continue
        M[j + 1], M[pivot] = M[pivot], M[j + 1]
        for r in M:
            r[j + 1], r[pivot] = r[pivot], r[j + 1]
        for i in range(j + 2, d):
            if M[i][j]:  # row i -= u row j + 1, then column j + 1 += u column i
                u = M[i][j] / M[j + 1][j]
                M[i] = [x - u * y for x, y in zip(M[i], M[j + 1])]
                for r in M:
                    r[j + 1] += u * r[i]
    polys = [[Fraction(1)]]  # det(zI - H) of each leading block, ascending
    for m in range(d):
        p = [x - M[m][m] * y for x, y in zip([0, *polys[m]], [*polys[m], 0])]
        t = Fraction(1)
        for i in range(1, m + 1):
            t *= M[m - i + 1][m - i]
            if not t:
                break
            c = t * M[m - i][m]
            for k, x in enumerate(polys[m - i] if c else ()):
                p[k] -= c * x
        polys.append(p)
    s = (Fraction(rate) * D) ** period
    p = [x * s**k for k, x in enumerate(polys[d])]
    while len(p) > 1:
        if abs(p[0]) >= abs(p[-1]):
            return False
        r = p[0] / p[-1]
        p = [x - r * y for x, y in zip(p[1:], p[-2::-1])]
    return True


def fit_decay(column: Sequence[float], skip: int, n0: int = 0) -> DecayFit:
    """Fit log|X| ~ alpha + beta n over the column tail after ``skip``, for
    a column X(n) from n = n0; the window and the errors name n itself.

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
    lo = n0 + skip
    window = (lo, lo + int(np.flatnonzero(finite)[-1]) if finite.any() else lo)
    if usable.sum() < 5:
        if not finite.all():
            n = n0 + int(np.argmin(np.isfinite(col)))
            raise ValueError(f"fundamental column at n = {n} is not finite (overflow); "
                             f"fewer than 5 points are left to fit past n = {lo}")
        return DecayFit(0.0, 0.0, window, 0.0)
    x = idx[usable]
    y = np.log(np.abs(tail[usable]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    mu_hat = math.exp(slope)
    L_hat = math.exp(intercept + max(0.0, resid.max()))
    return DecayFit(mu_hat, L_hat, window, float(np.abs(resid).max()))


def decay_fit(eq: Equation, horizon: int) -> DecayFit:
    """``fit_decay`` of X(n, s) on [s, max(horizon, s + skip + 49)] past
    skip = max(5T, 20), from s = ``tail_start``, the last splice cutoff (0
    without one): X(n, 0) would fit the prefix, and underflows to zero long
    before a far cutoff.  The fit needs 50 points past the skip, and drops
    the non-finite tail of an overflowed column."""
    s, skip = tail_start(eq), max(5 * eq.T, 20)
    return fit_decay(fundamental(eq, s, max(horizon, s + skip + 49)), skip, s)


def oracle_block(eq: Equation, horizon: int) -> dict:
    """A report's ``oracle`` entry: the decay fit up to ``horizon`` and, for
    an autonomous equation, the companion radius (None otherwise)."""
    decay = asdict(decay_fit(eq, horizon))
    pairs = autonomous_coefficients(eq)
    return {"decay": decay,
            "spectral": None if pairs is None else asdict(companion_radius(pairs))}


def tail_equivalence_test(eq: Equation, n1: int, replacement: Sequence[Term],
                          N: int) -> bool:
    """True when rewriting the coefficients before n1 leaves the decay
    class of the fundamental function unchanged (finite prefixes must not
    matter for exponential stability)."""
    modified = prefix_modify(eq, n1, replacement)
    skip = min(n1 + 5 * eq.T, max(0, N - 60))
    fit_orig = fit_decay(fundamental(eq, 0, N), skip)
    fit_mod = fit_decay(fundamental(modified, 0, N), skip)
    return (fit_orig.mu_hat < 1.0) == (fit_mod.mu_hat < 1.0)


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


def general_surrogate(eq: Equation) -> Equation:
    """``eq`` with each coefficient written as ``<text> + 0*sin(n)``: the
    same values, bit for bit, but classify calls each one general, so the
    checkers take the general path and ``exact_stable(eq)`` decides it."""
    return validate([Term(parse(f"{t.coeff} + 0*sin(n)"), t.delay) for t in eq.terms])


def splice_surrogate(eq: Equation, cutoff: int) -> Equation:
    """``eq`` with each coefficient written as ``splice(cutoff, 0.02, <text>)``:
    a calm prefix, then ``eq``'s own coefficients, whose ``exact_stable``
    decides the tail."""
    return validate([Term(parse(f"splice({cutoff}, 0.02, {t.coeff})"), t.delay)
                     for t in eq.terms])
