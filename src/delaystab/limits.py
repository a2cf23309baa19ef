"""Asymptotic coefficient estimates consumed by the stability tests.

Pointwise spans of coefficients all come from ``coeff_span``: when every
contributing stream is constant or periodic, one period of their
aggregate from the window start determines liminf / limsup / sup
exactly; otherwise the span is the certification window, the value is an
estimate, and checkers report the verdict as window-certified.  A span is
the coefficients' rows as ``eval_range`` gives them (inside an evaluation
scope, read-only slices of the values the run already holds), so the
consumers that index rows copy nothing; ``row_sum`` stacks the rows,
and so gives the floats the stacked table gave.  The short p-step product
horizons a rate search tries read one span and one running product
(``limsup_products``); a longer exact period is one period's product.

Delayed sums take a sup over n of sums between h_l(n) and n.  They all
run over one strip (``delay_strip``), which works out its own period:
``exact_period``, the lcm of the periods of all the equation's
coefficients and of the delays summed over, which the positivity scan
also reads.  The strip is one exact period [s, s + P), where s is the
first multiple of P past the deepest lag seen on [0, P): no window is
clipped at index 0 there, so the sup over the strip is the limit.  When
any coefficient is general the strip is the certification window and the
sup is an estimate.  A strip makes one lag row per distinct delay, on
[0, P) when it is exact, where the lags are those of [s, s + P).  Every
sum on the strip is a difference of prefix sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .equation import Equation
from .seqexpr import DelaySpec, classify, common_period, eval_range

__all__ = [
    "AsymptoticEstimate",
    "limsup_product",
    "limsup_products",
    "coeff_span",
    "row_sum",
    "default_window",
    "tail_start",
    "aggregate_period",
    "exact_period",
    "DelayStrip",
    "delay_strip",
    "windowed_delayed_sum",
]


@dataclass(frozen=True)
class AsymptoticEstimate:
    value: float
    exact: bool


def tail_start(eq: Equation) -> int:
    """The deepest splice cutoff among ``eq``'s coefficients, 0 when there
    is none: a window starting before it reads a prefix the tail need not
    share."""
    return max(t.coeff.cutoff for t in eq.terms)


def default_window(eq: Equation) -> tuple[int, int]:
    """[s, s + 10000] from s = max(10 T, ``tail_start``): skips the
    transient prefix the asymptotic hypotheses do not care about."""
    start = max(10 * eq.T, tail_start(eq))
    return (start, start + 10_000)


def aggregate_period(eq: Equation) -> Optional[int]:
    """lcm of all of ``eq``'s coefficient periods, or None when any is general."""
    return common_period(classify(t.coeff) for t in eq.terms)


def exact_period(eq: Equation, delays: Sequence[DelaySpec]) -> Optional[int]:
    """lcm of all of ``eq``'s coefficient periods and the periods of
    ``delays``, or None when any coefficient is general: every table of
    ``eq`` on those delays repeats after it, bit for bit."""
    return common_period([aggregate_period(eq), *(d.period for d in delays)])


def coeff_span(eq: Equation, window: tuple[int, int], indices: Optional[Sequence[int]] = None,
               extra: int = 0) -> tuple[list[np.ndarray], bool]:
    """(rows of the coefficients ``indices``, exact) from ``window[0]``.

    The span is one exact period of their aggregate, or the whole window
    (exact False) when any of them is general; ``extra`` points run past
    its end.  Only the rows asked for are evaluated, and each row is what
    ``eval_range`` returns, read-only inside an evaluation scope.
    """
    indices = range(eq.m) if indices is None else indices
    period = common_period(classify(eq.terms[l].coeff) for l in indices)
    n0 = window[0]
    n1 = (n0 + period - 1 if period is not None else window[1]) + extra
    return [eval_range(eq.terms[l].coeff, n0, n1) for l in indices], period is not None


def row_sum(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Per point, the sum over ``rows``: the stacked table's axis-0 sum."""
    return np.stack(rows).sum(axis=0)


def limsup_products(eq: Equation, ps: Sequence[int],
                    window: Optional[tuple[int, int]] = None) -> dict[int, AsymptoticEstimate]:
    """limsup over n of prod_{j=n}^{n+p-1} (1 - sum_l a_l(j)), for each p in ``ps``.

    One span runs max(ps) - 1 points past its end, and one running product
    grows a factor at a time, left to right, so each p-step product is
    the same float a sliding-window product gives.
    """
    ps = sorted(set(ps))
    if ps[0] < 1:
        raise ValueError("p must be positive")
    window = window or default_window(eq)
    rows, exact = coeff_span(eq, window, extra=ps[-1] - 1)
    factors = 1.0 - row_sum(rows)
    count = len(factors) - ps[-1] + 1  # one product per point of the span
    products, out = factors[:count].copy(), {}
    for p in range(1, ps[-1] + 1):
        if p > 1:
            products *= factors[p - 1 : p - 1 + count]
        if p in ps:
            out[p] = AsymptoticEstimate(float(products.max()), exact)
    return out


def limsup_product(eq: Equation, p: int,
                   window: Optional[tuple[int, int]] = None) -> AsymptoticEstimate:
    """limsup over n of prod_{j=n}^{n+p-1} (1 - sum_l a_l(j))."""
    return limsup_products(eq, [p], window)[p]


@dataclass(frozen=True, eq=False)
class DelayStrip:
    """The n a delayed-sum sup runs over, with the lags there.

    ``lags[i][j]`` is the lag of the i-th delay at ``ns[j]``: one row per
    delay passed in, the same row object for repeats of a delay;
    ``lo`` is the lowest index any window [h_i(n), n] reaches, clipped at
    0, so prefix sums that start at ``lo`` cover every window on the strip.
    """

    ns: np.ndarray
    lags: tuple[np.ndarray, ...]
    lo: int
    exact: bool

    def deepest(self) -> np.ndarray:
        """Per strip point, the deepest of the lags there."""
        return functools.reduce(np.maximum, self.lags)

    def sums(self, values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per strip point, the sum of ``values[k - lo]`` over k in
        [max(a, lo), b); 0 where that range is empty."""
        return self.sums_from(np.concatenate([[0.0], np.cumsum(values)]), a, b)

    def sums_from(self, prefix: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sums`` from the prefix sums [0, v0, v0 + v1, ...] of its values,
        for a caller that sums the same values between several bounds."""
        a = np.maximum(a, self.lo)
        b = np.maximum(b, a)
        return np.where(b > a, prefix[b - self.lo] - prefix[a - self.lo], 0.0)


def delay_strip(eq: Equation, delays: Sequence[DelaySpec],
                window: tuple[int, int]) -> DelayStrip:
    """The strip for ``delays``: one exact period P = ``exact_period(eq,
    delays)`` placed past the deepest lag, or the window when any
    coefficient is general."""
    distinct = dict.fromkeys(delays)  # corollary 4 passes m copies of g
    period = exact_period(eq, distinct)
    n0, n1 = window if period is None else (0, period - 1)
    rows = {d: d.lag_range(n0, n1) for d in distinct}
    deepest = max(int(row.max()) for row in rows.values())
    if period is not None:
        # the lags repeat after P, so the rows on [0, P) are those on the strip
        n0 = (deepest // period + 1) * period
        n1 = n0 + period - 1
    return DelayStrip(np.arange(n0, n1 + 1, dtype=np.int64), tuple(rows[d] for d in delays),
                      max(0, n0 - deepest), period is not None)


def windowed_delayed_sum(eq: Equation, delays: Sequence[DelaySpec], upper_offset: int,
                         window: tuple[int, int]) -> AsymptoticEstimate:
    """sup over the strip of sum_{k=max(0, n - d(n))}^{n + upper_offset} agg(k).

    d(n) is the deepest of ``delays``' lags at n; upper_offset is -1 for
    sums up to n-1 and 0 for sums up to n.  Shared by lemma 4's double
    sum and the 3/2 test.
    """
    strip = delay_strip(eq, delays, window)
    ns = strip.ns
    hi = int(ns[-1]) + upper_offset
    if hi < strip.lo:
        return AsymptoticEstimate(0.0, strip.exact)
    sums = strip.sums(row_sum(eq.coeff_rows(strip.lo, hi)), ns - strip.deepest(),
                      ns + upper_offset + 1)
    return AsymptoticEstimate(float(sums.max()), strip.exact)
