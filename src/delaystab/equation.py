"""Delay difference equations x(n+1) - x(n) = -sum_l a_l(n) x(h_l(n)) + f(n).

An Equation holds its terms, its forcing and the window its expressions
were checked to evaluate on.  It works out T, the largest lag, from its
terms, so every state access during simulation stays inside [n - T, n].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .seqexpr import (DelaySpec, SeqEvalError, SeqExpr, _eval_window, added, classify,
                      eval_range, evaluate, spliced)

__all__ = ["Term", "Equation", "InitialData", "validate", "name_failure", "subset_equation",
           "prefix_modify", "merge_same_delay", "autonomous_coefficients"]


@dataclass(frozen=True)
class Term:
    """One summand a(n) * x(h(n)) with h(n) = n - lag(n)."""

    coeff: SeqExpr
    delay: DelaySpec


@dataclass(frozen=True)
class Equation:
    terms: tuple[Term, ...]
    forcing: Optional[SeqExpr] = None
    validation_window: tuple[int, int] = (0, 0)
    T: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("equation needs at least one term")
        object.__setattr__(self, "T", max(t.delay.max_lag for t in self.terms))

    @property
    def m(self) -> int:
        return len(self.terms)

    def coeff_rows(self, n0: int, n1: int) -> list[np.ndarray]:
        """a_l(n) for n in [n0, n1], one row per term l as ``eval_range``
        gives it: read-only inside an evaluation scope."""
        return [eval_range(t.coeff, n0, n1) for t in self.terms]

    def coeff_table(self, n0: int, n1: int) -> np.ndarray:
        """a_l(n) for l = 0..m-1, n in [n0, n1]; shape (m, n1-n0+1)."""
        return np.stack(self.coeff_rows(n0, n1))

    def lag_table(self, n0: int, n1: int) -> np.ndarray:
        """Integer lags d_l(n) = n - h_l(n) on [n0, n1]; shape (m, len)."""
        return np.stack([t.delay.lag_range(n0, n1) for t in self.terms])


@dataclass(frozen=True, eq=False)
class InitialData:
    """Start index n0 and the history x(n0 - len + 1) .. x(n0), kept as one
    read-only float64 array; x is zero before it."""

    n0: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if not values.size:
            raise ValueError("a history needs at least x(n0), got no values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @staticmethod
    def from_values(n0: int, values: Sequence[float]) -> "InitialData":
        """Values for indices n0 - len + 1 .. n0 in order."""
        return InitialData(n0, values)


def validate(terms: Sequence[Term], forcing: Optional[SeqExpr] = None) -> Equation:
    """Build an Equation whose coefficients and forcing evaluate on
    [0, max(10 (T + 1), 1000)), so evaluation errors surface here, named
    by their term or the forcing; the window is recorded on the equation.
    It is evaluated in slices of 2^16 points, never through an evaluation
    scope.  A window past the kernel cap (a lag of 10^7 and up) is refused
    before any evaluation, naming the term whose lag sets T."""
    eq = Equation(tuple(terms), forcing)
    length = max(10 * (1 + eq.T), 1000)
    if length > _kernels.MAX_ENTRIES:
        i = next(i for i, t in enumerate(eq.terms) if t.delay.max_lag == eq.T)
        raise _kernels.KernelMemoryError(f"term {i}: lag {eq.T} needs a validation window of "
                                         f"{length} points (cap {_kernels.MAX_ENTRIES})")
    try:
        for _, expr in _named_exprs(eq):
            for n0 in range(0, length, 1 << 16):
                _eval_window(expr, n0, min(n0 + (1 << 16), length) - 1)
    except SeqEvalError as exc:
        raise name_failure(eq, exc) from None
    return replace(eq, validation_window=(0, length))


def _named_exprs(eq: Equation) -> list[tuple[str, SeqExpr]]:
    named = [(f"term {i}", t.coeff) for i, t in enumerate(eq.terms)]
    return named + ([("forcing", eq.forcing)] if eq.forcing is not None else [])


def name_failure(eq: Equation, exc: SeqEvalError) -> SeqEvalError:
    """``exc`` renamed after the first of ``eq``'s terms, its forcing, or
    the sums ``merge_same_delay`` builds (named by their terms) that fails
    at ``exc.index``; evaluation is pointwise, so that one point decides.
    ``exc`` itself when none fails there."""
    named = _named_exprs(eq)
    for s in merge_same_delay(eq).terms:
        same = [str(i) for i, t in enumerate(eq.terms) if t.delay == s.delay]
        named += [(f"terms {', '.join(same)}", s.coeff)] if len(same) > 1 else []
    for name, expr in named:
        try:
            _eval_window(expr, exc.index, exc.index)
        except SeqEvalError:
            return SeqEvalError(f"{name}: {exc.message}", exc.index)
    return exc


def subset_equation(eq: Equation, indices: Sequence[int]) -> Equation:
    """Equation keeping only the terms in ``indices``; forcing dropped.
    ``eq``'s validation covered these terms on its window, so nothing is
    evaluated again."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty index set")
    return Equation(tuple(eq.terms[i] for i in indices), None, eq.validation_window)


def merge_same_delay(eq: Equation) -> Equation:
    """Sum coefficients of terms sharing an identical lag table.

    x(n+1)-x(n) = -a(n)x(g(n)) - b(n)x(g(n)) is the single-term equation
    with coefficient a+b; positivity tests want that canonical form.  An
    equation whose lag tables are all distinct is returned as it is.  Sums
    are built, not evaluated, and keep ``eq``'s validated window.
    """
    groups: dict[DelaySpec, SeqExpr] = {}  # in first-seen order
    for t in eq.terms:
        groups[t.delay] = added(groups[t.delay], t.coeff) if t.delay in groups else t.coeff
    if len(groups) == eq.m:
        return eq
    return Equation(tuple(Term(c, d) for d, c in groups.items()), eq.forcing,
                    eq.validation_window)


def autonomous_coefficients(eq: Equation) -> Optional[list[tuple[float, int]]]:
    """(coeff, lag) pairs when the equation is autonomous, else None."""
    pairs = []
    for t in eq.terms:
        # a table of one repeated lag, such as [3, 3], is a constant delay
        if len(set(t.delay.lags)) != 1 or classify(t.coeff) != 1:
            return None
        pairs.append((evaluate(t.coeff, 0), t.delay.max_lag))
    return pairs


def prefix_modify(eq: Equation, n1: int, replacement: Sequence[Term]) -> Equation:
    """Equation equal to ``replacement`` coefficients before n1 and to the
    original from n1 on.  Delays are kept from the original equation: the
    finite-segment robustness statements change coefficient values on a
    prefix, not the delay structure.  The new input is validated again.
    """
    replacement = list(replacement)
    if len(replacement) != eq.m:
        raise ValueError(f"replacement arity {len(replacement)} != {eq.m}")
    if n1 <= 0:
        return eq
    return validate([Term(spliced(n1, r.coeff, t.coeff), t.delay)
                     for t, r in zip(eq.terms, replacement)], eq.forcing)
