"""Closed-form integer-indexed sequences and bounded lag tables.

Coefficient and forcing streams are written in a small expression language,
a subset of Python's expressions that Python's own parser reads once ``^``
is spelled ``**``: numbers, the index variable ``n``, ``+ - * / ^`` with
the usual precedence (``^`` is right associative and binds tightest),
parentheses, ``sin``, ``cos``, ``abs``, ``alt(n)`` for (-1)^n, and
``per(v0, ..., vp-1)`` for a table indexed by ``n mod p``.  ``**``, ``#``,
``0x10``, ``007`` and too deep nesting are errors; a call may end in a comma.

``splice(n1, before, after)`` is accepted as an extension so that
equations whose coefficients were rewritten on a finite prefix still
print to parseable text; ``before`` applies for n < n1, ``after`` after.
A table value or a cutoff is any finite expression of period 1, read when
it is parsed; a cutoff is an integer below 2^53, where a float stops
holding every integer.

Evaluation is double precision and vectorized; every printed expression
re-parses to an evaluation-equivalent tree, so a ``SeqExpr`` compares and
hashes by the text it prints alone.  ``evaluation_scope()`` is the one
per-run context: each expression keeps one contiguous span of values, and
``once(fn, *args)`` answers each repeated question once.

An expression's cutoff and period are facts about its tree alone, read
from one walk over it and stored on it.  The cutoff is the deepest splice
cutoff outside a before-branch.  Constants, ``alt(n)``, ``per`` tables and
their pointwise combinations have a period, the least of which is found
from one structural period of values (1 for a constant); everything else,
splices with a positive cutoff included, has None, whatever its first
values are, and so does a structural period past 2^20.
"""

from __future__ import annotations

import ast
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "SeqExpr",
    "DelaySpec",
    "SeqSyntaxError",
    "SeqEvalError",
    "parse",
    "evaluate",
    "eval_range",
    "evaluation_scope",
    "once",
    "classify",
    "common_period",
    "constant",
    "periodic_table",
    "spliced",
    "added",
]


class SeqSyntaxError(ValueError):
    """Malformed expression text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SeqEvalError(ArithmeticError):
    """Evaluation produced a non-finite value; carries the bare message and
    the offending index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (at n={index})")
        self.message, self.index = message, index


# ---------------------------------------------------------------------------
# AST


class _Op(NamedTuple):
    syntax: type  # the ast operator node Python's parser reads it as
    prec: int  # printed precedence; unary minus binds at _NEG_PREC
    ufunc: np.ufunc


# each binary operator once, read by the parser, the printer and evaluation
_BINARY = {"+": _Op(ast.Add, 1, np.add), "-": _Op(ast.Sub, 1, np.subtract),
           "*": _Op(ast.Mult, 2, np.multiply), "/": _Op(ast.Div, 2, np.divide),
           "^": _Op(ast.Pow, 4, np.power)}
_NEG_PREC = 3
# each function once; alt is (-1)^k once evaluation has checked that k is an
# integer below 2^53
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "abs": np.abs,
              "alt": lambda k: 1.0 - 2.0 * (np.rint(k) % 2.0)}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # a key of _BINARY
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str  # a key of _FUNCTIONS
    arg: "Node"


@dataclass(frozen=True)
class Per:
    values: tuple[float, ...]


@dataclass(frozen=True)
class Splice:
    cutoff: int
    before: "Node"
    after: "Node"


Node = Union[Num, Var, Neg, Bin, Call, Per, Splice]


@dataclass(frozen=True)
class SeqExpr:
    """An immutable sequence expression: an AST and the canonical text it
    prints to; trees that print alike are one expression.  Its period and
    cutoff are derived from the tree once, on first use."""

    ast: Node = field(compare=False)
    source_text: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_text", _print(self.ast))

    @cached_property
    def _tail(self) -> tuple[int, Optional[int]]:
        return _tail(self.ast)

    @cached_property
    def period(self) -> Optional[int]:
        """The least p >= 1 with a(n + p) = a(n) for every n >= 0, or None
        when the tree proves no period from n = 0."""
        # lazy: evaluates one structural period; parse asks only for the
        # constant slots of per and splice, and evaluates those at n = 0
        cutoff, period = self._tail
        if cutoff > 0 or period is None:
            return None
        values = eval_range(self, 0, period - 1)
        return next((d for d in range(1, period)
                     if period % d == 0 and (values[d:] == values[:-d]).all()), period)

    @cached_property
    def cutoff(self) -> int:
        """The deepest ``splice`` cutoff outside a before-branch, 0 when
        there is none: from there on no before-branch is read."""
        return self._tail[0]

    def __str__(self) -> str:
        return self.source_text

    def __hash__(self) -> int:
        # str caches its hash; a dataclass field-tuple hash does not
        return hash(self.source_text)


# ---------------------------------------------------------------------------
# Parsing


_SYMBOLS = {op.syntax: symbol for symbol, op in _BINARY.items()}
_BRACKET_ERRORS = ("too many nested parentheses", "'(' was never closed", "unmatched ')'")


def parse(text: str) -> SeqExpr:
    """Parse expression text; raises SeqSyntaxError with a character position."""
    start = len(text) - len(text.lstrip())
    plain = re.sub(r"\s", " ", text[start:])
    # a comment, Python's power, and what ast.parse cannot read
    if refused := re.search(r"#|\*\*|[\x00\ud800-\udfff]", plain):
        raise SeqSyntaxError(f"unexpected {refused.group()!r}", start + refused.start())
    source = plain.replace("^", "**")
    encoded = source.encode()

    def where(offset: int) -> int:  # the position in text of the source's byte offset
        at = [i for i, ch in enumerate(plain, start) for _ in ch.replace("^", "**").encode()]
        return (at + [len(text)])[offset]

    def span(node: ast.AST) -> str:
        return encoded[node.col_offset:node.end_col_offset].decode()

    def const(node: ast.AST) -> float:
        expr = SeqExpr(convert(node))
        if expr.period != 1:
            raise SeqSyntaxError("expected a constant expression", where(node.end_col_offset))
        return evaluate(expr, 0)

    def convert(node: ast.AST) -> Node:
        kind, op = type(node), type(getattr(node, "op", None))
        if kind is ast.Constant and type(node.value) in (int, float):
            if set(span(node)) <= set("0123456789.eE+-"):  # not 0x10 or 1_0
                return Num(float(span(node)))
        elif kind is ast.Name and span(node) == "n":  # ids are NFKC-normalised
            return Var()
        elif kind is ast.UnaryOp and op in (ast.USub, ast.UAdd):
            return Neg(convert(node.operand)) if op is ast.USub else convert(node.operand)
        elif kind is ast.BinOp and op in _SYMBOLS:
            return Bin(_SYMBOLS[op], convert(node.left), convert(node.right))
        elif (kind is ast.Call and type(node.func) is ast.Name and not node.keywords
                and node.func.col_offset == node.col_offset):  # not a callee in parentheses
            name, args = span(node.func), node.args
            if name in _FUNCTIONS and len(args) == 1:
                return Call(name, convert(args[0]))
            if name == "per" and args:
                return Per(tuple(const(arg) for arg in args))
            if name == "splice" and len(args) == 3:
                cutoff = const(args[0])
                if cutoff != int(cutoff):
                    raise SeqSyntaxError("non-integer splice cutoff", where(args[0].end_col_offset))
                if cutoff >= 2.0**53:  # past it a float is not the integer written
                    raise SeqSyntaxError("splice cutoff past 2^53", where(args[0].end_col_offset))
                return Splice(int(cutoff), convert(args[1]), convert(args[2]))
        what = "unknown name" if kind is ast.Name else "unsupported syntax"
        first, end = where(node.col_offset), where(node.end_col_offset)
        raise SeqSyntaxError(f"{what} {text[first:end]!r}", first)

    try:
        return SeqExpr(convert(ast.parse(source, mode="eval").body))
    except SyntaxError as exc:  # exc.offset counts characters from 1, 0 at the end
        # CPython's other messages give Python advice ("use an 0o prefix")
        message = exc.msg if exc.msg in _BRACKET_ERRORS else "invalid syntax"
        at = exc.offset - 1 if exc.offset else len(source)
        raise SeqSyntaxError(message, where(len(source[:at].encode()))) from None
    except (RecursionError, MemoryError):  # CPython's parser stack, or ours
        raise SeqSyntaxError("expression nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# Printing (canonical form; re-parses to an equivalent tree)


def _print(node: Node, parent_prec: int = 0) -> str:
    additive = _BINARY["+"].prec
    if isinstance(node, Num):
        text = repr(node.value)
        return f"({text})" if node.value < 0 and parent_prec > additive else text
    if isinstance(node, Var):
        return "n"
    if isinstance(node, Neg):
        text = f"-{_print(node.arg, _NEG_PREC)}"
        return f"({text})" if parent_prec > additive else text
    if isinstance(node, Bin):
        prec, right_assoc = _BINARY[node.op].prec, node.op == "^"
        left = _print(node.left, prec + right_assoc)
        right = _print(node.right, prec + 1 - right_assoc)
        text = f"{left} {node.op} {right}" if prec == additive else f"{left}{node.op}{right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    if isinstance(node, Per):
        return "per(" + ", ".join(repr(v) for v in node.values) + ")"
    if isinstance(node, Splice):
        return f"splice({node.cutoff}, {_print(node.before)}, {_print(node.after)})"
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Evaluation (vectorized over int64 index arrays)


def _first_bad(values: np.ndarray, n: np.ndarray) -> int:
    bad = ~np.isfinite(values)
    return int(n[np.argmax(bad)])


def _eval(node: Node, n: np.ndarray) -> np.ndarray:
    if isinstance(node, Num):
        return np.full(n.shape, node.value)
    if isinstance(node, Var):
        return n.astype(np.float64)
    if isinstance(node, Neg):
        return -_eval(node.arg, n)
    if isinstance(node, Bin):
        left, right = _eval(node.left, n), _eval(node.right, n)
        ufunc = _BINARY[node.op].ufunc
        if node.op == "/" and (zero := right == 0.0).any():
            raise SeqEvalError("division by zero", int(n[np.argmax(zero)]))
        out = ufunc(left, right)
        # power: negative base with integral exponent is fine, otherwise a
        # domain error; overflow is reported as non-finite below
        if node.op == "^" and not np.isfinite(out).all():
            raise SeqEvalError("power out of domain or overflow", _first_bad(out, n))
        return out
    if isinstance(node, Call):
        arg = _eval(node.arg, n)
        if node.func == "alt":
            # past 2^53 a float's parity is unknown; nan and inf fail both tests
            bad = ~((np.abs(arg - np.rint(arg)) <= 1e-9) & (np.abs(arg) < 2.0**53))
            if bad.any():
                raise SeqEvalError("alt() needs an integer argument", int(n[np.argmax(bad)]))
        return _FUNCTIONS[node.func](arg)
    if isinstance(node, Per):
        if (n < 0).any():
            raise SeqEvalError("negative index", int(n[np.argmax(n < 0)]))
        table = np.asarray(node.values)
        return table[n % len(node.values)]
    if isinstance(node, Splice):
        out = np.empty(n.shape)
        mask = n < node.cutoff
        if mask.any():
            out[mask] = _eval(node.before, n[mask])
        if (~mask).any():
            out[~mask] = _eval(node.after, n[~mask])
        return out
    raise TypeError(f"unknown node {node!r}")


@np.errstate(all="ignore")  # the non-finite check below reports overflow, not NumPy
def _eval_window(expr: SeqExpr, n0: int, n1: int) -> np.ndarray:
    n = np.arange(n0, n1 + 1, dtype=np.int64)
    values = _eval(expr.ast, n)
    if not np.isfinite(values).all():
        raise SeqEvalError("non-finite value", _first_bad(values, n))
    return values


class _Scope:
    """The state of one evaluation scope.

    ``spans`` maps an expression to (lo, values), its values on one
    contiguous window.  Every evaluation is exactly a window some caller
    asked for, so errors carry the same message and index as outside a
    scope; evaluation is pointwise, so slicing a span gives the same bytes.
    ``memo`` maps (fn, *args) to what ``once`` computed.
    """

    def __init__(self) -> None:
        self.spans: dict[SeqExpr, tuple[int, np.ndarray]] = {}
        self.memo: dict[tuple, object] = {}

    def window(self, expr: SeqExpr, n0: int, n1: int) -> np.ndarray:
        span = self.spans.get(expr)
        if span is not None:
            lo, values = span
            hi = lo + len(values) - 1
            if lo <= n0 and n1 <= hi:
                return values[n0 - lo:n1 - lo + 1]
        fresh = _eval_window(expr, n0, n1)
        fresh.flags.writeable = False
        if span is not None and n0 <= hi + 1 and lo <= n1 + 1:
            # overlapping or touching: the union becomes the span
            start = min(lo, n0)
            merged = np.empty(max(hi, n1) - start + 1)
            merged[lo - start:hi - start + 1] = values
            merged[n0 - start:n1 - start + 1] = fresh
            merged.flags.writeable = False
            self.spans[expr] = (start, merged)
        else:
            self.spans[expr] = (n0, fresh)
        return fresh


_scope: Optional[_Scope] = None


@contextmanager
def evaluation_scope() -> Iterator[None]:
    """Evaluate each expression, and answer each ``once`` question, once
    inside the block.

    ``eval_range`` answers a window inside an expression's span with a
    read-only slice and widens the span by what it evaluates.  Spans and
    ``once``'s results are all a scope holds; an expression keeps its own
    period.  A nested scope shares the outer one's; leaving the outermost
    scope, normally or by an exception, drops them all.
    """
    global _scope
    if _scope is not None:
        yield
        return
    _scope = _Scope()
    try:
        yield
    finally:
        _scope = None


def once(fn: Callable, *args):
    """``fn(*args)``, computed once per open scope (each call outside one);
    callers pass ``fn`` as looked up at the call and never mutate the result."""
    if _scope is None:
        return fn(*args)
    key = (fn, *args)
    value = _scope.memo.get(key, _scope)  # the scope itself marks a miss
    if value is _scope:
        value = _scope.memo[key] = fn(*args)
    return value


def eval_range(expr: SeqExpr, n0: int, n1: int) -> np.ndarray:
    """Evaluate on the inclusive integer window [n0, n1]; read-only inside
    ``evaluation_scope()``."""
    if n1 < n0:
        return np.empty(0)
    if _scope is None:
        return _eval_window(expr, n0, n1)
    return _scope.window(expr, n0, n1)


def evaluate(expr: SeqExpr, n: int) -> float:
    """Evaluate at a single index n >= 0."""
    if n < 0:
        raise SeqEvalError("negative index", n)
    return float(eval_range(expr, n, n)[0])


# ---------------------------------------------------------------------------
# Classification


def _tail(node: Node) -> tuple[int, Optional[int]]:
    """(cutoff, period) of ``node``, from one walk: the deepest splice cutoff
    outside a before-branch (0 when there is none), and a period its values
    keep from that cutoff on, None when the tree proves none."""
    if isinstance(node, Num):
        return 0, 1
    if isinstance(node, Per):
        return 0, common_period([len(node.values)])
    if isinstance(node, Var):
        return 0, None
    if isinstance(node, Call) and node.func == "alt" and isinstance(node.arg, Var):
        return 0, 2
    if isinstance(node, (Neg, Call)):
        # a pointwise function of an exactly periodic sequence is periodic
        return _tail(node.arg)
    if isinstance(node, Bin):
        (left_cutoff, left), (right_cutoff, right) = _tail(node.left), _tail(node.right)
        return max(left_cutoff, right_cutoff), common_period([left, right])
    if isinstance(node, Splice):
        # the before-branch is read only below this cutoff
        cutoff, period = _tail(node.after)
        return max(node.cutoff, cutoff), period
    raise TypeError(f"unknown node {node!r}")


# a longer period counts as none: one period of one row stays near 8 MB
_PERIOD_CAP = 2**20


def common_period(periods: Iterable[Optional[int]]) -> Optional[int]:
    """lcm of ``periods``, or None at the first None or once it passes
    ``_PERIOD_CAP``: a generator that finds periods stops there."""
    period = 1
    for p in periods:
        if p is None:
            return None
        period = math.lcm(period, p)
        if period > _PERIOD_CAP:
            return None
    return period


def classify(expr: SeqExpr) -> Optional[int]:
    """``expr.period``: the least period, 1 for a constant, None for general.

    Periodicity is only ever declared structurally (constants, ``alt``,
    ``per`` and pointwise combinations), and one whole structural period is
    evaluated to find the least one.  An expression with no structural
    period is general, whatever its first values are: integer-sampled
    transcendentals, ``n - n`` and splices with a positive cutoff alike.
    """
    return expr.period


# ---------------------------------------------------------------------------
# Constructors used by generators and equation surgery


def constant(value: float) -> SeqExpr:
    return SeqExpr(Num(float(value)))


def periodic_table(values) -> SeqExpr:
    return SeqExpr(Per(tuple(float(v) for v in values)))


def spliced(cutoff: int, before: SeqExpr, after: SeqExpr) -> SeqExpr:
    """Expression equal to ``before`` for n < cutoff and ``after`` beyond."""
    if cutoff <= 0:
        return after
    return SeqExpr(Splice(int(cutoff), before.ast, after.ast))


def added(a: SeqExpr, b: SeqExpr) -> SeqExpr:
    """Pointwise sum of two expressions."""
    return SeqExpr(Bin("+", a.ast, b.ast))


# ---------------------------------------------------------------------------
# Delay specifications


@dataclass(frozen=True)
class DelaySpec:
    """Bounded integer lags; h(n) = n - lags[n mod period] <= n."""

    lags: tuple[int, ...]

    def __post_init__(self):
        if not self.lags:
            raise ValueError("empty lag table")
        for lag in self.lags:
            # a bool is an int to isinstance; a JSON true is no lag
            if isinstance(lag, bool) or not isinstance(lag, int) or lag < 0:
                raise ValueError(f"lags must be nonnegative integers, got {lag!r}")

    @staticmethod
    def constant(lag: int) -> "DelaySpec":
        return DelaySpec((int(lag),))

    @staticmethod
    def periodic(lags) -> "DelaySpec":
        return DelaySpec(tuple(int(x) for x in lags))

    @property
    def period(self) -> int:
        return len(self.lags)

    @property
    def max_lag(self) -> int:
        return max(self.lags)

    def lag_at(self, n: int) -> int:
        return self.lags[n % len(self.lags)]

    def lag_range(self, n0: int, n1: int) -> np.ndarray:
        """Lag table on the inclusive window [n0, n1] as int64 (empty when
        n1 < n0), cut from a block of whole periods of the lags."""
        p, i, size = len(self.lags), n0 % len(self.lags), max(n1 - n0 + 1, 0)
        periods = np.empty(((i + size + p - 1) // p, p), dtype=np.int64)
        periods[:] = self.lags
        return periods.ravel()[i : i + size]
