import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaystab import Term, validate
from delaystab import seqexpr as se
from delaystab.limits import aggregate_period, coeff_span, exact_period


def test_parse_examples():
    e = se.parse("0.2 + 0.05*sin(n)")
    assert se.evaluate(e, 0) == pytest.approx(0.2, abs=1e-15)
    assert se.evaluate(se.parse("0"), 7) == 0.0
    assert se.evaluate(se.parse("3^(-n-1)"), 0) == pytest.approx(1 / 3)


def test_eval_examples():
    assert se.evaluate(se.parse("per(0.12, 0.22)"), 3) == 0.22
    assert se.evaluate(se.parse("0.12+0.1*alt(n)"), 0) == pytest.approx(0.22)
    assert se.evaluate(se.parse("0.12+0.1*alt(n)"), 1) == pytest.approx(0.02)
    assert se.evaluate(se.parse("1 - 1/(n+1)"), 0) == 0.0


def test_precedence_and_power():
    assert se.evaluate(se.parse("2*3^2"), 0) == 18.0
    assert se.evaluate(se.parse("-2^2"), 0) == -4.0
    assert se.evaluate(se.parse("(1+2)*3"), 0) == 9.0
    assert se.evaluate(se.parse("2^3^2"), 0) == 512.0  # right associative


def test_syntax_error_position():
    with pytest.raises(se.SeqSyntaxError) as exc:
        se.parse("0.2 + * 3")
    assert exc.value.position == 6


@pytest.mark.parametrize("text, outcome", [
    ("\t0.1 *\tn", "0.1*n"),
    ("0.1 +\n  n\r\n", "0.1 + n"),
    ("   per(1, 2)", "per(1.0, 2.0)"),
    ("2**3", 1),
    ("0x10", 0),
    ("007", (0, "invalid syntax")),      # not CPython's "use an 0o prefix"
    # not CPython's int_max_str_digits advice
    pytest.param("1" * 5000, (5000, "invalid syntax"), id="5000-digit integer"),
    pytest.param("(" * 300 + "1" + ")" * 300, (200, "too many nested parentheses"),
                 id="300 parentheses"),
    ("n(2)", 0),
    ("sin(n, 2)", 0),
    ("per()", 0),
    ("splice(1, 2)", 0),
    ("True", 0),
    ("1j", 0),
    ("n if n else 1", 0),
    ("1_0", 0),
    ("(sin)(n)", 0),
    ("\u207f", 0),               # NFKC makes Python read it as n
    ("sin(n, ^n)", 0),           # Python reads **n as keyword arguments
    ("0.1 # note", 4),
    ("0.1\x00", 3),
    ("2^3 + * 1", 6),
    ("1 + ", (4, "invalid syntax")),     # an error at the end is at the end
    ("sin(n", (3, "'\\(' was never closed")),
    ("1)", (1, "unmatched '\\)'")),
    # positions count characters, not UTF-8 bytes
    ("0.5 + é + * 1", 10),
    ("0.5 +\u2003foo", 6),
    ("splice(1.5, 0.1, 0.2)", (10, "non-integer splice cutoff")),
    # past 2^53 a float cutoff is not the integer written, or not an int64
    ("splice(1e19, 0.1, 0.2)", (11, r"splice cutoff past 2\^53")),
    ("splice(9007199254740993, 0.1, 0.2)", (23, r"splice cutoff past 2\^53")),
    ("splice(9007199254740991, 0.1, 0.2)", "splice(9007199254740991, 0.1, 0.2)"),
    # a negative cutoff reads the after-branch everywhere
    ("splice(-1e19, 0.1, 0.2)", "splice(-10000000000000000000, 0.1, 0.2)"),
])
def test_language_edges(text, outcome):
    # accepted texts give their printed form, refused ones their position
    # and, where pinned, their message
    if isinstance(outcome, str):
        assert str(se.parse(text)) == outcome
        return
    position, message = outcome if isinstance(outcome, tuple) else (outcome, None)
    with pytest.raises(se.SeqSyntaxError, match=message) as exc:
        se.parse(text)
    assert exc.value.position == position


def test_long_per_table_parses_in_linear_time():
    values = [0.5 + i / 1e6 for i in range(20_000)]
    text = "per(" + ", ".join(map(repr, values)) + ")"
    start = time.perf_counter()
    expr = se.parse(text)
    assert time.perf_counter() - start < 5.0
    assert expr.ast == se.Per(tuple(values))


def test_division_by_zero_reports_index():
    e = se.parse("1/(n-3)")
    assert se.evaluate(e, 2) == -1.0
    with pytest.raises(se.SeqEvalError) as exc:
        se.evaluate(e, 3)
    assert exc.value.index == 3


def test_evaluate_refuses_a_negative_index():
    # refused even where the expression is defined there
    with pytest.raises(se.SeqEvalError, match=r"^negative index \(at n=-1\)$"):
        se.evaluate(se.parse("1/(n-3)"), -1)


def test_power_domain_error():
    with pytest.raises(se.SeqEvalError):
        se.evaluate(se.parse("(-2)^(1/2)"), 1)


@pytest.mark.parametrize("text, n0, n1, index", [
    ("alt(n/2)", 200000, 200005, 200001),  # inside allclose's rtol=1e-5
    ("alt(1e300*n)", 0, 3, 1),  # past int64
    ("alt(2^53 - 2 + n)", 0, 3, 2),  # a float's parity is unknown from 2^53
])
def test_alt_refuses_an_argument_without_a_known_parity(text, n0, n1, index):
    with pytest.raises(se.SeqEvalError, match=r"alt\(\) needs an integer argument") as exc:
        se.eval_range(se.parse(text), n0, n1)
    assert exc.value.index == index


def test_alt_reads_integers_to_within_1e_9():
    assert se.eval_range(se.parse("alt(2^52 + n)"), 0, 3).tolist() == [1, -1, 1, -1]
    assert se.eval_range(se.parse("alt(n + 1e-10)"), 0, 3).tolist() == [1, -1, 1, -1]
    assert se.eval_range(se.parse("alt(n/2)"), 200000, 200000).tolist() == [1]


def test_classify_examples():
    assert se.classify(se.parse("0.1*alt(n)")) == 2
    assert se.classify(se.parse("sin(n)")) is None
    assert se.classify(se.parse("5")) == 1
    assert se.classify(se.parse("per(1, 1)")) == 1
    assert se.classify(se.parse("per(1, 2, 1, 2)")) == 2
    # alt*alt collapses to the constant sequence 1
    assert se.classify(se.parse("alt(n)*alt(n)")) == 1
    # classify reads the period stored on the expression
    expr = se.parse("per(1, 2, 3) + alt(n)")
    assert se.classify(expr) == expr.period == 6


def test_splice_semantics():
    before = se.parse("9")
    after = se.parse("n")
    e = se.spliced(3, before, after)
    assert [se.evaluate(e, i) for i in range(5)] == [9.0, 9.0, 9.0, 3.0, 4.0]
    assert se.spliced(0, before, after) is after
    round_trip = se.parse(str(e))
    assert [se.evaluate(round_trip, i) for i in range(5)] == [9.0, 9.0, 9.0, 3.0, 4.0]


# --- random-AST round-trip: print then re-parse, evaluations agree exactly


def _random_ast(rng, depth):
    choice = rng.integers(0, 10 if depth > 0 else 3)
    if choice == 0:
        return se.Num(float(np.round(rng.uniform(-5, 5), 6)))
    if choice == 1:
        return se.Var()
    if choice == 2:
        return se.Per(tuple(float(np.round(v, 6)) for v in rng.uniform(-2, 2, rng.integers(1, 5))))
    if choice == 3:
        return se.Neg(_random_ast(rng, depth - 1))
    if choice == 4:
        op = ["+", "-", "*"][rng.integers(0, 3)]
        return se.Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if choice == 5:
        # keep denominators away from zero
        return se.Bin("/", _random_ast(rng, depth - 1),
                      se.Num(float(np.round(rng.uniform(1, 4), 6))))
    if choice == 6:
        fn = ["sin", "cos", "abs"][rng.integers(0, 3)]
        return se.Call(fn, _random_ast(rng, depth - 1))
    if choice == 7:
        # small nonnegative integer exponents stay in domain and finite; a
        # power as the exponent prints right-associated
        exponent = [se.Num(2.0), se.Num(3.0), se.Neg(se.Num(-2.0)),
                    se.Bin("^", se.Num(-1.0), se.Num(2.0))][rng.integers(0, 4)]
        return se.Bin("^", _random_ast(rng, depth - 1), exponent)
    if choice == 8:
        return se.Splice(int(rng.integers(-3, 30)), _random_ast(rng, depth - 1),
                         _random_ast(rng, depth - 1))
    return se.Call("alt", se.Var())


def test_print_parse_round_trip_mass():
    rng = np.random.default_rng(42)
    indices = rng.integers(0, 10_000, size=100)
    for _ in range(1000):
        ast = _random_ast(rng, 3)
        expr = se.SeqExpr(ast)
        reparsed = se.parse(str(expr))
        got = se.eval_range(reparsed, 0, 0)  # force a parse-level sanity hit
        del got
        for n in indices[:20]:
            assert se.evaluate(expr, int(n)) == se.evaluate(reparsed, int(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=2**31))
def test_round_trip_hypothesis(n, seed):
    rng = np.random.default_rng(seed)
    ast = _random_ast(rng, 3)
    expr = se.SeqExpr(ast)
    reparsed = se.parse(str(expr))
    assert se.evaluate(expr, n) == se.evaluate(reparsed, n)
    # printing is a fixed point
    assert str(reparsed) == str(expr)


# the language's meaning written out apart from seqexpr's operator tables,
# for the trees _random_ast draws (alt only of n, no zero denominators)
_REFERENCE_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
                     "^": np.power}
_REFERENCE_CALLS = {"sin": np.sin, "cos": np.cos, "abs": np.abs}


def _reference(node, n):
    if isinstance(node, se.Num):
        return np.full(n.shape, node.value)
    if isinstance(node, se.Var):
        return n.astype(float)
    if isinstance(node, se.Neg):
        return -_reference(node.arg, n)
    if isinstance(node, se.Bin):
        return _REFERENCE_BINARY[node.op](_reference(node.left, n), _reference(node.right, n))
    if isinstance(node, se.Call) and node.func == "alt":
        return np.where(n % 2 == 0, 1.0, -1.0)
    if isinstance(node, se.Call):
        return _REFERENCE_CALLS[node.func](_reference(node.arg, n))
    if isinstance(node, se.Per):
        return np.asarray(node.values)[n % len(node.values)]
    return np.where(n < node.cutoff, _reference(node.before, n), _reference(node.after, n))


def test_evaluation_matches_an_independent_reference():
    # the round trips compare evaluation with itself; this catches a wrong
    # ufunc in an operator table row
    rng = np.random.default_rng(2024)
    n = np.arange(0, 2001)
    for _ in range(500):
        tree = _random_ast(rng, 3)
        assert np.array_equal(se.eval_range(se.SeqExpr(tree), 0, 2000), _reference(tree, n)), \
            str(se.SeqExpr(tree))


def test_classify_needs_a_structural_period():
    # the first two are constant until n = 100 and n - n is 0 everywhere,
    # yet no tree here proves a period
    for text in ("splice(100, 0.1, -0.5)", "0.2 + 0.01*(abs(n - 100) - (100 - n))", "n - n"):
        expr = se.parse(text)
        assert se.classify(expr) is None and expr.period is None
    assert se.classify(se.parse("splice(0, 0.1, per(1, 2))")) == 2


@pytest.mark.parametrize("text,cutoff", [
    ("0.1 + sin(n)", 0),
    ("splice(40, 0.1, 0.2)", 40),
    ("splice(-3, 0.1, n)", 0),
    ("0.1 + splice(40, 0.1, splice(90, 0.2, 0.3))", 90),
    # the before-branch is read only below the outer cutoff
    ("splice(40, splice(90, 0.2, 0.3), 0.1)", 40),
    ("abs(-splice(7, 1, 2))*cos(splice(5, 1, n))", 7),
])
def test_cutoff_is_the_deepest_splice_cutoff(text, cutoff):
    expr = se.parse(text)
    assert expr.cutoff == cutoff
    assert vars(expr)["cutoff"] == cutoff  # stored, like the period


def _tail(node):
    """``node`` with every splice replaced by its after-branch."""
    if isinstance(node, se.Splice):
        return _tail(node.after)
    if isinstance(node, se.Neg):
        return se.Neg(_tail(node.arg))
    if isinstance(node, se.Bin):
        return se.Bin(node.op, _tail(node.left), _tail(node.right))
    if isinstance(node, se.Call):
        return se.Call(node.func, _tail(node.arg))
    return node


def test_from_the_cutoff_on_every_splice_reads_its_after_branch():
    rng = np.random.default_rng(36)
    spliced = 0
    for _ in range(500):
        tree = _random_ast(rng, 3)
        expr = se.SeqExpr(tree)
        cut = expr.cutoff
        spliced += cut > 0
        n = np.arange(cut, cut + 200)
        assert np.array_equal(_reference(tree, n), _reference(_tail(tree), n)), str(expr)
    assert spliced > 50


def test_classify_periodic_soundness():
    rng = np.random.default_rng(7)
    explicit = [se.parse(text) for text in (
        "splice(65, 1, 2)", "splice(2000, 0.3, 0.3)", "abs(n - 70) - (70 - n)",
        "per(1, 2) + splice(100, 0, 1)", "abs(alt(n))", "splice(0, 1, 2)")]
    for expr in explicit + [se.SeqExpr(_random_ast(rng, 2)) for _ in range(200)]:
        p = se.classify(expr)
        values = se.eval_range(expr, 0, 2000)
        if p is not None:
            # p repeats, and no proper divisor of p does
            assert np.array_equal(values[:-p], values[p:]), str(expr)
            for d in range(1, p):
                if p % d == 0:
                    assert not np.array_equal(values[:-d], values[d:]), (str(expr), d)


# the two walks the one structural walk replaced, kept as its reference


def _structural_period(node):
    """Exact period provable from the tree alone; None when unknown."""
    if isinstance(node, se.Num):
        return 1
    if isinstance(node, se.Per):
        return len(node.values)
    if isinstance(node, se.Var):
        return None
    if isinstance(node, se.Neg):
        return _structural_period(node.arg)
    if isinstance(node, se.Bin):
        periods = [_structural_period(side) for side in (node.left, node.right)]
        return None if None in periods else math.lcm(*periods)
    if isinstance(node, se.Call):
        if node.func == "alt" and isinstance(node.arg, se.Var):
            return 2
        return _structural_period(node.arg)
    if node.cutoff <= 0:
        return _structural_period(node.after)
    return None


def _deepest_cutoff(node):
    if isinstance(node, se.Splice):
        return max(node.cutoff, _deepest_cutoff(node.after))
    if isinstance(node, se.Bin):
        return max(_deepest_cutoff(node.left), _deepest_cutoff(node.right))
    if isinstance(node, (se.Neg, se.Call)):
        return _deepest_cutoff(node.arg)
    return 0


def _assert_walk_matches_the_reference(expr):
    assert expr.cutoff == _deepest_cutoff(expr.ast), str(expr)
    reference = _structural_period(expr.ast)
    assert (expr.period is None) == (reference is None), str(expr)
    assert expr.period is None or reference % expr.period == 0, str(expr)


def test_one_walk_gives_the_two_walks_answers_on_random_trees():
    rng = np.random.default_rng(41)
    trees = [_random_ast(rng, 3) for _ in range(2000)]
    periodic = 0
    for tree in trees:
        expr = se.SeqExpr(tree)
        _assert_walk_matches_the_reference(expr)
        periodic += expr.period is not None
    assert periodic > 200 and sum(_deepest_cutoff(t) > 0 for t in trees) > 200


@pytest.mark.parametrize("text,cutoff,period", [
    ("splice(0, n, per(1, 2, 3))", 0, 3),
    ("splice(-5, sin(n), 0.1*alt(n))", 0, 2),
    ("splice(-5, n, splice(0, n, per(1, 2)))", 0, 2),
    # a positive cutoff inside a before-branch is never read from n = 0 on
    ("splice(0, splice(40, n, 1), per(1, 2))", 0, 2),
    ("splice(-2, splice(40, 1, 2), 0.5) + alt(n)", 0, 2),
    ("per(1, 2) + splice(40, 0, 1)", 40, None),
    # alt of something other than n is a pointwise function of its argument
    ("alt(per(2, 4))", 0, 1),
    ("alt(per(1, 2))", 0, 2),
    ("alt(3)", 0, 1),
    ("alt(2*n)", 0, None),
])
def test_one_walk_on_splices_and_alt(text, cutoff, period):
    expr = se.parse(text)
    assert (expr.cutoff, expr.period) == (cutoff, period)
    _assert_walk_matches_the_reference(expr)


def test_a_period_past_the_cap_counts_as_none():
    # prime lengths: the lcm 1,052,651 passes 2^20, so no period of the sum
    # is evaluated and the limits read the window, as for a general stream
    short, long = (", ".join(repr(0.001 * (j % 7)) for j in range(p)) for p in (1021, 1031))
    total = se.parse(f"per({short}) + per({long})")
    assert se.common_period([1021, 1031]) is None
    assert se.common_period([1024, 2**20]) == 2**20
    assert se.common_period([2**20 + 1]) is None
    assert total.cutoff == 0 and total.period is None
    assert se.parse(f"per({long})").period == 1031
    tables = [se.parse(f"per({short})"), se.parse(f"per({long})")]
    eq = validate([Term(table, se.DelaySpec.constant(lag)) for table, lag in zip(tables, (1, 2))])
    assert aggregate_period(eq) is None
    rows, exact = coeff_span(eq, (0, 100))
    assert not exact and [len(row) for row in rows] == [101, 101]
    alone = validate([Term(tables[0], se.DelaySpec.constant(1))])
    assert exact_period(alone, [se.DelaySpec.periodic([1] * 1030 + [2])]) is None


# --- constant slots: a per value or splice cutoff is any finite expression
# of constant class


def test_constant_slots_refuse_tables_with_their_position():
    for text, position in [("per(per(0.1, 0.3), 0.2)", 17), ("splice(per(7, 9), 1, 2)", 16),
                           ("per(splice(5, 1, 2), 3)", 19), ("per(n)", 5)]:
        with pytest.raises(se.SeqSyntaxError, match="expected a constant expression") as exc:
            se.parse(text)
        assert exc.value.position == position, text


def test_constant_slots_take_any_expression_of_constant_class():
    assert str(se.parse("per(per(1, 1), 3)")) == "per(1.0, 3.0)"
    assert str(se.parse("per(alt(n)*alt(n), 2)")) == "per(1.0, 2.0)"
    assert str(se.parse("per(abs(alt(n)))")) == "per(1.0)"
    assert str(se.parse("splice(per(4, 4) + 1, n, 2)")) == "splice(5, n, 2.0)"


def test_non_finite_constant_slots_raise_an_evaluation_error():
    for text in ("splice(1e400, 0.1, 0.2)", "splice(sin(1e400), 1, 2)", "per(1e400)",
                 "per(0.1, 1e400 - 1e400)"):
        with pytest.raises(se.SeqEvalError, match=r"non-finite value \(at n=0\)"):
            se.parse(text)
    # the whole text is parsed before any slot is read
    with pytest.raises(se.SeqSyntaxError):
        se.parse("per(1e400,^7")


# --- DelaySpec


def test_delayspec_invariants():
    d = se.DelaySpec.periodic([3, 5])
    assert d.period == 2 and d.max_lag == 5
    for n in range(100):
        assert 0 <= d.lag_at(n) <= d.max_lag
    c = se.DelaySpec.constant(4)
    assert c.lags == (4,) and c.max_lag == 4


@pytest.mark.parametrize("period", range(1, 6))
def test_lag_range_is_lag_at_on_every_window(period):
    # cut from whole periods: every start offset, lengths 0 to 3p, one
    # certification-length window, and nothing at n1 = n0 - 1
    d = se.DelaySpec.periodic([(7 * j + 3) % 11 for j in range(period)])
    windows = [(n0, n0 + length - 1) for n0 in (0, 1, period - 1, 2 * period + 1, 1003)
               for length in range(3 * period + 1)]
    for n0, n1 in windows + [(5, 10_005)]:
        got = d.lag_range(n0, n1)
        assert got.dtype == np.int64
        assert got.tolist() == [d.lag_at(n) for n in range(n0, n1 + 1)], (n0, n1)
    assert d.lag_range(9, 8).shape == (0,)


def test_delayspec_rejects_negative():
    with pytest.raises(ValueError):
        se.DelaySpec.periodic([2, -1])
    with pytest.raises(ValueError):
        se.DelaySpec(())


# --- evaluation scope: one cached span per expression

SCOPE_EXPRS = [
    se.parse(text) for text in (
        "0.2 + 0.05*sin(3*n)", "0.1*abs(cos(2*n))", "1.001^n - 0.5*cos(n)",
        "0.05 + 0.01*alt(n)", "per(0.3, -0.1, 0.2)",
        "splice(40, 0.1*sin(n), 0.2 + 0.1*alt(n))",
        "1/(n-137)",         # division by zero at n = 137
        "alt(n/2)",          # non-integer alt argument at odd n
        "(n-60)^0.5",        # power out of domain below n = 60
    )
]


def _outcome(expr, n0, n1):
    try:
        return se.eval_range(expr, n0, n1).tobytes()
    except se.SeqEvalError as exc:
        return (str(exc), exc.index)


# each step: (expression, how the window sits against the previous one of
# that expression, offset, length); per() rejects the negative indices
_STEPS = st.lists(st.tuples(st.integers(0, len(SCOPE_EXPRS)),
                            st.sampled_from(["anywhere", "inside", "overlap", "after",
                                             "before", "gap"]),
                            st.integers(0, 400), st.integers(1, 300)),
                  min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(_STEPS, st.integers(0, 2**31))
def test_scope_matches_plain_evaluation(steps, seed):
    ast = _random_ast(np.random.default_rng(seed), 3)
    pool = SCOPE_EXPRS + [se.SeqExpr(ast)]
    last: dict = {}
    windows = []
    for index, how, offset, length in steps:
        expr = pool[index]
        p0, p1 = last.get(index, (offset - 20, offset - 20 + length - 1))
        n0 = {"anywhere": offset - 20, "inside": p0 + offset % (p1 - p0 + 1),
              "overlap": p0 + offset % (p1 - p0 + 1) - length // 2,
              "after": p1 + 1, "before": p0 - length, "gap": p1 + 2}[how]
        n1 = min(n0 + length - 1, p1) if how == "inside" else n0 + length - 1
        last[index] = (n0, n1)
        windows.append((expr, n0, n1))
    expected = [_outcome(*w) for w in windows]

    evaluated = []
    plain = se._eval_window

    def recording(expr, n0, n1):
        evaluated.append((expr, n0, n1))
        return plain(expr, n0, n1)

    se._eval_window = recording
    try:
        with se.evaluation_scope():
            for window, want in zip(windows, expected):
                assert _outcome(*window) == want
    finally:
        se._eval_window = plain
    # every evaluation is a window some caller asked for
    assert set(evaluated) <= set(windows)
    assert len(evaluated) <= len(windows)


def test_scope_returns_read_only_views_of_one_span():
    e = se.parse("0.2 + 0.05*sin(n)")
    with se.evaluation_scope():
        first = se.eval_range(e, 100, 199)
        touching = se.eval_range(e, 200, 249)
        inside = se.eval_range(e, 150, 240)
        assert not first.flags.writeable
        assert not touching.flags.writeable
        assert not inside.flags.writeable
        with pytest.raises(ValueError):
            inside[0] = 1.0
        with se.evaluation_scope():  # nested: the same span
            nested = se.eval_range(e, 120, 130)
        assert nested.base is inside.base
        assert not se.eval_range(e, 0, 3).flags.writeable
    assert se.eval_range(e, 100, 199).flags.writeable


def test_once_hashes_its_key_once_per_lookup():
    # a hit hashes the key once and a miss twice (the lookup and the store);
    # a stored None is an answer, as _analytic_positivity's "no route" is
    class Key:
        hashes = 0

        def __hash__(self):
            Key.hashes += 1
            return 0

    calls = []

    def answer(key):
        calls.append(key)
        return None

    key = Key()
    with se.evaluation_scope():
        assert se.once(answer, key) is None
        assert Key.hashes == 2
        assert se.once(answer, key) is None
        assert Key.hashes == 3
    assert calls == [key]
    se.once(answer, key)  # outside a scope every call computes, hashing nothing
    assert calls == [key, key] and Key.hashes == 3


def test_expressions_that_print_alike_are_one_expression(monkeypatch):
    built, parsed = se.SeqExpr(se.Num(-1.0)), se.SeqExpr(se.Neg(se.Num(1.0)))
    assert built.ast != parsed.ast and str(built) == str(parsed) == "-1.0"
    assert built == parsed and hash(built) == hash(parsed)
    evaluated = []
    plain = se._eval_window

    def recording(expr, n0, n1):
        evaluated.append((str(expr), n0, n1))
        return plain(expr, n0, n1)

    monkeypatch.setattr(se, "_eval_window", recording)
    with se.evaluation_scope():
        first = se.eval_range(built, 0, 9)
        second = se.eval_range(parsed, 0, 9)
    assert evaluated == [("-1.0", 0, 9)]
    assert second.base is first


def test_run_all_leaves_no_scope_behind():
    from delaystab import DelaySpec, Term, run_all, validate

    eq = validate([Term(se.parse("0.1 + 0.05*sin(n)"), DelaySpec.constant(2))])
    run_all(eq)
    assert se._scope is None
    # validated on [0, 1000), the coefficient fails at n = 5000 on the default window
    bad = validate([Term(se.parse("0.1 + 1/(n-5000)"), DelaySpec.constant(2))])
    with pytest.raises(se.SeqEvalError, match="n=5000"):
        run_all(bad)
    assert se._scope is None
    assert se.eval_range(eq.terms[0].coeff, 0, 3).flags.writeable
