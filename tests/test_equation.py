import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from delaystab import (
    DelaySpec,
    Equation,
    InitialData,
    Term,
    merge_same_delay,
    parse,
    prefix_modify,
    simulate,
    subset_equation,
    validate,
)
from delaystab import equation, seqexpr
from delaystab.seqexpr import SeqEvalError, evaluate, evaluation_scope


def test_validate_sin_cos_bounds(eq_sin_cos):
    assert eq_sin_cos.T == 20


def test_validate_trivial_and_unbounded(eq_unbounded):
    zero = validate([Term(parse("0"), DelaySpec.constant(0))])
    assert zero.T == 0 and zero.validation_window == (0, 1000)
    assert eq_unbounded.T == 1


def test_equation_derives_T_from_its_lags():
    eq = Equation((Term(parse("0.1"), DelaySpec.periodic([2, 7])),
                   Term(parse("0.05"), DelaySpec.constant(3))))
    assert eq.T == 7
    assert replace(eq, forcing=parse("1")).T == 7
    with pytest.raises(ValueError, match="at least one term"):
        Equation(())


def test_validate_rejects_empty_terms():
    with pytest.raises(ValueError):
        validate([])


def test_subset_equation(eq_unbounded):
    one = subset_equation(eq_unbounded, [0])
    assert one.m == 1 and one.T == 1
    assert evaluate(one.terms[0].coeff, 5) == pytest.approx(2.2)
    same = subset_equation(eq_unbounded, [0, 1])
    assert [str(t.coeff) for t in same.terms] == [str(t.coeff) for t in eq_unbounded.terms]
    with pytest.raises(ValueError):
        subset_equation(eq_unbounded, [])


def test_validation_of_a_long_delay_stays_small():
    # lag 10^6 validates on [0, 10^7 + 10): in one piece that took 170 MB,
    # in slices of 2^16 points it stays under 8 MB
    tracemalloc.start()
    try:
        eq = validate([Term(parse("0.1"), DelaySpec.constant(10**6))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eq.validation_window == (0, 10 * (10**6 + 1))
    assert peak < 8 * 2**20


def test_validation_window_of_one_slice_is_one_call(monkeypatch):
    # T = 6552 validates on [0, 65530), one slice of at most 2^16 points:
    # each expression is evaluated by one call, never through eval_range,
    # so an open scope keeps nothing of it
    calls = []
    evaluate_window = equation._eval_window

    def refused(expr, n0, n1):
        raise AssertionError(f"validation called eval_range({expr}, {n0}, {n1})")

    def slicing(expr, n0, n1):
        calls.append(("slice", str(expr), n0, n1))
        return evaluate_window(expr, n0, n1)

    monkeypatch.setattr(equation, "eval_range", refused)
    monkeypatch.setattr(equation, "_eval_window", slicing)
    with evaluation_scope():
        validate([Term(parse("0.1 + 0.01*sin(n)"), DelaySpec.constant(6552))], parse("cos(n)"))
        assert not seqexpr._scope.spans and not seqexpr._scope.memo
    assert calls == [("slice", "0.1 + 0.01*sin(n)", 0, 65529), ("slice", "cos(n)", 0, 65529)]
    # T = 6553 needs two slices, each evaluated once, in a scope or not,
    # and none of them kept by the scope
    for scope in (evaluation_scope, nullcontext):
        calls.clear()
        with scope():
            validate([Term(parse("0.1"), DelaySpec.constant(6553))])
            assert seqexpr._scope is None or not seqexpr._scope.spans
        assert calls == [("slice", "0.1", 0, 65535), ("slice", "0.1", 65536, 65539)]


def test_validation_reports_the_first_bad_index_of_a_sliced_window():
    # 2^16 + 6 is the first index where 1/(n - 65542) is not finite, in the
    # second slice of T = 6600's window [0, 66010)
    with pytest.raises(SeqEvalError) as err:
        validate([Term(parse("1/(n - 65542)"), DelaySpec.constant(6600))])
    assert err.value.index == 65542
    assert str(err.value) == "term 0: division by zero (at n=65542)"


def test_name_failure_names_a_sum_of_same_lag_terms():
    # each coefficient is finite; only their merged sum overflows
    one = Term(parse("1e308"), DelaySpec.constant(1))
    eq = validate([one, Term(parse("0.1"), DelaySpec.constant(2)), one])
    with pytest.raises(SeqEvalError) as err:
        seqexpr.eval_range(merge_same_delay(eq).terms[0].coeff, 0, 3)
    assert str(err.value) == "non-finite value (at n=0)"
    assert str(equation.name_failure(eq, err.value)) == "terms 0, 2: non-finite value (at n=0)"


def test_name_failure_keeps_an_error_that_no_term_meets():
    # nothing, sum or term, fails at n = 5
    eq = validate([Term(parse("1e307"), DelaySpec.constant(1))] * 2)
    exc = SeqEvalError("non-finite value", 5)
    assert equation.name_failure(eq, exc) is exc


def test_subset_equation_evaluates_nothing(eq_unbounded, monkeypatch):
    def refuse(*args):
        raise AssertionError("subset_equation evaluated an expression")

    monkeypatch.setattr(equation, "eval_range", refuse)
    one = subset_equation(eq_unbounded, [1])
    monkeypatch.undo()
    # the parent's validation covered the term on the same window
    assert one == validate(one.terms)


def test_subset_drops_forcing():
    eq = validate([Term(parse("0.1"), DelaySpec.constant(0))], forcing=parse("1"))
    assert subset_equation(eq, [0]).forcing is None


def test_a_table_of_one_repeated_lag_is_a_constant_delay():
    def pairs(*lag_tables):
        return equation.autonomous_coefficients(validate(
            [Term(parse("0.1"), DelaySpec.periodic(lags)) for lags in lag_tables]))

    assert pairs([3, 3], [2]) == [(0.1, 3), (0.1, 2)]
    assert pairs([3, 5]) is None and pairs([2], [3, 5]) is None


def test_prefix_modify_identity(eq_sin_cos):
    assert prefix_modify(eq_sin_cos, 0, list(eq_sin_cos.terms)) is eq_sin_cos


def test_prefix_modify_refuses_a_replacement_of_another_arity(eq_sin_cos):
    with pytest.raises(ValueError, match=r"^replacement arity 1 != 2$"):
        prefix_modify(eq_sin_cos, 5, eq_sin_cos.terms[:1])


def test_prefix_modify_splices_coefficients():
    eq = validate([Term(parse("0.3"), DelaySpec.constant(1))])
    replacement = [Term(parse("0"), DelaySpec.constant(1))]
    spliced = prefix_modify(eq, 5, replacement)
    values = [evaluate(spliced.terms[0].coeff, n) for n in range(8)]
    assert values[:5] == [0.0] * 5
    assert values[5:] == [0.3] * 3


def test_merge_same_delay():
    eq = validate([
        Term(parse("per(-0.12, -0.05)"), DelaySpec.periodic([3, 5])),
        Term(parse("per(0.17, 0.08)"), DelaySpec.periodic([3, 5])),
    ])
    merged = merge_same_delay(eq)
    assert merged.m == 1
    assert evaluate(merged.terms[0].coeff, 0) == pytest.approx(0.05)
    assert evaluate(merged.terms[0].coeff, 1) == pytest.approx(0.03)
    # distinct lag tables: nothing to merge, and no second validation
    distinct = validate([
        Term(parse("per(-0.12, -0.05)"), DelaySpec.periodic([3, 5])),
        Term(parse("0.1 + 0.02*sin(n)"), DelaySpec.constant(3)),
    ])
    assert merge_same_delay(distinct) is distinct


def test_merge_same_delay_evaluates_nothing(monkeypatch):
    eq = validate([
        Term(parse("per(-0.12, -0.05)"), DelaySpec.periodic([3, 5])),
        Term(parse("0.1 + 0.02*sin(n)"), DelaySpec.constant(2)),
        Term(parse("per(0.17, 0.08)"), DelaySpec.periodic([3, 5])),
    ])

    def refuse(*args):
        raise AssertionError("merge_same_delay evaluated an expression")

    for module, name in ((equation, "eval_range"), (equation, "_eval_window"),
                         (seqexpr, "eval_range"), (seqexpr, "_eval_window")):
        monkeypatch.setattr(module, name, refuse)
    merged = merge_same_delay(eq)
    monkeypatch.undo()
    assert [t.delay for t in merged.terms] == [DelaySpec.periodic([3, 5]), DelaySpec.constant(2)]
    # the sums keep eq's window, which covered their summands
    assert merged == validate(merged.terms)


@pytest.mark.parametrize("T", [0, 1, 3, 7])
def test_a_history_is_stepped_with_zeros_before_it(T):
    # x is zero before the history and never read before n0 - T, so a short
    # history is bit for bit its zero-padded T + 1 form and a long one its
    # last T + 1 values, on horizons shorter and longer than T
    rng = np.random.default_rng(T)
    terms = [Term(parse("0.3 + 0.1*sin(n)"), DelaySpec.constant(T)),
             Term(parse("per(-0.1, 0.2)"), DelaySpec.periodic([0, T]))]
    for forcing in (None, parse("0.5*cos(n)")):
        eq = validate(terms, forcing)
        assert eq.T == T
        for h in (1, T + 1, T + 6):
            values = rng.uniform(-1.0, 1.0, h)
            padded = np.concatenate((np.zeros(max(T + 1 - h, 0)), values[-(T + 1):]))
            for N in (3, 5, 3 + T, 40):
                got = simulate(eq, InitialData(3, values), N).values
                assert got.tobytes() == simulate(eq, InitialData(3, padded), N).values.tobytes()
    with pytest.raises(ValueError, match=r"^a history needs at least x\(n0\), got no values$"):
        InitialData(0, [])


def test_a_one_value_history_steps_by_hand(eq_unbounded):
    # x(n+1) = x(n) - 2.2 x(n-1) + 2 x(n) from x(-1) = 0, x(0) = 1
    for init in (InitialData(0, [1.0]), InitialData.from_values(0, [0.0, 1.0])):
        assert simulate(eq_unbounded, init, 2).values.tolist() == [1.0, 3.0, 6.8]


def test_initial_data_holds_a_read_only_float_copy():
    given = np.array([1.0, 2.0])
    init = InitialData(4, given)
    given[0] = 9.0
    assert init.values.tolist() == [1.0, 2.0] and not init.values.flags.writeable
    assert InitialData.from_values(4, [1, 2]).values.dtype == np.float64
    assert InitialData(4, [7]).values.tolist() == [7.0]


def test_delay_accesses_stay_in_range(eq_periodic_mixed):
    # simulating from a fully specified history must never need indices
    # below n0 - T; from_values supplies exactly that range
    T = eq_periodic_mixed.T
    init = InitialData.from_values(0, list(np.linspace(-1, 1, T + 1)))
    traj = simulate(eq_periodic_mixed, init, 50)
    assert np.isfinite(traj.values).all()
