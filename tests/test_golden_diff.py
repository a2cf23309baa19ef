"""The field-level golden diff: no move on the tree, and a nudged witness is
named alone."""

import copy
import gzip
import json

import golden_diff
from test_benchmark_gate import PERFBENCH, gate


def test_golden_diff_finds_no_move_on_the_tree():
    # tests/golden and the perfbench jobs the gate test checks
    moves, counts = golden_diff.collect(subset=True)
    assert golden_diff.refused(moves, []) == []
    assert golden_diff.summary(moves, counts, []).splitlines()[-1] == "no field moved"


def _nudged(entry: dict, witness_of, factor: float) -> tuple[dict, str]:
    """A copy of ``entry`` with its first nonzero number witness times
    ``factor``, and that witness' family.field name."""
    nudged = copy.deepcopy(entry)
    for verdict in nudged["verdicts"]:
        criterion, witnesses = witness_of(verdict)
        for key, value in sorted(witnesses.items()):
            if isinstance(value, float) and value:
                witnesses[key] = value * factor
                return nudged, f"{criterion.split('(')[0]}.{key}"
    raise AssertionError("no witness to nudge")


def test_a_nudged_witness_is_the_one_field_named():
    with gzip.open(PERFBENCH / "goldens" / "check_periodic.json.gz", "rt") as fh:
        entry = next(iter(json.load(fh).values()))
    golden, name = _nudged(entry, lambda v: (v[0], v[5]), 1 + 1e-6)
    moves = golden_diff.compare(entry, golden, "job", gate._close)
    assert [(m.name, m.moved) for m in moves] == [(name, True)]
    assert golden_diff.refused(moves, []) == [name]
    assert golden_diff.refused(moves, [name.split(".")[0] + ".*"]) == []
    # inside the gate's tolerance a perfbench number drifts without moving
    golden, name = _nudged(entry, lambda v: (v[0], v[5]), 1 + 1e-12)
    moves = golden_diff.compare(entry, golden, "job", gate._close)
    assert [(m.name, m.moved) for m in moves] == [(name, False)]
    # a tests/golden report moves on any change
    with open(golden_diff.test_golden._golden_path("check_alternating_two_delay")) as fh:
        report = json.load(fh)
    golden, name = _nudged(report, lambda v: (v["criterion"], v["witnesses"]), 1 + 1e-12)
    assert [(m.name, m.moved) for m in golden_diff.compare(report, golden, "report")] == [
        (name, True)]
