"""Field-level diff of freshly generated outputs against the committed goldens.

    PYTHONPATH=src python tests/golden_diff.py [--allow PATTERN ...]

Regenerates, in-process and into a temporary directory, every
``tests/golden`` output (through ``test_golden``'s generators) and the
``check --no-meta`` report of every default-seed ``check_general`` and
``check_periodic`` job of ``perfbench/corpus.py`` (``collect(subset=True)``:
only the jobs ``test_benchmark_gate`` checks), and compares each with its
golden field by field.  Verdicts are keyed by criterion; a field is named ``family.field``,
the family being the criterion without its ``(...)`` (``theorem2.mu``,
``corollary4.window_certified``), and the oracle's as ``oracle.decay.mu_hat``.

Numbers that moved are printed grouped by name with their count and largest
relative move; changes to the criterion set, outcomes, claims, windows and
flags are listed one by one; a CSV golden is compared by bytes and its first
differing row is named.  A ``perfbench/goldens`` number counts as moved only
past the benchmark gate's tolerance, and smaller drift gets one summary line;
a ``tests/golden`` number moves on any change, as that contract is bytes.

Exit status 1 when a field moved that no ``--allow`` pattern (an fnmatch
pattern on the name, e.g. ``theorem2.mu`` or ``oracle.spectral.*``)
matches, else 0.  The tool only reports: it writes no golden.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import gzip
import io
import json
import math
import os
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import test_golden
from test_benchmark_gate import PERFBENCH, SIZES, _jobs, corpus, gate

from delaystab import cli

@dataclass(frozen=True)
class Move:
    """One field that differs from its golden."""

    name: str  # family.field, what --allow patterns match
    output: str  # a tests/golden name, or a perfbench workload and job digest
    criterion: str  # the verdict's, or "" outside the verdicts
    detail: str  # "golden -> got", or what changed
    rel: Optional[float] = None  # relative move of a number
    moved: bool = True  # False: a number inside the gate's tolerance


def _family(criterion: str) -> str:
    return criterion.split("(", 1)[0]


def _entry(output: dict) -> dict:
    """A check report or a perfbench golden entry as its verdicts keyed by
    criterion and its other fields flattened to {dotted path: value}."""
    if "oracle" in output:  # a whole report
        rest = {k: v for k, v in output.items() if k != "verdicts"}
        verdicts = {v["criterion"]: v for v in output["verdicts"]}
    else:  # gate.golden_entry's lists
        rest = {"oracle": {"decay": output["decay"], "spectral": output["spectral"]},
                "stable_criteria": output["stable_criteria"]}
        fields = ("outcome", "claim", "window", "window_certified", "witnesses")
        verdicts = {v[0]: dict(zip(fields, v[1:])) for v in output["verdicts"]}
    return {"verdicts": verdicts, "fields": dict(_flatten(rest))}


def _flatten(value, path=()):
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _flatten(item, (*path, key))
    else:
        yield ".".join(path), value


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rel(got: float, want: float) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf
    return abs(got - want) / max(abs(got), abs(want))


def _field(name: str, where: tuple[str, str], got, want,
           close: Optional[Callable[[float, float], bool]]) -> list[Move]:
    if _number(got) and _number(want):
        rel = _rel(got, want)
        if rel == 0.0:
            return []
        moved = close is None or rel == math.inf or not close(got, want)
        return [Move(name, *where, f"{want!r} -> {got!r}", rel, moved)]
    if got == want:
        return []
    return [Move(name, *where, f"{want!r} -> {got!r}")]


def compare(got: dict, want: dict, where: str,
            close: Optional[Callable[[float, float], bool]] = None) -> list[Move]:
    """Every field of ``got`` that differs from golden ``want``; both are
    reports or both perfbench golden entries.  ``close`` (the gate's
    ``_close``) marks the numbers within tolerance as not moved; without it
    any change moves."""
    got, want = _entry(got), _entry(want)
    moves = []
    for criterion in sorted(got["verdicts"].keys() | want["verdicts"].keys()):
        mine, theirs = got["verdicts"].get(criterion), want["verdicts"].get(criterion)
        family, at = _family(criterion), (where, criterion)
        if mine is None or theirs is None:
            moves.append(Move(f"{family}.verdict", *at, "added" if theirs is None else "removed"))
            continue
        for key in sorted(mine.keys() | theirs.keys()):
            if key == "witnesses":
                for w in sorted(mine[key].keys() | theirs[key].keys()):
                    moves += _field(f"{family}.{w}", at, mine[key].get(w),
                                    theirs[key].get(w), close)
            else:
                moves += _field(f"{family}.{key}", at, mine.get(key), theirs.get(key), close)
    for path in sorted(got["fields"].keys() | want["fields"].keys()):
        moves += _field(path, (where, ""), got["fields"].get(path), want["fields"].get(path),
                        close)
    return moves


def compare_csv(got: bytes, want: bytes, name: str) -> list[Move]:
    if got == want:
        return []
    mine, theirs = got.decode().splitlines(), want.decode().splitlines()
    row = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
               min(len(mine), len(theirs)))
    a = mine[row] if row < len(mine) else "<none>"
    b = theirs[row] if row < len(theirs) else "<none>"
    return [Move(f"csv.{name}", name, "", f"row {row + 1}: {b!r} -> {a!r}")]


def _check(job: dict, directory: str) -> dict:
    path, out = os.path.join(directory, "job.json"), os.path.join(directory, "report.json")
    with open(path, "w") as fh:
        json.dump(job, fh)
    if cli.main(["check", path, "--no-meta", "--out", out]) != 0:
        raise RuntimeError(f"check failed on {job}")
    with open(out) as fh:
        return json.load(fh)


def collect(subset: bool = False) -> tuple[list[Move], dict[str, int]]:
    """(moves, outputs compared per source) for the goldens of the tree."""
    moves, counts = [], {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        names = [*test_golden.CONFIGS, *test_golden.CSV_COMMANDS]
        for name in names:
            got = test_golden._output(name, tmp)
            with open(test_golden._golden_path(name), "rb") as fh:
                want = fh.read()
            if name in test_golden.CSV_COMMANDS:
                moves += compare_csv(got, want, name)
            else:
                moves += compare(json.loads(got), json.loads(want), name)
        counts["tests/golden"] = len(names)
        for workload, size in SIZES.items():
            with gzip.open(PERFBENCH / "goldens" / f"{workload}.json.gz", "rt") as fh:
                goldens = json.load(fh)
            jobs = _jobs(workload) if subset else {
                gate.job_digest(item.args["job"]): item.args["job"]
                for item in getattr(corpus, workload)(corpus.DEFAULT_SEED, size)}
            for digest, job in jobs.items():
                where = f"{workload} {digest}"
                if digest not in goldens:
                    moves.append(Move("job.golden", where, "", "no golden"))
                    continue
                entry = gate.golden_entry(_check(job, tmp))
                moves += compare(entry, goldens[digest], where, gate._close)
            counts[workload] = len(jobs)
    return moves, counts


def refused(moves: list[Move], allow: list[str]) -> list[str]:
    """Names of moved fields that no pattern in ``allow`` matches."""
    return sorted({m.name for m in moves if m.moved
                   and not any(fnmatch.fnmatchcase(m.name, p) for p in allow)})


def summary(moves: list[Move], counts: dict[str, int], allow: list[str]) -> str:
    lines = ["compared " + ", ".join(f"{n} {source}" for source, n in counts.items())]
    moved = [m for m in moves if m.moved]
    numbers = defaultdict(list)
    for m in moved:
        if m.rel is not None:
            numbers[m.name].append(m.rel)
    if numbers:
        lines.append("moved numbers (name: count, largest relative move):")
        lines += [f"  {name}: {len(rels)}, {max(rels):.3g}"
                  for name, rels in sorted(numbers.items())]
    discrete = [m for m in moved if m.rel is None]
    if discrete:
        lines.append("changed fields:")
        lines += [f"  {' '.join(filter(None, (m.output, m.criterion)))}: {m.name} {m.detail}"
                  for m in discrete]
    drift = [m for m in moves if not m.moved]
    if drift:
        lines.append(f"within the gate's tolerance: {len(drift)} numbers in "
                     f"{len({m.output for m in drift})} jobs drift by at most "
                     f"{max(m.rel for m in drift):.3g} relative")
    names = refused(moves, allow)
    lines.append("not allowed: " + ", ".join(names) if names else
                 "every moved field is allowed" if moved else "no field moved")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allow", action="append", default=[], metavar="PATTERN",
                        help="a family.field pattern that may move")
    args = parser.parse_args(argv)
    moves, counts = collect()
    print(summary(moves, counts, args.allow))
    return 1 if refused(moves, args.allow) else 0


if __name__ == "__main__":
    sys.exit(main())
