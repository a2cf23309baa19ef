"""The benchmark's own correctness gate, run in tier 1 on the default-seed
check corpora: a `check --no-meta` report that drifts from
``perfbench/goldens`` fails here, not only in a benchmark run.

The jobs come from ``perfbench/corpus.py`` at the sizes ``perfbench/run.py``
builds for a 30 s run: every ``check_general`` job, and the periodic
fixtures plus every third ``check_periodic`` job of each stratum and cost
cell.  The test only reads ``perfbench/``.
"""

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

import pytest

from delaystab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# import perfbench's modules without writing a bytecode cache next to them,
# and take perfbench off the path again, so no later import finds its scripts
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402
import gate  # noqa: E402

sys.path.remove(str(PERFBENCH))
sys.dont_write_bytecode = _dont_write

# corpus sizes perfbench/run.py builds for --seconds 30
SIZES = {"check_general": 3, "check_periodic": 240}


def _jobs(workload: str) -> dict:
    """The workload's default-seed jobs to check, by digest."""
    items = getattr(corpus, workload)(corpus.DEFAULT_SEED, SIZES[workload])
    if workload == "check_periodic":
        # every third item of each stratum and cost cell; a fixture is a cell of its own
        cells = {}
        for item in items:
            key = (item.name if item.stratum.startswith("fixture:")
                   else (item.stratum, corpus.cost_cell(item.args["job"])))
            cells.setdefault(key, []).append(item)
        items = [item for cell in cells.values() for item in cell[::3]]
    return {gate.job_digest(item.args["job"]): item.args["job"] for item in items}


@pytest.mark.parametrize("workload", list(SIZES))
def test_check_reports_pass_the_benchmark_gate(workload, tmp_path):
    with gzip.open(PERFBENCH / "goldens" / f"{workload}.json.gz", "rt") as fh:
        goldens = json.load(fh)
    jobs = _jobs(workload)
    assert jobs and set(jobs) <= set(goldens)
    job_path, out = tmp_path / "job.json", tmp_path / "report.json"
    problems = {}
    for digest, job in jobs.items():
        job_path.write_text(json.dumps(job))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(job_path), "--no-meta", "--out", str(out)]) == 0, digest
        found = gate.check_report(json.loads(out.read_text()), goldens[digest])
        if found:
            problems[digest] = found
    assert problems == {}
