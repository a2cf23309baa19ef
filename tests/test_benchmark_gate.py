"""The benchmark's own correctness gate, run in tier 1 on the default-seed
check corpora: a `check --no-meta` report that drifts from
``perfbench/goldens`` fails here, not only in a benchmark run.  One
default-seed ``kernel_sums`` cycle passes the gate's kernel checks too,
each output recomputed from the corpus' own parameters.

The tracer's test runs one fixture through every entry point
``perfbench/tracing.py`` wraps, so a rename or a signature change in the
program that would break ``run.py --trace 1`` fails in tier 1 too.

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

from delaystab import cli, simulator
from delaystab.equation import InitialData
from delaystab.fixtures import config_to_equation
from delaystab.seqexpr import parse, periodic_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# import perfbench's modules without writing a bytecode cache next to them,
# and take perfbench off the path again, so no later import finds its scripts
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402

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


def test_kernel_sums_pass_the_benchmark_gate(tmp_path):
    # one cycle, each output as perfbench/run.py makes it: the CSVs through
    # the CLI, the sums and the representation residual in-process
    items = corpus.kernel_sums(corpus.DEFAULT_SEED, 1)
    assert sorted({item.kind for item in items}) == sorted(
        {kind for kind, _, _ in corpus.KERNEL_CYCLE})
    problems = {}
    for i, item in enumerate(items):
        a = item.args
        if item.kind in ("simulate_csv", "fundamental_csv"):
            path, output = tmp_path / f"job-{i}.json", str(tmp_path / f"out-{i}.csv")
            path.write_text(json.dumps(a["job"]))
            argv = (["simulate", str(path), "--N", str(a["N"])] if item.kind == "simulate_csv"
                    else ["fundamental", str(path), "--k", "0", "--N", str(a["N"])])
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--csv", output]) == 0, item.name
        elif item.kind == "representation_check":
            output = simulator.representation_check(
                a["eq"], InitialData.from_values(0, a["history"]),
                periodic_table(a["forcing"]), a["N"])
        else:
            eq = config_to_equation(a["job"])
            if item.kind == "cauchy_apply":
                output = simulator.cauchy_apply(eq, parse(a["job"]["equation"]["forcing"]),
                                                0, a["N"])
            else:
                output = getattr(simulator, item.kind)(eq, 0, a["N"])
        found = gate.check_kernel_item(item.kind, a, output)
        if found:
            problems[item.name] = found
    assert problems == {}


def test_tracer_wraps_every_layer_and_restores_it(tmp_path):
    job = corpus.fixture_job("alternating_two_delay")
    path, out = tmp_path / "job.json", tmp_path / "out"
    path.write_text(json.dumps(job))
    eq, f = config_to_equation(job), parse("sin(n)")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._undo)
    try:
        assert all(getattr(holder, key) is not fn for holder, key, fn in patched)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["check", str(path), "--no-meta", "--out", str(out)],
                         ["simulate", str(path), "--N", "40", "--csv", str(out)],
                         ["fundamental", str(path), "--k", "0", "--N", "40", "--csv", str(out)]):
                assert cli.main(argv) == 0, argv
        simulator.representation_check(eq, InitialData.from_values(0, [0.5] * (eq.T + 1)),
                                       f, 40)
        simulator.cauchy_apply(eq, f, 0, 40)
        simulator.lemma6_sum(eq, 0, 40)
        simulator.pituk_sum(eq, 0, 40)
        simulator.kernel(eq, 0, 40)
    finally:
        tracer.unpatch()
    assert all(getattr(holder, key) is fn for holder, key, fn in patched)
    metrics = tracing.per_layer_metrics(tracer, 0.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    # every simulator entry point was traced, and each kernel's observer
    # read the arguments it unpacks
    assert all(metrics[f"simulator.{name}.calls"] > 0 for name in tracing.SIMULATOR)
    assert all(metrics[f"kernels.{name}.ops"] > 0 for name in tracing.KERNELS)
    # the check read its coefficients' periods through both traced layers
    assert metrics["seqexpr.classify.calls"] > 0
    assert metrics["limits.aggregate_period.calls"] > 0
