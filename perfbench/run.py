#!/usr/bin/env python3
"""delaystab benchmark: end-to-end and per-layer performance with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each invocation is one fresh process running one workload as a
closed loop: one caller, no threads, the next item only after the previous
one returned.  Inputs are generated from ``--seed`` (see corpus.py) and
every output is checked (see gate.py).  The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.

Run length is fixed work, set from ``--seconds`` and the same on every
commit: the corpus size is the amount that took about that long on a
2-core machine at the commit that introduced the benchmark (check_general
rounds up to the three whole cycles its tail percentile needs).  Each item
is timed ``item.repeats`` times in rounds spread over the run (see
corpus.py), each time normalised for host speed (see hostspeed.py), and its
latency is the best of them; every execution is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a smaller
fixed corpus once plainly and once with every layer boundary wrapped by
tracing.py, and reports the per-layer metrics.  A full record of each run
(environment, per-stratum latencies, tail percentile, failures) is written
to ``perfbench/out/``.

Other modes:
  --self-test       run a workload with DELAYSTAB_LOOSEN_THRESHOLDS=1 in a
                    child process and pass only if the gate reports failures
  --capture-goldens record the default-seed check outputs as goldens
  --setup-probe     build the corpus and exit (used to time set-up)

With DELAYSTAB_LOOSEN_THRESHOLDS set, a run reports its failure count on
standard error and exits 3 without a result line.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens"

# the CPUs this process may use, before it pins itself to the first
CPUS = sorted(os.sched_getaffinity(0))
WORKLOADS = ("check_general", "check_periodic", "kernel_sums")
CHECK_WORKLOADS = ("check_general", "check_periodic")
LOOSEN = "DELAYSTAB_LOOSEN_THRESHOLDS"
SELF_TEST_EXIT = 3
SETUP_PROBES = 5
TAIL_BEYOND = 10

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def corpus_size(workload: str, seconds: float, traced: bool) -> int:
    """Cycles (general, kernel_sums) or equation pairs (periodic)."""
    if workload == "check_general":
        # one cycle is about 12 s; three cycles (27 items) are the fewest
        # that put ten samples beyond a percentile above the median
        return 1 if traced else max(3, round(seconds / 10))
    # a periodic pair costs about 0.13 s over its two rounds, and a kernel
    # cycle about 4.5 s over its three
    if workload == "check_periodic":
        return 50 if traced else max(20, round(8 * seconds))
    return 3 if traced else max(2, round(seconds / 6))


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    if not (SRC / "delaystab" / "__init__.py").is_file():
        fail(f"no delaystab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import delaystab

    if Path(delaystab.__file__).resolve().parent != SRC / "delaystab":
        fail(f"imported delaystab from {delaystab.__file__}, not from {SRC}")
    return delaystab


# ---------------------------------------------------------------------------
# Set-up: generate the corpus and hand the program its inputs


def prepare(workload: str, seed: int, size: int, workdir: Path) -> list:
    import corpus
    from delaystab.equation import InitialData
    from delaystab.fixtures import config_to_equation
    from delaystab.seqexpr import parse, periodic_table

    build = {"check_general": corpus.check_general, "check_periodic": corpus.check_periodic,
             "kernel_sums": corpus.kernel_sums}[workload]
    items = build(seed, size)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(items):
        args = item.args
        if "job" in args:
            # job files are written just before their item runs (see run_pass):
            # writing them all here made set-up time follow file-system noise
            args["path"] = str(workdir / f"job-{i}.json")
            args["out"] = str(workdir / f"out-{i}.{'json' if item.kind == 'check' else 'csv'}")
        if item.kind in ("cauchy_apply", "lemma6_sum", "pituk_sum"):
            args["eq"] = config_to_equation(args["job"])
            args["forcing_expr"] = parse(args["job"]["equation"]["forcing"])
        if item.kind == "representation_check":
            args["init"] = InitialData.from_values(0, args["history"])
            args["forcing_expr"] = periodic_table(args["forcing"])
    return items


# ---------------------------------------------------------------------------
# The closed loop


def write_job(item) -> None:
    if "job" in item.args:
        with open(item.args["path"], "w") as fh:
            json.dump(item.args["job"], fh)


def run_item(item):
    """(latency in seconds, output) of one call into the program."""
    from delaystab import cli, simulator

    a = item.args
    if item.kind == "check":
        argv = ["check", a["path"], "--no-meta", "--out", a["out"]]
    elif item.kind == "simulate_csv":
        argv = ["simulate", a["path"], "--N", str(a["N"]), "--csv", a["out"]]
    elif item.kind == "fundamental_csv":
        argv = ["fundamental", a["path"], "--k", "0", "--N", str(a["N"]), "--csv", a["out"]]
    else:
        argv = None
    # module attributes are looked up per call so traced wrappers apply
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if argv is not None:
                output = cli.main(argv)
            elif item.kind == "cauchy_apply":
                output = simulator.cauchy_apply(a["eq"], a["forcing_expr"], 0, a["N"])
            elif item.kind == "lemma6_sum":
                output = simulator.lemma6_sum(a["eq"], 0, a["N"])
            elif item.kind == "pituk_sum":
                output = simulator.pituk_sum(a["eq"], 0, a["N"])
            else:
                output = simulator.representation_check(a["eq"], a["init"],
                                                        a["forcing_expr"], a["N"])
        finally:
            latency = time.perf_counter() - t0
    return latency, output


def verify(item, output, goldens: dict) -> list:
    import gate

    if item.kind == "check":
        if output != 0:
            return [f"check exited {output}"]
        with open(item.args["out"]) as fh:
            report = json.load(fh)
        return gate.check_report(report, goldens.get(gate.job_digest(item.args["job"])))
    if item.kind in ("simulate_csv", "fundamental_csv"):
        if output != 0:
            return [f"{item.kind} exited {output}"]
        return gate.check_kernel_item(item.kind, item.args, item.args["out"])
    return gate.check_kernel_item(item.kind, item.args, output)


def run_pass(items, goldens: dict, tracer=None, speed=None):
    """Run every item once, or ``item.repeats`` times when ``speed`` is given.

    Repeats run in rounds over the whole corpus, so the timings of one item
    are spread over the run rather than taken back to back.  With ``speed``
    (a hostspeed.SpeedLog) calibrations are taken between items and each
    latency is normalised by the slowdown around it.  Returns (best latency
    of each timed item, best raw wall latency of each, items timed, failed
    items, executions).
    """
    samples = []
    failures: dict = {}
    rounds = max(item.repeats for item in items) if speed is not None else 1
    for round_ in range(rounds):
        for index, item in enumerate(items):
            if round_ >= (item.repeats if speed is not None else 1):
                continue
            if tracer is not None:
                tracer.item = index
            if speed is not None:
                speed.due()
            try:
                write_job(item)
                start = time.perf_counter()
                latency, output = run_item(item)
                samples.append((index, start, latency))
                problems = verify(item, output, goldens)
            except Exception as exc:  # an item that raises is a failed item; keep going
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems and index not in failures:
                failures[index] = {"item": item.name, "round": round_, "problems": problems[:5]}
    if speed is not None:
        speed.sample()
    best: dict = {}
    raw: dict = {}
    for index, start, latency in samples:
        scale = speed.slowdown(start, start + latency) if speed is not None else 1.0
        best[index] = min(latency / scale, best.get(index, float("inf")))
        raw[index] = min(latency, raw.get(index, float("inf")))
    timed = sorted(best)
    return ([best[i] for i in timed], [raw[i] for i in timed], [items[i] for i in timed],
            list(failures.values()), len(samples))


# ---------------------------------------------------------------------------
# Metrics and records


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def setup_probes(workload: str, seed: int, seconds: float, speed) -> tuple:
    """Time from spawning a fresh interpreter until it has imported the
    program and built the corpus, SETUP_PROBES times: (normalised, raw)
    seconds.  The children inherit this process's CPU, so the calibrations
    around each probe see the core it ran on."""
    normalised, raw = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                fail(f"set-up probe failed (exit {child.returncode})", 1)
        speed.sample()
        raw.append(ready - t0)
        normalised.append(raw[-1] / speed.slowdown(t0, ready))
    return normalised, raw


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, seconds: float, items: list) -> dict:
    import numpy

    import delaystab

    digest = hashlib.sha256()
    for path in sorted((SRC / "delaystab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    strata: dict = {}
    for item in items:
        strata[item.stratum] = strata.get(item.stratum, 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(delaystab.NUMBA_ENABLED),
        "DELAYSTAB_NUMBA": os.environ.get("DELAYSTAB_NUMBA"),
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[0],
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "corpus_items": len(items),
        "corpus_strata": strata,
        "corpus_sizes": {w: corpus_size(w, seconds, False) for w in WORKLOADS},
    }


def by_stratum(latencies: list, timed: list) -> dict:
    groups: dict = {}
    for latency, item in zip(latencies, timed):
        groups.setdefault(item.stratum, []).append(latency)
    return {s: {"count": len(v), "median_ms": 1000 * statistics.median(v)}
            for s, v in sorted(groups.items())}



def load_goldens(workload: str) -> dict:
    path = GOLDENS / f"{workload}.json.gz"
    if workload not in CHECK_WORKLOADS or not path.is_file():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def publish(record: dict, path: Path, metrics: dict, units: dict, attempted: int,
            failed: int) -> None:
    OUT.mkdir(exist_ok=True)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


# ---------------------------------------------------------------------------
# Modes


def refuse_if_loosened(args, attempted: int, failures: list) -> None:
    """With the threshold-corrupting hook set, report the gate's failures
    and exit without a result: such numbers are never published."""
    if not os.environ.get(LOOSEN):
        return
    print(f"self-test: workload={args.workload} seed={args.seed} attempted={attempted} "
          f"failed={len(failures)} failed_ratio={len(failures) / attempted:.4f}", file=sys.stderr)
    for f in failures[:5]:
        print(f"self-test: {f}", file=sys.stderr)
    sys.exit(SELF_TEST_EXIT)


def latency_metrics(latencies: list) -> dict:
    tail_s, _, _ = tail(latencies)
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
    }


def end_to_end(args, workdir: Path) -> None:
    import hostspeed

    size = corpus_size(args.workload, args.seconds, False)
    items = prepare(args.workload, args.seed, size, workdir)
    first_item = time.perf_counter()
    goldens = load_goldens(args.workload)
    speed = hostspeed.SpeedLog()
    latencies, raw, timed, failures, executions = run_pass(items, goldens, speed=speed)
    loop_s = time.perf_counter() - first_item
    loop_speed = speed.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(items), len(failures)
    refuse_if_loosened(args, attempted, failures)
    probes, raw_probes = setup_probes(args.workload, args.seed, args.seconds,
                                      hostspeed.SpeedLog())
    _, tail_pct, beyond = tail(latencies)
    metrics = {"setup_s": statistics.median(probes), **latency_metrics(latencies),
               "peak_rss_mb": peak_rss_mb}
    record = {
        "env": environment(args.workload, args.seed, args.seconds, items),
        "load": "closed loop, one caller, one item at a time",
        "failed_ratio": failed / attempted,
        "failures": failures,
        "executions": executions,
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "busy_s": sum(latencies),
        "loop_s": loop_s,
        "host_speed": loop_speed,
        "raw_wall": {"setup_s": statistics.median(raw_probes), **latency_metrics(raw)},
        "own_setup_s": first_item - START,
        "setup_probe_s": probes,
        "setup_probe_raw_s": raw_probes,
        "strata": by_stratum(latencies, timed),
    }
    publish(record, OUT / f"result-{args.workload}-seed{args.seed}-trace0.json", metrics,
            {name: unit for name, unit, _ in END_TO_END}, attempted, failed)


def per_layer(args, workdir: Path) -> None:
    import tracing

    size = corpus_size(args.workload, args.seconds, True)
    items = prepare(args.workload, args.seed, size, workdir)
    goldens = load_goldens(args.workload)
    plain, _, _, failures, _ = run_pass(items, goldens)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced, _, _, traced_failures, _ = run_pass(items, goldens, tracer)
    finally:
        tracer.unpatch()
    failures += traced_failures
    refuse_if_loosened(args, 2 * len(items), failures)
    overhead = sum(traced) / sum(plain) - 1.0
    metrics = tracing.per_layer_metrics(tracer, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(str(spans_path))
    record = {
        "env": environment(args.workload, args.seed, args.seconds, items),
        "failures": failures,
        "plain_busy_s": sum(plain),
        "traced_busy_s": sum(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "computed_from_array_sizes": ["kernels.*.ops", "kernels.*.bytes"],
    }
    publish(record, OUT / f"result-{args.workload}-seed{args.seed}-trace1.json", metrics,
            {name: unit for name, unit, _ in tracing.PER_LAYER}, 2 * len(items), len(failures))


def self_test(args) -> None:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(argv, env={**os.environ, LOOSEN: "1"}, capture_output=True,
                           text=True, timeout=170)
    lines = [ln for ln in child.stderr.splitlines() if ln.startswith("self-test: workload=")]
    fields = dict(kv.split("=") for kv in lines[0].split()[1:]) if lines else {}
    failed = int(fields.get("failed", 0))
    ok = child.returncode == SELF_TEST_EXIT and failed > 0
    sys.stderr.write(child.stderr)
    print(json.dumps({"self_test": "pass" if ok else "FAIL", "exit": child.returncode, **fields}))
    sys.exit(0 if ok else 1)


def capture_goldens(args, workdir: Path) -> None:
    import corpus
    import gate

    if args.workload not in CHECK_WORKLOADS:
        fail("goldens exist only for the check workloads")
    items = prepare(args.workload, corpus.DEFAULT_SEED,
                    corpus_size(args.workload, args.seconds, False), workdir)
    goldens = {}
    for item in items:
        write_job(item)
        _, output = run_item(item)
        problems = verify(item, output, {})
        if problems:
            fail(f"{item.name} fails the gate, not recording goldens: {problems}", 1)
        with open(item.args["out"]) as fh:
            goldens[gate.job_digest(item.args["job"])] = gate.golden_entry(json.load(fh))
    GOLDENS.mkdir(exist_ok=True)
    # gzip with a fixed mtime, so the same goldens give the same bytes
    with open(GOLDENS / f"{args.workload}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(goldens, sort_keys=True, indent=0).encode())
    print(f"recorded {len(goldens)} goldens for {len(items)} items")


def main() -> None:
    import corpus
    import hostspeed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--capture-goldens", action="store_true")
    mode.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test(args)
    if args.capture_goldens and os.environ.get(LOOSEN):
        fail(f"refusing to record goldens with {LOOSEN} set")

    import_program()
    hostspeed.pin_to_one_cpu()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed,
                    corpus_size(args.workload, args.seconds, False), workdir)
            print("ready", flush=True)
        elif args.capture_goldens:
            capture_goldens(args, workdir)
        elif args.trace:
            per_layer(args, workdir)
        else:
            end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
