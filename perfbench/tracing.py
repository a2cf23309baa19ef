"""In-memory span tracer for the per-layer run.

The program is not edited: each traced public function is replaced, for
the traced pass only, by a wrapper that records a span (name, start, end,
parent span, item) and per-name call counts and self time.  A name bound
with ``from .x import f`` is replaced in every delaystab namespace that
holds the same function object; ``_kernels`` entry points are replaced on
their module only, and ``Equation.coeff_table`` on the class.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pkgutil
import time

import numpy as np

CHECK_FAMILIES = ("lemma4", "theorem1", "corollary2", "corollary3", "theorem2",
                  "corollary4", "corollary6", "corollary7", "corollary8", "classical")
SIMULATOR = ("simulate", "kernel", "lemma6_sum", "pituk_sum", "cauchy_apply",
             "representation_check")
KERNELS = ("step_recurrence", "kernel_table", "weighted_kernel_sums")
ROUTES = ("lemma4", "autonomous_bound", "corollary3_characteristic", "numerical_scan",
          "refuted")

# (name, unit, better); the order is the order of the printed metrics.
PER_LAYER = (
    [("limits.windowed_delayed_sum.calls", "count", "lower"),
     ("limits.windowed_delayed_sum.self_s", "s", "lower"),
     ("limits.limsup_product.self_s", "s", "lower"),
     ("limits.aggregate_period.calls", "count", "lower"),
     ("seqexpr.eval_range.calls", "count", "lower"),
     ("seqexpr.eval_range.points", "count", "lower"),
     ("seqexpr.eval_range.self_s", "s", "lower"),
     ("seqexpr.classify.calls", "count", "lower"),
     ("seqexpr.classify.self_s", "s", "lower"),
     ("equation.coeff_table.calls", "count", "lower"),
     ("equation.coeff_table.self_s", "s", "lower"),
     ("equation.merge_same_delay.calls", "count", "lower"),
     ("criteria.certify_positivity.calls", "count", "lower"),
     ("criteria.certify_positivity.self_s", "s", "lower"),
     ("criteria.certify_positivity.unique_ratio", "ratio", "higher"),
     ("criteria.positivity_scan.calls", "count", "lower"),
     ("criteria.positivity_scan.self_s", "s", "lower")]
    + [(f"criteria.positivity.route.{r}", "count",
        "lower" if r == "numerical_scan" else "higher") for r in ROUTES]
    + [(f"criteria.{f}.self_s", "s", "lower") for f in CHECK_FAMILIES]
    + [("criteria.theorem2.subsets", "count", "lower")]
    + [(f"simulator.{f}.{k}", unit, "lower") for f in SIMULATOR
       for k, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"kernels.{f}.{k}", unit, "lower") for f in KERNELS
       for k, unit in (("self_s", "s"), ("ops", "count"), ("bytes", "bytes"))]
    + [("oracle.companion_radius.calls", "count", "lower"),
       ("oracle.companion_radius.self_s", "s", "lower"),
       ("oracle.fit_decay.self_s", "s", "lower"),
       ("cli.load_s", "s", "lower"),
       ("cli.emit_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, item, name, start, end)
        self.calls = collections.Counter()
        self.total_s = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.positivity_keys: set = set()
        self.item = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            span = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[span] = (span, parent, tracer.item, name, start, end)
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None, everywhere: bool = True):
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, observe)
        holders = _delaystab_modules() if everywhere else [owner]
        if owner not in holders:
            holders.append(owner)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original and (everywhere or key == attr):
                    setattr(holder, key, wrapped)
                    self._undo.append((holder, key, original))

    def unpatch(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "item", "name", "start", "end"],
                       "spans": self.spans}, fh)


def _delaystab_modules() -> list:
    package = importlib.import_module("delaystab")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"delaystab.{info.name}"))
    return modules


# ---------------------------------------------------------------------------
# Observers: counts taken at the same boundaries as the spans


def _eval_points(tracer, args, kwargs, result):
    tracer.counts["seqexpr.eval_range.points"] += len(result)


def _positivity(tracer, args, kwargs, result):
    eq = args[0] if args else kwargs["eq"]
    options = args[1] if len(args) > 1 else kwargs.get("options")
    # identity of the merged equation certify_positivity works on: terms
    # grouped by lag table in first-seen order, plus the validation window
    groups: dict = {}
    for t in eq.terms:
        groups.setdefault(t.delay.lags, []).append(str(t.coeff))
    key = (tuple((lags, tuple(c)) for lags, c in groups.items()),
           eq.validation_window, options)
    tracer.positivity_keys.add(key)
    route = getattr(result, "by", "refuted")
    tracer.counts[f"criteria.positivity.route.{route}"] += 1


def _int_bytes(*arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


def _step_cost(tracer, args, kwargs, result):
    coeffs, lags, forcing, x, _, steps = args
    tracer.counts["kernels.step_recurrence.ops"] += int(coeffs.shape[0]) * int(steps)
    tracer.counts["kernels.step_recurrence.bytes"] += _int_bytes(coeffs, lags, forcing, x)


def _table_cost(tracer, args, kwargs, result):
    coeffs, lags, size = args
    if size > 1:
        rows = np.arange(size - 1)
        live = (rows - lags[:, : size - 1]) >= 0
        tracer.counts["kernels.kernel_table.ops"] += int((live * (rows + 1)).sum())
    tracer.counts["kernels.kernel_table.bytes"] += _int_bytes(coeffs, lags, result)


def _weighted_cost(tracer, args, kwargs, result):
    coeffs, lags, weights, _ = args
    size = len(weights) + 1
    m = int(coeffs.shape[0])
    # column k runs the recurrence over [k, size-2] and accumulates [k, size-1]
    inner = m * (size - 2) * (size - 1) // 2
    accumulate = size * (size - 1) // 2
    tracer.counts["kernels.weighted_kernel_sums.ops"] += inner + accumulate
    tracer.counts["kernels.weighted_kernel_sums.bytes"] += _int_bytes(coeffs, lags, weights,
                                                                       result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from delaystab import _kernels, cli, criteria, equation, limits, oracle, seqexpr, simulator
    from delaystab import fixtures

    for attr in ("windowed_delayed_sum", "limsup_product", "aggregate_period"):
        tracer.patch(limits, attr, f"limits.{attr}")
    tracer.patch(seqexpr, "eval_range", "seqexpr.eval_range", _eval_points)
    tracer.patch(seqexpr, "classify", "seqexpr.classify")
    tracer.patch(equation.Equation, "coeff_table", "equation.coeff_table", everywhere=False)
    tracer.patch(equation, "merge_same_delay", "equation.merge_same_delay")
    tracer.patch(criteria, "certify_positivity", "criteria.certify_positivity", _positivity)
    tracer.patch(criteria, "positivity_scan", "criteria.positivity_scan")
    for family in CHECK_FAMILIES:
        tracer.patch(criteria, f"check_{family}", f"criteria.{family}")
    for attr in SIMULATOR:
        tracer.patch(simulator, attr, f"simulator.{attr}")
    observers = {"step_recurrence": _step_cost, "kernel_table": _table_cost,
                 "weighted_kernel_sums": _weighted_cost}
    for attr in KERNELS:
        tracer.patch(_kernels, attr, f"kernels.{attr}", observers[attr], everywhere=False)
    tracer.patch(oracle, "companion_radius", "oracle.companion_radius")
    tracer.patch(oracle, "fit_decay", "oracle.fit_decay")
    tracer.patch(cli, "_load_config", "cli._load_config")
    tracer.patch(fixtures, "config_to_equation", "cli.config_to_equation")
    tracer.patch(cli, "_dump", "cli._dump")
    tracer.patch(cli, "_atomic_write", "cli._atomic_write")
    tracer.patch(simulator, "write_trajectory_csv", "cli.write_trajectory_csv")


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric from one traced pass."""
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls[layer]
        elif stat == "self_s":
            values[name] = tracer.self_s[layer]
        else:
            values[name] = tracer.counts[name]
    calls = tracer.calls["criteria.certify_positivity"]
    values["criteria.certify_positivity.unique_ratio"] = (
        len(tracer.positivity_keys) / calls if calls else 0.0)
    values["criteria.theorem2.subsets"] = tracer.calls["criteria.theorem2"]
    values["cli.load_s"] = (tracer.total_s["cli._load_config"]
                            + tracer.total_s["cli.config_to_equation"])
    values["cli.emit_s"] = (tracer.total_s["cli._dump"] + tracer.total_s["cli._atomic_write"]
                            + tracer.total_s["cli.write_trajectory_csv"])
    values["trace.overhead_ratio"] = overhead_ratio
    return values
