"""Correctness gate: every item's output is checked before it counts.

Check reports must be internally consistent and sound against the oracles
on any seed; on items that have a golden (every item of the default seed,
and the fixtures on every seed) they must also match it.  Kernel outputs
are compared with an independent NumPy/Python computation made here from
the generator's own coefficient parameters.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from corpus import TermSpec

# Witnesses and oracle numbers may move in the last digits when a change
# reorders float sums (vectorised strip sums, kernel sums as simulations);
# discrete parts of a verdict must match exactly.
GOLDEN_REL_TOL = 1e-9
GOLDEN_ABS_TOL = 1e-12
# Kernel outputs against the reference recurrence, relative to max(1, |ref|).
KERNEL_REL_TOL = 1e-9
REPRESENTATION_TOL = 1e-9

STABILITY_CLAIMS = ("exponentially stable", "asymptotically stable")


def job_digest(job: dict) -> str:
    return hashlib.sha256(json.dumps(job, sort_keys=True).encode()).hexdigest()[:20]


def golden_entry(report: dict) -> dict:
    """The parts of a check report a golden pins."""
    spectral = report["oracle"]["spectral"]
    return {
        "verdicts": [[v["criterion"], v["outcome"], v["claim"], v["window"],
                      v["window_certified"], v["witnesses"]] for v in report["verdicts"]],
        "stable_criteria": report["stable_criteria"],
        "decay": report["oracle"]["decay"],
        "spectral": None if spectral is None else
        {"radius": spectral["radius"], "dimension": spectral["dimension"]},
    }


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= max(GOLDEN_REL_TOL * max(abs(got), abs(want)), GOLDEN_ABS_TOL)


def _compare_numbers(got: dict, want: dict, where: str) -> list[str]:
    if sorted(got) != sorted(want):
        return [f"{where}: keys {sorted(got)} != golden {sorted(want)}"]
    problems = []
    for key, value in want.items():
        if isinstance(value, list):
            if got[key] != value:
                problems.append(f"{where}.{key}: {got[key]} != golden {value}")
        elif not _close(got[key], value):
            problems.append(f"{where}.{key}: {got[key]!r} != golden {value!r}")
    return problems


def _discrete(entry: dict) -> list:
    """Criterion, outcome, claim, window and certification of each verdict."""
    return [v[:5] for v in entry["verdicts"]]


def compare_golden(report: dict, golden: dict) -> list[str]:
    got = golden_entry(report)
    if _discrete(got) != _discrete(golden):
        return ["verdict criteria/outcomes differ from golden"]
    if got["stable_criteria"] != golden["stable_criteria"]:
        return [f"stable_criteria {got['stable_criteria']} != golden {golden['stable_criteria']}"]
    problems = []
    for mine, theirs in zip(got["verdicts"], golden["verdicts"]):
        problems += _compare_numbers(mine[5], theirs[5], f"{mine[0]}.witnesses")
    problems += _compare_numbers(got["decay"], golden["decay"], "oracle.decay")
    if (got["spectral"] is None) != (golden["spectral"] is None):
        problems.append("oracle.spectral presence differs from golden")
    elif got["spectral"] is not None:
        if got["spectral"]["dimension"] != golden["spectral"]["dimension"]:
            problems.append("oracle.spectral.dimension differs from golden")
        if not _close(got["spectral"]["radius"], golden["spectral"]["radius"]):
            problems.append(f"oracle.spectral.radius {got['spectral']['radius']!r} != "
                            f"golden {golden['spectral']['radius']!r}")
    return problems


def check_report(report: dict, golden: Optional[dict]) -> list[str]:
    """Problems with one `check --no-meta` report; empty when it passes."""
    for key in ("verdicts", "stable_criteria", "oracle"):
        if key not in report:
            return [f"report lacks {key!r}"]
    problems = []
    claimed = [v["criterion"] for v in report["verdicts"]
               if v["outcome"] == "Stable" and v["claim"] in STABILITY_CLAIMS]
    if claimed != report["stable_criteria"]:
        problems.append(f"stable_criteria {report['stable_criteria']} != Stable claims {claimed}")
    if claimed:
        mu_hat = report["oracle"]["decay"]["mu_hat"]
        spectral = report["oracle"]["spectral"]
        if mu_hat is None or mu_hat >= 1.0:
            problems.append(f"Stable verdicts {claimed} with fitted mu_hat {mu_hat}")
        if spectral is not None and spectral["radius"] >= 1.0:
            problems.append(f"Stable verdicts {claimed} with companion radius {spectral['radius']}")
    if golden is not None:
        problems += compare_golden(report, golden)
    return problems


# ---------------------------------------------------------------------------
# Kernel references, independent of the program's evaluator and kernels


def reference_trajectory(specs: list[TermSpec], forcing: Optional[np.ndarray],
                         history: list[float], n0: int, N: int) -> np.ndarray:
    """x(n0..N) of x(n+1) = x(n) - sum_l a_l(n) x(n - d_l(n)) + f(n).

    ``history`` holds x(n0 - T .. n0) with T the largest lag.
    """
    T = len(history) - 1
    steps = N - n0
    coeffs = [spec.values(n0, N - 1).tolist() for spec in specs]
    lags = [spec.lags(n0, N - 1).tolist() for spec in specs]
    f = forcing.tolist() if forcing is not None else [0.0] * steps
    x = list(history) + [0.0] * steps
    for i in range(steps):
        acc = x[T + i]
        for a, d in zip(coeffs, lags):
            acc -= a[i] * x[T + i - d[i]]
        x[T + i + 1] = acc + f[i]
    return np.array(x[T:])


def zero_start(specs: list[TermSpec]) -> list[float]:
    """Zero history covering [-T, 0] for the equation's largest lag T."""
    T = max(max(spec.lag) if isinstance(spec.lag, list) else spec.lag for spec in specs)
    return [0.0] * (T + 1)


def reference_kernel(specs: list[TermSpec], n0: int, N: int) -> np.ndarray:
    """Dense X(n, k) on [n0, N]^2 by advancing every column a row at a time."""
    size = N - n0 + 1
    coeffs = np.stack([spec.values(n0, N - 1) for spec in specs])
    lags = np.stack([spec.lags(n0, N - 1) for spec in specs])
    table = np.eye(size)
    for i in range(size - 1):
        # rows above the diagonal are zero, so X(h, k) = 0 for h < k holds
        row = table[i].copy()
        for a, d in zip(coeffs[:, i], lags[:, i]):
            if i - d >= 0:
                row -= a * table[i - d]
        table[i + 1, : i + 1] = row[: i + 1]
    return table


def compare_arrays(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != reference {want.shape}"]
    if not np.isfinite(got).all():
        return [f"{what}: non-finite values"]
    err = float(np.abs(got - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    if not err <= KERNEL_REL_TOL * scale:
        return [f"{what}: max deviation {err:.3g} from reference (scale {scale:.3g})"]
    return []


def read_csv(path: str, columns: int) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != columns:
            raise ValueError(f"{path}: header {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_kernel_item(kind: str, args: dict, output) -> list[str]:
    """Problems with one kernel_sums output; empty when it passes."""
    if kind == "representation_check":
        if not (isinstance(output, float) and output < REPRESENTATION_TOL):
            return [f"representation residual {output!r} not below {REPRESENTATION_TOL}"]
        return []
    specs, N = args["specs"], args["N"]
    forcing = args["forcing"].values(0, N - 1)
    zeros = zero_start(specs)
    if kind == "simulate_csv":
        table = read_csv(output, 2)
        history = zeros[:-1] + [1.0]
        want = reference_trajectory(specs, forcing, history, 0, N)
        problems = [] if np.array_equal(table[:, 0], np.arange(N + 1)) else ["bad n column"]
        return problems + compare_arrays(table[:, 1], want, "simulate")
    if kind == "fundamental_csv":
        table = read_csv(output, 3)
        want = reference_trajectory(specs, None, zeros[:-1] + [1.0], 0, N)
        problems = compare_arrays(table[:, 1], want, "fundamental")
        if not (np.abs(table[:, 1]) <= table[:, 2] * (1 + 1e-12)).all():
            problems.append("fundamental: |X(n, k)| exceeds its product bound")
        return problems
    if kind == "cauchy_apply":
        want = reference_trajectory(specs, forcing, zeros, 0, N)
        return compare_arrays(np.asarray(output.values), want, "cauchy_apply")
    if kind == "lemma6_sum":
        aggregate = np.sum([spec.values(0, N - 1) for spec in specs], axis=0)
        want = reference_trajectory(specs, aggregate, zeros, 0, N)
        return compare_arrays(np.asarray(output), want, "lemma6_sum")
    if kind == "pituk_sum":
        table = np.abs(reference_kernel(specs, 0, N))
        want = np.array([table[n, 1:n + 1].sum() for n in range(N + 1)])
        return compare_arrays(np.asarray(output), want, "pituk_sum")
    return [f"unknown kind {kind}"]
