"""Config-driven command line: simulate equations, run the stability
checkers and oracles, replay the built-in fixtures, and fuzz the checkers
against ground truth.

Configs are a single JSON document:

    {
      "schema": 1,
      "equation": {
        "terms": [{"coeff": "0.2 + 0.05*sin(n)", "lag": 1},
                  {"coeff": "0.1*abs(cos(n))", "lag": 20}],
        "forcing": null
      },
      "horizon": 2000,
      "window": [0, 1000],
      "checks": "all"
    }

Exit codes: 0 success, 1 expectation or property failure, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .criteria import run_all, stable_verdicts
from .equation import Equation, InitialData
from .fixtures import config_to_equation, fixture_names, run_fixture
from .oracle import (
    autonomous_coefficients,
    companion_from_equation,
    fit_decay,
    random_equation,
    tail_equivalence_test,
)
from .seqexpr import SeqEvalError, SeqSyntaxError
from .simulator import (
    format_csv,
    fundamental,
    product_bound,
    representation_check,
    simulate,
    write_atomic,
    write_trajectory_csv,
)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _atomic_write(path: str, data: str) -> None:
    # the CLI's own writes (reports, fundamental columns); simulate's CSV goes
    # through write_trajectory_csv, which perfbench times apart, so no write
    # is timed twice
    write_atomic(path, data)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if config.get("schema") != 1:
        raise ValueError("config must declare \"schema\": 1")
    return config


def _equation_echo(eq: Equation) -> dict:
    terms = []
    for t in eq.terms:
        lag = t.delay.lags[0] if len(t.delay.lags) == 1 else list(t.delay.lags)
        terms.append({"coeff": str(t.coeff), "lag": lag})
    return {"terms": terms,
            "forcing": str(eq.forcing) if eq.forcing is not None else None}


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require_finite(n0: int, *columns: np.ndarray) -> None:
    """Refuse to emit overflowed output: name the first non-finite index."""
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    if not finite.all():
        n = n0 + int(np.argmin(finite))
        raise ValueError(f"output at n = {n} is not finite (overflow); lower the horizon")


def _is_int(value) -> bool:
    # JSON true and false load as bools, which isinstance counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def _window_from(args, config: dict) -> Optional[tuple[int, int]]:
    if args.window is not None:
        return (args.window[0], args.window[1])
    w = config.get("window")
    if w is None:
        return None
    if not (isinstance(w, list) and len(w) == 2 and all(map(_is_int, w))):
        raise ValueError(f"window {json.dumps(w)} must be a list of two integers [N0, N1]")
    return (w[0], w[1])


def _horizon_from(config: dict, default: int) -> int:
    horizon = config.get("horizon", default)
    if not _is_int(horizon):
        raise ValueError(f"horizon {json.dumps(horizon)} must be an integer")
    return horizon


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    config = _load_config(args.config)
    eq = config_to_equation(config)
    window = _window_from(args, config)
    checks = config.get("checks", "all")
    if checks != "all" and not isinstance(checks, list):
        raise ValueError("checks must be \"all\" or a list of family names")
    horizon = _horizon_from(config, 1000)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    verdicts = run_all(eq, window, None if checks == "all" else checks)

    # fit_decay needs 50 points past the skip; a column on [0, N] has N + 1
    skip = max(5 * eq.T, 20)
    # fit_decay drops the non-finite tail of an overflowed column
    with np.errstate(over="ignore", invalid="ignore"):
        column = fundamental(eq, 0, max(horizon, skip + 49))
        fit = fit_decay(column, skip)
    oracle_block = {
        "decay": {
            "mu_hat": fit.mu_hat,
            "L_hat": fit.L_hat,
            "window": list(fit.window),
            "residual": fit.residual,
        },
        "spectral": None,
    }
    if autonomous_coefficients(eq) is not None:
        rep = companion_from_equation(eq)
        oracle_block["spectral"] = {
            "radius": rep.radius,
            "dominant_modulus_error_bound": rep.dominant_modulus_error_bound,
            "dimension": rep.dimension,
        }
    report = {
        "schema": 1,
        "equation": _equation_echo(eq),
        "verdicts": [v.to_dict() for v in verdicts],
        "stable_criteria": [v.criterion for v in stable_verdicts(verdicts)],
        "oracle": oracle_block,
        "artifacts": [],
    }
    if not args.no_meta:
        report["meta"] = {"tool": f"delaystab {__version__}"}
    _emit(_dump(report), args.out)
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    eq = config_to_equation(config)
    n0 = args.n0
    horizon = args.N if args.N is not None else _horizon_from(config, 100)
    if horizon < n0:
        raise ValueError(f"horizon {horizon} precedes n0 = {n0}")
    if args.history:
        values = [float(v) for v in args.history]
        if len(values) != eq.T + 1:
            raise ValueError(
                f"history must cover [n0-T, n0]: need {eq.T + 1} values, got {len(values)}"
            )
        init = InitialData.from_values(n0, values)
    else:
        values = [0.0] * eq.T + [args.x0]
        init = InitialData.from_values(n0, values)
    # an overflow is reported by _require_finite, not by NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate(eq, init, horizon)
        _require_finite(n0, traj.values)
    if args.csv:
        write_trajectory_csv(traj, args.csv)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(format_csv("n,value", traj.n0, traj.values))
    return 0


def cmd_fundamental(args) -> int:
    config = _load_config(args.config)
    eq = config_to_equation(config)
    if args.N < args.k:
        raise ValueError(f"N = {args.N} precedes k = {args.k}")
    with np.errstate(over="ignore", invalid="ignore"):
        column = fundamental(eq, args.k, args.N)
        bound = product_bound(eq, args.k, args.N)
        _require_finite(args.k, column, bound)
    text = format_csv("n,value,bound", args.k, column, bound)
    if args.csv:
        _atomic_write(args.csv, text)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_examples(args) -> int:
    names = fixture_names()
    if args.only:
        if args.only not in names:
            raise ValueError(f"unknown fixture {args.only!r}; have {', '.join(names)}")
        names = [args.only]
    all_pass = True
    fixtures_block: dict[str, dict] = {}
    for name in names:
        results = run_fixture(name)
        passed = all(bool(r.passed) for r in results)
        all_pass = all_pass and passed
        checks = []
        for r in results:
            entry = {"name": r.name, "pass": bool(r.passed), "expected": r.expected}
            if not (args.no_meta and r.volatile):
                entry["value"] = float(r.value)
            checks.append(entry)
        fixtures_block[name] = {"pass": passed, "checks": checks}
    if args.json:
        payload = {"schema": 1, "fixtures": fixtures_block, "pass": all_pass}
        if not args.no_meta:
            payload["meta"] = {"tool": f"delaystab {__version__}"}
        _emit(_dump(payload), args.out)
    else:
        lines = []
        for name, block in fixtures_block.items():
            lines.append(f"{'PASS' if block['pass'] else 'FAIL'} {name}")
            lines += [f"    delta in {c['name']}: got {c.get('value')}, want {c['expected']}"
                      for c in block["checks"] if not c["pass"]]
        lines.append("all fixtures pass" if all_pass else "some fixtures FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_pass else 1


def _fuzz_representation(base_seed: int, count: int, rng: np.random.Generator):
    failures = []
    for i in range(count):
        seed = base_seed + i
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.35)
        history = [float(v) for v in rng.uniform(-1.0, 1.0, eq.T + 1)]
        init = InitialData.from_values(0, history)
        from .seqexpr import periodic_table
        forcing = periodic_table([float(v) for v in rng.uniform(-1.0, 1.0, 3)])
        resid = representation_check(eq, init, forcing, 50)
        if not resid < 1e-9:
            failures.append({"seed": seed, "residual": resid})
    return failures


def _fuzz_oracle_soundness(base_seed: int, count: int):
    failures = []
    for i in range(count):
        seed = base_seed + i
        eq = random_equation(seed, m_max=3, T_max=4, K_max=1.0, autonomous=True)
        rep = companion_from_equation(eq)
        stable = stable_verdicts(run_all(eq))
        if rep.radius >= 1.0 and stable:
            failures.append({
                "seed": seed,
                "radius": rep.radius,
                "criteria": [v.criterion for v in stable],
            })
    return failures


def _fuzz_tail_equivalence(base_seed: int, count: int, rng: np.random.Generator):
    from .equation import Term
    from .seqexpr import constant as const_expr

    failures = []
    produced = 0
    seed = base_seed
    while produced < count:
        eq = random_equation(seed, m_max=3, T_max=5, K_max=0.8)
        seed += 1
        col = fundamental(eq, 0, 400)
        fit = fit_decay(col, max(5 * eq.T, 20))
        if 0.98 <= fit.mu_hat <= 1.02:
            continue  # marginal rate: decay class not well defined
        produced += 1
        n1 = int(rng.integers(1, 21))
        replacement = [Term(const_expr(float(rng.uniform(-0.8, 0.8))), t.delay)
                       for t in eq.terms]
        if not tail_equivalence_test(eq, n1, replacement, 400):
            failures.append({"seed": seed - 1, "n1": n1})
    return failures


def cmd_fuzz(args) -> int:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(args.seeds)
    suites = {
        "representation_residual": _fuzz_representation(args.seeds, args.count, rng),
        "oracle_soundness": _fuzz_oracle_soundness(args.seeds, args.count),
        "tail_equivalence": _fuzz_tail_equivalence(args.seeds, args.count, rng),
    }
    failed = sum(len(v) for v in suites.values())
    if args.json:
        payload = {
            "schema": 1,
            "count": args.count,
            "base_seed": args.seeds,
            "counterexamples": suites,
            "pass": failed == 0,
        }
        _emit(_dump(payload), args.out)
    else:
        lines = []
        for name, failures in suites.items():
            status = "ok" if not failures else f"{len(failures)} counterexamples"
            lines.append(f"{name}: {args.count} cases, {status}")
            lines += [f"    counterexample: {f}" for f in failures[:10]]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaystab",
        description="Simulate scalar linear delay difference equations and "
                    "test them for exponential stability.",
    )
    parser.add_argument("--version", action="version", version=f"delaystab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("config", help="path to a JSON job config")

    def add_report_flags(p):
        p.add_argument("--out", help="write the report to this path (atomic)")
        p.add_argument("--no-meta", action="store_true",
                       help="omit tool/version metadata and timings (stable output)")

    p = sub.add_parser("check", help="run stability checkers and oracles")
    add_config(p)
    add_report_flags(p)
    p.add_argument("--window", nargs=2, type=int, metavar=("N0", "N1"),
                   help="override the certification window")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="iterate the equation and emit a trajectory")
    add_config(p)
    p.add_argument("--n0", type=int, default=0, help="start index")
    p.add_argument("--N", type=int, help="final index (default: config horizon)")
    p.add_argument("--x0", type=float, default=1.0,
                   help="value at n0 when no --history is given (prehistory 0)")
    p.add_argument("--history", nargs="+", type=float,
                   help="values for n0-T .. n0 in order (T+1 numbers)")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fundamental", help="tabulate one kernel column with its product bound")
    add_config(p)
    p.add_argument("--k", type=int, required=True, help="column start index")
    p.add_argument("--N", type=int, required=True, help="final row index")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_fundamental)

    p = sub.add_parser("examples", help="replay the built-in fixtures")
    add_report_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--only", help="run a single fixture by name")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("fuzz", help="seeded property suite against the oracles")
    add_report_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seeds", type=int, default=0, help="base seed")
    p.add_argument("--count", type=int, default=200, help="cases per suite")
    p.set_defaults(func=cmd_fuzz)
    return parser


# built by the first call and reused: parsing keeps no state between calls
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    # MemoryError covers the kernel cap and an array NumPy cannot allocate
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            SeqSyntaxError, SeqEvalError, MemoryError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
