import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from delaystab import __version__, cli
from delaystab.fixtures import FIXTURE_CONFIGS

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_module(*args, env_extra=None):
    """``python -m delaystab.cli *args`` in a fresh interpreter, for the entry
    point itself and for environment variables read at import."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if env_extra:
        env.update(env_extra)
    # a CLI that loops fails its test instead of hanging the suite
    return subprocess.run(
        [sys.executable, "-m", "delaystab.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_cli(*args):
    """``cli.main(args)`` in this process, with its exit code and captured
    streams as ``run_module`` gives them; a RuntimeWarning prints to the
    captured stderr, as in a fresh interpreter, instead of failing the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        warnings.showwarning = _print_warning
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def cfg_sin_cos(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "sin_cos.json"
    path.write_text(json.dumps({
        "schema": 1,
        "equation": {"terms": [
            {"coeff": "0.2 + 0.05*sin(n)", "lag": 1},
            {"coeff": "0.1*abs(cos(n))", "lag": 20},
        ]},
        "horizon": 2000,
    }))
    return str(path)


@pytest.fixture(scope="module")
def cfg_vanishing(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "vanishing.json"
    path.write_text(json.dumps({
        "schema": 1,
        "equation": {"terms": [{"coeff": "3^(-n-1)", "lag": 0}]},
        "horizon": 500,
    }))
    return str(path)


@pytest.fixture(scope="module")
def cfg_factorial(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "factorial.json"
    path.write_text(json.dumps({
        "schema": 1,
        "equation": {"terms": [{"coeff": "1 - 1/(n+1)", "lag": 0}]},
        "horizon": 40,
    }))
    return str(path)


def test_check_reports_stability(cfg_sin_cos):
    r = run_module("check", cfg_sin_cos, "--no-meta")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert "corollary8.1" in report["stable_criteria"]
    assert report["oracle"]["decay"]["mu_hat"] < 1
    winner = [v for v in report["verdicts"] if v["criterion"] == "corollary8.1"][0]
    assert winner["witnesses"]["gamma_min"] < 1
    assert winner["citation"]


def test_check_vanishing_no_stability(cfg_vanishing):
    r = run_cli("check", cfg_vanishing, "--no-meta")
    report = json.loads(r.stdout)
    assert report["stable_criteria"] == []
    assert report["oracle"]["decay"]["mu_hat"] >= 0.99  # kernel stays above 1/2


def test_check_empty_checks(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "schema": 1,
        "equation": {"terms": [{"coeff": "0.2", "lag": 1}]},
        "checks": [],
    }))
    r = run_cli("check", str(path), "--no-meta")
    report = json.loads(r.stdout)
    assert report["verdicts"] == []
    assert report["oracle"]["spectral"]["radius"] == pytest.approx(0.7236, abs=1e-3)


def test_check_echo_reparses(cfg_sin_cos, tmp_path):
    r = run_cli("check", cfg_sin_cos, "--no-meta")
    echo = json.loads(r.stdout)["equation"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps({"schema": 1, "equation": echo, "horizon": 100}))
    r2 = run_cli("check", str(path), "--no-meta")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["equation"] == echo


def test_simulate_factorial_values(cfg_factorial):
    r = run_cli("simulate", cfg_factorial, "--N", "10")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 1.0 and values[1] == 1.0
    assert values[2] == pytest.approx(0.5)
    assert values[3] == pytest.approx(1 / 6)


def test_simulate_history_validation(cfg_sin_cos):
    # T = 20: x(n0 - 21) is never read, so a 22-value history is refused
    r = run_cli("simulate", cfg_sin_cos, "--N", "5", "--history", *["1.0"] * 22)
    assert r.returncode == 2
    assert "history" in r.stderr


@pytest.mark.parametrize("command", [["simulate", "--n0", "5", "--N", "3"],
                                     ["fundamental", "--k", "5", "--N", "3"]])
def test_a_horizon_before_the_start_exits_2_with_the_simulator_message(cfg_factorial, command):
    r = run_cli(command[0], cfg_factorial, *command[1:])
    assert r.returncode == 2
    assert r.stderr == "error: horizon 3 precedes start 5\n"


def test_simulate_csv_output(cfg_factorial, tmp_path):
    out = tmp_path / "traj.csv"
    r = run_cli("simulate", cfg_factorial, "--N", "5", "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value" and len(lines) == 7


def test_fundamental_csv_includes_bound(cfg_factorial, tmp_path):
    r = run_cli("fundamental", cfg_factorial, "--k", "0", "--N", "6")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,value,bound"
    n, value, bound = lines[2].split(",")
    assert (n, value) == ("1", "1")
    assert float(bound) >= float(value)


def test_examples_all_pass():
    r = run_cli("examples")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "all fixtures pass" in r.stdout


def test_examples_only_filter():
    r = run_cli("examples", "--only", "vanishing_coefficient", "--json", "--no-meta")
    payload = json.loads(r.stdout)
    assert list(payload["fixtures"]) == ["vanishing_coefficient"]
    assert payload["pass"] is True
    r2 = run_cli("examples", "--only", "nope")
    assert r2.returncode == 2
    # one refusal, run_fixture's, as a ValueError: a KeyError would print quoted
    assert r2.stderr == f"error: unknown fixture 'nope'; have {', '.join(FIXTURE_CONFIGS)}\n"
    assert r2.stdout == ""


def test_examples_json_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("examples", "--json", "--no-meta", "--out", str(a)).returncode == 0
    assert run_cli("examples", "--json", "--no-meta", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_examples_text_out_writes_the_printed_report(tmp_path):
    out = tmp_path / "x.txt"
    printed = run_cli("examples", "--only", "factorial_kernel")
    written = run_cli("examples", "--only", "factorial_kernel", "--out", str(out))
    assert printed.returncode == written.returncode == 0, written.stderr
    assert out.read_text() == printed.stdout
    assert written.stdout == ""


def test_fuzz_small_clean():
    r = run_cli("fuzz", "--count", "20", "--json")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["pass"] is True
    assert all(not v for v in payload["counterexamples"].values())


def test_fuzz_refuses_a_count_below_1():
    r = run_cli("fuzz", "--count", "0")
    assert (r.returncode, r.stderr, r.stdout) == (2, "error: count must be >= 1\n", "")


def test_fuzz_refuses_a_negative_base_seed():
    # NumPy's own refusal, "expected non-negative integer", named no flag
    r = run_cli("fuzz", "--seeds", "-1", "--count", "1")
    assert (r.returncode, r.stderr, r.stdout) == (2, "error: seeds must be >= 0\n", "")


def test_fuzz_single_seed_deterministic():
    a = run_cli("fuzz", "--count", "1", "--seeds", "0", "--json")
    b = run_cli("fuzz", "--count", "1", "--seeds", "0", "--json")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("flags, meta", [
    ((), {"tool": f"delaystab {__version__}"}),
    (("--no-meta",), None),
])
def test_fuzz_json_meta_follows_no_meta(flags, meta):
    r = run_cli("fuzz", "--count", "1", "--json", *flags)
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout).get("meta") == meta


def test_fuzz_text_out_writes_the_printed_report(tmp_path):
    out = tmp_path / "y.txt"
    printed = run_cli("fuzz", "--count", "1")
    written = run_cli("fuzz", "--count", "1", "--out", str(out))
    assert printed.returncode == written.returncode == 0, written.stderr
    assert out.read_text() == printed.stdout
    assert written.stdout == ""


def test_fuzz_mutation_surfaces_counterexamples():
    # corrupting the checkers' thresholds must make the harness fail:
    # proves the fuzz suite can actually catch an unsound checker
    r = run_module("fuzz", "--count", "120", "--json",
                   env_extra={"DELAYSTAB_LOOSEN_THRESHOLDS": "1"})
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["counterexamples"]["oracle_soundness"]
    # on the general path too, through both disguises (even seeds + 0*sin(n),
    # odd ones a splice)
    general = payload["counterexamples"]["general_soundness"]
    assert {c["seed"] % 2 for c in general} == {0, 1}
    # each gives its seed, its Stable criteria and the decay fit check prints
    for c in payload["counterexamples"]["oracle_soundness"] + general:
        assert set(c) == {"seed", "mu_hat", "criteria"}
        assert math.isfinite(c["mu_hat"])


def test_infinite_splice_cutoff_exits_2(tmp_path):
    path = tmp_path / "cutoff.json"
    path.write_text(json.dumps({"schema": 1, "equation": {
        "terms": [{"coeff": "splice(1e400, 0.1, 0.2)", "lag": 1}]}}))
    r = run_module("check", str(path), "--no-meta")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == "error: term 0: non-finite value (at n=0)\n"


@pytest.mark.parametrize("cutoff,position", [("1e19", 11), ("9007199254740993", 23)])
def test_a_splice_cutoff_past_2_53_exits_2(tmp_path, cutoff, position):
    # 1e19 overflowed the window's int64 index in a traceback; 2^53 + 1 ran
    # as 2^53
    r = run_cli("check", _one_config(tmp_path, [(f"splice({cutoff}, 0.1, 0.2)", 1)]),
                "--no-meta")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == f"error: term 0: splice cutoff past 2^53 (at position {position})\n"


_PAST_2_53 = "9223372036854775800"


@pytest.mark.parametrize("config,argv,named", [
    # an IndexError in limits.sums_from
    ({"window": [9223372036854775000, 9223372036854775900]}, ["check"],
     "window 9223372036854775000"),
    # OverflowError converting n to a C long in evaluation
    ({"window": [10**20, 10**20 + 10]}, ["check"], f"window {10**20}"),
    ({}, ["simulate", "--n0", str(10**20), "--N", str(10**20 + 10)], f"--n0 {10**20}"),
    ({}, ["fundamental", "--k", str(10**20), "--N", str(10**20 + 10)], f"--k {10**20}"),
    # exited 0, with the forcing evaluated at the wrapped int64 indices past 2^63
    ({}, ["simulate", "--n0", _PAST_2_53, "--N", "9223372036854775810"], f"--n0 {_PAST_2_53}"),
    ({}, ["fundamental", "--k", "0", "--N", str(2**53)], f"--N {2**53}"),
    ({"horizon": -(2**53)}, ["simulate"], f"horizon {-(2**53)}"),
], ids=["check-int64", "check-2^64", "simulate-n0", "fundamental-k", "simulate-wrap",
        "fundamental-N", "simulate-horizon"])
def test_an_index_past_2_53_exits_2(tmp_path, config, argv, named):
    r = run_cli(argv[0], _one_config(tmp_path, [("0.2 + 0.05*sin(n)", 1)], **config), *argv[1:])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {named} lies past 2^53\n"


def test_non_integer_alt_argument_exits_2(tmp_path):
    # n/2 is within alt's old relative tolerance of an integer past n = 10^5
    path = _one_config(tmp_path, [("splice(1000000, 0.1, 0.1 + 0.01*alt(n/2))", 1)],
                       window=[1000000, 1010000])
    r = run_cli("check", path, "--no-meta")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error: term 0: alt() needs an integer argument (at n=1000001)" in r.stderr


@pytest.mark.parametrize("coeff", [
    "splice(sin(1e400), 1, 2)",
    "per(0.1, 1e400 - 1e400)",
    "per(1e200*1e200)",
])
def test_non_finite_constant_slot_exits_2(tmp_path, coeff):
    path = tmp_path / "slot.json"
    path.write_text(json.dumps({"schema": 1, "equation": {
        "terms": [{"coeff": coeff, "lag": 1}]}}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 2
    assert r.stderr == "error: term 0: non-finite value (at n=0)\n"


@pytest.mark.parametrize("coeff", [
    "(" * 300 + "0.1" + ")" * 300,
    " + ".join(["0.0001"] * 3000),
    "-" * 3000 + "0.1",
    "-" * 10000 + "0.1",  # past CPython's parser stack, which raises MemoryError
], ids=["parentheses", "sum", "minuses", "parser_stack"])
def test_deep_expressions_exit_2(tmp_path, coeff):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"schema": 1, "equation": {"terms": [{"coeff": coeff, "lag": 1}]}}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")


def test_config_errors_exit_2(tmp_path):
    missing = run_cli("check", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": 2, "equation": {"terms": []}}))
    assert run_cli("check", str(bad_schema)).returncode == 2

    def job(terms, forcing=None, **config):
        return {"schema": 1, "equation": {"terms": terms, "forcing": forcing}, **config}

    def term(coeff="0.1", lag=1):
        return {"coeff": coeff, "lag": lag}

    alt_past_validation = "splice(1000000, 0.1, 0.1 + 0.01*alt(n/2))"
    pole_past_validation = [term(), term("0.01/(n-5000)", 2)]

    # non-integer horizons, term lists and lags, bools among them, are
    # rejected where the config is read, not coerced or left to a traceback;
    # an error in a term or the forcing names it, also one that a command
    # meets past the validation window
    for config, message, *command in [
        (job([term()], horizon=None), "horizon null must be an integer"),
        (job([term()], horizon=1.5), "horizon 1.5 must be an integer"),
        (job([term()], horizon="500"), 'horizon "500" must be an integer'),
        (job(5), "config needs equation.terms, a list of terms"),
        (job([5]), "term 0 needs 'coeff' and 'lag'"),
        (job([term(lag=[1.5, 2])]), "term 0: lags must be nonnegative integers, got 1.5"),
        (job([term(lag=["3"])]), "term 0: lags must be nonnegative integers, got '3'"),
        (job([term(lag=True)]), "term 0: lags must be nonnegative integers, got True"),
        (job([term(), term(lag=-2)]), "term 1: lags must be nonnegative integers, got -2"),
        (job([term(), term("0.2 +")]), "term 1: invalid syntax (at position 5)"),
        (job([term(), term("1/(n-3)")]), "term 1: division by zero (at n=3)"),
        (job([term()], forcing="sin("), "forcing: '(' was never closed (at position 3)"),
        ([job([term()])], "config must be a JSON object"),
        (job([term()], checks=5), 'checks must be "all" or a list of family names'),
        (job([term(), term(alt_past_validation)], window=[1000000, 1010000]),
         "term 1: alt() needs an integer argument (at n=1000001)"),
        (job(pole_past_validation, horizon=6000), "term 1: division by zero (at n=5000)"),
        (job(pole_past_validation), "term 1: division by zero (at n=5000)",
         "simulate", "--N", "6000"),
        (job(pole_past_validation), "term 1: division by zero (at n=5000)",
         "fundamental", "--k", "0", "--N", "6000"),
        (job([term()], forcing="1/(n-3000)"), "forcing: division by zero (at n=3000)",
         "simulate", "--N", "4000"),
    ]:
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        command = command or ["check", "--no-meta"]
        r = run_cli(command[0], str(path), *command[1:])
        assert r.returncode == 2, config
        assert r.stderr == f"error: {message}\n", (config, r.stderr)


@pytest.mark.parametrize("name", list(FIXTURE_CONFIGS))
def test_check_runs_on_every_shipped_fixture(name, tmp_path):
    # the fundamental column must cover the decay fit's skip plus its 50
    # points even when the configured horizon is short
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(FIXTURE_CONFIGS[name]))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 0, r.stderr
    lo, hi = json.loads(r.stdout)["oracle"]["decay"]["window"]
    assert hi - lo >= 49


@pytest.fixture(scope="module")
def cfg_unbounded(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "unbounded.json"
    path.write_text(json.dumps(FIXTURE_CONFIGS["positive_unbounded"]))
    return str(path)


def test_check_refuses_unknown_check_families(tmp_path):
    path = tmp_path / "checks.json"
    path.write_text(json.dumps({"schema": 1, "checks": ["theorem1", "theorm1"],
                                "equation": {"terms": [{"coeff": "0.1", "lag": 1}]}}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 2
    assert "error: unknown checks ['theorm1']; known: ('lemma4', 'theorem1'," in r.stderr


@pytest.mark.parametrize("argv,first_bad", [
    (["simulate", "--N", "1500"], 1301),
    (["fundamental", "--k", "0", "--N", "1500"], 431),  # the product bound overflows first
], ids=["simulate", "fundamental"])
def test_overflow_exits_2_naming_first_index(cfg_unbounded, tmp_path, argv, first_bad):
    out = tmp_path / "out.csv"
    r = run_cli(argv[0], cfg_unbounded, *argv[1:], "--csv", str(out))
    assert r.returncode == 2
    assert f"n = {first_bad} is not finite" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--N", "1500"],
    ["fundamental", "--k", "0", "--N", "1500"],
], ids=["simulate", "fundamental"])
def test_overflow_exits_2_without_numpy_warnings(cfg_unbounded, argv):
    # any RuntimeWarning becomes an exception, which would end the run
    # with a traceback and exit 1 instead of the clean overflow error
    r = run_module(argv[0], cfg_unbounded, *argv[1:],
                   env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 2
    assert "is not finite" in r.stderr
    assert "Warning" not in r.stderr


_NAMED_TERM_0 = "error: term 0: non-finite value (at n=0)\n"
_ONE_TERM_COMMANDS = [["check", "--no-meta"], ["simulate", "--N", "5"],
                      ["fundamental", "--k", "0", "--N", "5"]]


@pytest.mark.parametrize("terms,argv,stderr", [
    *[([(coeff, 1)], argv, _NAMED_TERM_0)
      for coeff in ("1e308*10", "1e308 + 1e308", "sin(1e308*10*n)", "per(0.1, 1e400 - 1e400)")
      for argv in _ONE_TERM_COMMANDS],
    # each term is finite; the sum run_all evaluates for lag 1 is not
    ([("1e308", 1), ("1e308", 1)], ["check", "--no-meta"],
     "error: terms 0, 1: non-finite value (at n=0)\n"),
    # finite coefficients on two lag tables, whose sums inside the checkers overflow
    ([("1e308", 1), ("1e308", 2)], ["check", "--no-meta"],
     "error: fundamental column at n = 3 is not finite (overflow); "
     "fewer than 5 points are left to fit past n = 20\n"),
    # the step that overflows reads the same sum, which no horizon helps
    ([("1e308", 1), ("1e308", 1)], ["simulate", "--N", "5"],
     "error: terms 0, 1: non-finite value (at n=1)\n"),
    ([("1e308", 1), ("1e308", 1)], ["fundamental", "--k", "0", "--N", "5"],
     "error: terms 0, 1: non-finite value (at n=0)\n"),
])
def test_degenerate_coefficients_exit_2_without_numpy_warnings(tmp_path, terms, argv, stderr):
    # any RuntimeWarning becomes an exception, which would end the run
    # with a traceback and exit 1
    r = run_module(argv[0], _one_config(tmp_path, terms), *argv[1:],
                   env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 2
    assert r.stderr == stderr


def test_check_overflow_exits_0_without_numpy_warnings(tmp_path):
    # the decay fit drops the overflowed tail of the column; NumPy must not
    # print RuntimeWarnings on the way
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({**FIXTURE_CONFIGS["positive_unbounded"], "horizon": 1500}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 0
    assert r.stderr == ""


def test_check_overflow_before_the_fit_exits_2_without_numpy_warnings(tmp_path):
    # X(n, 0) = (1 - 1e20)^n is non-finite from n = 16, before the fit's
    # skip of 20: no mu_hat can be read, and the kernel scan overflows too
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, "horizon": 200,
                                "equation": {"terms": [{"coeff": "1e20", "lag": 0}]}}))
    r = run_module("check", str(path), "--no-meta",
                   env_extra={"PYTHONWARNINGS": "always::RuntimeWarning"})
    assert r.returncode == 2
    assert "n = 16 is not finite" in r.stderr
    assert "Warning" not in r.stderr

def test_check_decay_window_ends_at_last_finite_index(tmp_path):
    # the column is non-finite from n = 1301 on (see the simulate case above),
    # so the fit and its reported window stop at 1300
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({**FIXTURE_CONFIGS["positive_unbounded"], "horizon": 1500}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["oracle"]["decay"]["window"] == [20, 1300]


def _one_config(tmp_path, terms, **config) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, **config, "equation": {
        "terms": [{"coeff": c, "lag": lag} for c, lag in terms]}}))
    return str(path)


def test_check_long_delay_gives_a_verdict(tmp_path):
    # lam^(-1000) overflows in corollary 3's root search and the sharp
    # bound 1000^1000 / 1001^1001 overflows a float; both used to raise
    r = run_cli("check", _one_config(tmp_path, [("0.0001*(1 + 0.5*sin(n))", 1000)]),
                "--no-meta")
    assert r.returncode == 0, r.stderr
    assert "corollary3" in json.loads(r.stdout)["stable_criteria"]


def test_check_past_the_scan_cap_exits_2(tmp_path):
    # the positivity scan's ring for lag 4000 passes the 10^8-entry cap
    r = run_cli("check", _one_config(tmp_path, [("0.0001*(1 + 0.5*sin(n))", 4000),
                                                ("-0.00001", 0)]), "--no-meta")
    assert r.returncode == 2
    assert "(cap 100000000)" in r.stderr
    assert "Traceback" not in r.stderr


def test_check_refuses_the_scan_cap_before_building_its_tables(tmp_path, capsys):
    # lag 10^6 scans [5*10^6, 1.5*10^7], a ring far past the cap: check
    # refuses it before building the scan's coefficient and lag tables
    # (160 MB), and config validation, in slices, stays small
    from delaystab.fixtures import config_to_equation
    path = _one_config(tmp_path, [("0.1", 10**6)])
    with open(path) as fh:
        config = json.load(fh)
    tracemalloc.start()
    try:
        config_to_equation(config)
        _, validation = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert cli.main(["check", path, "--no-meta"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "(cap 100000000)" in capsys.readouterr().err
    assert validation < 8 * 2**20
    assert peak < 64 * 2**20


def test_main_builds_its_parser_once(cfg_factorial, tmp_path, monkeypatch, capsys):
    build = cli.build_parser
    built = []

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    csv = tmp_path / "trajectory.csv"
    windowed = _one_config(tmp_path, [("1 - 1/(n+1)", 0)], horizon=40, window=[5, 30])
    argvs = [["check", cfg_factorial, "--no-meta"],
             ["check", windowed, "--no-meta"],
             ["simulate", cfg_factorial, "--N", "12", "--csv", str(csv)],
             ["check", cfg_factorial, "--bogus"],
             ["check", cfg_factorial, "--no-meta"]]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        written = csv.read_text() if csv.exists() else None
        csv.unlink(missing_ok=True)
        return code, out, err, written

    reused = [run(argv) for argv in argvs]
    assert len(built) == 1
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 2, 0]
    assert reused[2][3].startswith("n,value\n")
    assert "unrecognized arguments: --bogus" in reused[3][2]


@pytest.mark.parametrize("command", [["check", "--no-meta", "--out"],
                                     ["simulate", "--N", "50", "--csv"],
                                     ["fundamental", "--k", "0", "--N", "50", "--csv"]],
                         ids=["check", "simulate", "fundamental"])
def test_check_builds_the_equation_once(cfg_factorial, tmp_path, monkeypatch, command):
    build = cli.config_to_equation
    calls = []

    def counting(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(cli, "config_to_equation", counting)
    assert cli.main([command[0], cfg_factorial, *command[1:], str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_check_rejects_a_bad_horizon_before_the_checkers(tmp_path, monkeypatch, capsys):
    def never(*args, **kw):
        raise AssertionError("run_all ran on a config with a bad horizon")

    monkeypatch.setattr(cli, "run_all", never)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, "horizon": 0, "equation": {
        "terms": [{"coeff": "1 - 1/(n+1)", "lag": 0}]}}))
    assert cli.main(["check", str(path), "--no-meta"]) == 2
    assert capsys.readouterr().err == "error: horizon must be >= 1\n"


def test_unused_flags_are_rejected(cfg_factorial, tmp_path):
    assert run_cli("check", cfg_factorial, "--seed", "1").returncode == 2
    for command in (["simulate", "--N", "3"], ["fundamental", "--k", "0", "--N", "3"]):
        out = tmp_path / "out.csv"
        assert run_cli(command[0], cfg_factorial, *command[1:],
                       "--out", str(out)).returncode == 2
        assert not out.exists()
        assert run_cli(command[0], cfg_factorial, *command[1:], "--no-meta").returncode == 2
    assert run_cli("check", cfg_factorial, "--json").returncode == 2
    assert run_cli("simulate", cfg_factorial, "--json").returncode == 2
    # a history is given by --history alone
    assert run_cli("simulate", cfg_factorial, "--x0", "1").returncode == 2
    # a window is given by the config alone
    assert run_cli("check", cfg_factorial, "--window", "0", "5").returncode == 2
    assert run_cli("fundamental", cfg_factorial, "--k", "0", "--N", "5",
                   "--window", "0", "5").returncode == 2
    assert run_cli("examples", "--window", "0", "5").returncode == 2


@pytest.mark.parametrize("checks", ["all", []])
@pytest.mark.parametrize("window", [[100, 50], [-50, 100], [5], 5, [0, 1.5], [True, 10]])
def test_check_rejects_a_bad_config_window(tmp_path, window, checks):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, "window": window, "checks": checks, "equation": {
        "terms": [{"coeff": "0.1 + 0.02*sin(n)", "lag": 1}]}}))
    r = run_cli("check", str(path), "--no-meta")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    if isinstance(window, list) and len(window) == 2 and all(type(x) is int for x in window):
        assert f"window {window} must satisfy 0 <= N0 <= N1" in r.stderr
    else:
        assert f"window {json.dumps(window)} must be a list of two integers" in r.stderr


def test_check_accepts_a_one_point_window(tmp_path):
    r = run_cli("check", _one_config(tmp_path, [("0.1 + 0.02*sin(n)", 1)], window=[50, 50]),
                "--no-meta")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("terms,argv,message", [
    ([("0.1", 10**12)], ["check"],
     "term 0: lag 1000000000000 needs a validation window of 10000000000010 points "
     "(cap 100000000)"),
    ([("0.1", 1)], ["simulate", "--N", str(10**12)], "Unable to allocate"),
    ([("0.1", 1)], ["fundamental", "--k", "0", "--N", str(10**12)], "Unable to allocate"),
], ids=["check", "simulate", "fundamental"])
def test_a_refused_allocation_exits_2(tmp_path, terms, argv, message):
    # each size is refused at once: a lag of 10^12 by validate's cap on its
    # window, 10^12 steps by NumPy (7 to 73 TiB), whose allocation error is
    # a MemoryError like the kernel cap's, not a crash
    r = run_cli(argv[0], _one_config(tmp_path, terms), *argv[1:])
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [["simulate", "--N", "50"],
                                  ["fundamental", "--k", "0", "--N", "50"], ["check"]],
                         ids=["simulate", "fundamental", "check"])
def test_a_lag_past_the_validation_cap_exits_2_at_load(tmp_path, argv):
    # lag 10^7 validates on 10^8 + 10 points, past the cap: the job is
    # refused when it is loaded, where simulate once evaluated the whole
    # window (3.85 GB peak)
    config = _one_config(tmp_path, [("0.1 + 0.05*sin(n)", 1), ("0.001", 10**7)])
    r = run_cli(argv[0], config, *argv[1:])
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == ("error: term 1: lag 10000000 needs a validation window of "
                        "100000010 points (cap 100000000)\n")


class _FullDisk:
    """An open temporary file whose writes fail as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail", ["write", "rename"])
@pytest.mark.parametrize("argv", [["simulate", "--N", "12", "--csv"],
                                  ["fundamental", "--k", "0", "--N", "12", "--csv"],
                                  ["check", "--no-meta", "--out"]],
                         ids=["simulate", "fundamental", "check"])
def test_a_failed_write_keeps_the_old_file(cfg_factorial, tmp_path, monkeypatch, argv, fail):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    if fail == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **kw: _FullDisk(fdopen(fd, *a, **kw)))
    else:
        def refuse(src, dst):
            raise OSError(13, "Permission denied")
        monkeypatch.setattr(os, "replace", refuse)
    assert cli.main([argv[0], cfg_factorial, *argv[1:], str(target)]) == 2
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    monkeypatch.undo()
    assert cli.main([argv[0], cfg_factorial, *argv[1:], str(target)]) == 0
    assert target.read_text() != "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # the renamed file has the mode a plainly opened new file gets
    (tmp_path / "plain.txt").write_text("")
    assert os.stat(target).st_mode == os.stat(tmp_path / "plain.txt").st_mode


# the "x0-" cases give the one value x(n0)
@pytest.mark.parametrize("argv", [
    ["--history", "nan"],
    ["--history", "inf"],
    ["--history", "1", "nan"],
], ids=["x0-nan", "x0-inf", "history-nan"])
def test_simulate_refuses_non_finite_initial_values(tmp_path, argv):
    out = tmp_path / "out.csv"
    r = run_cli("simulate", _one_config(tmp_path, [("0.1", 1)]), *argv, "--csv", str(out))
    assert r.returncode == 2
    assert f"error: --history must be finite, not {argv[-1]}" in r.stderr
    assert "horizon" not in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("terms,history,message", [
    ([("0.1", 1)], ["1", "2", "3"], "--history takes at most T + 1 = 2 values, got 3"),
    # only the values given are read for finiteness, before their count
    ([("0.1", 0)], ["1", "nan"], "--history must be finite, not nan"),
], ids=["too-long", "non-finite-first"])
def test_simulate_refuses_a_history_of_the_wrong_length(tmp_path, capsys, terms, history,
                                                         message):
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", _one_config(tmp_path, terms), "--N", "2",
                     "--history", *history, "--csv", str(out)])
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_checks_the_history_length_before_the_horizon(tmp_path, capsys):
    # --history is checked in the CLI, before the simulator reads the horizon
    code = cli.main(["simulate", _one_config(tmp_path, [("0.1", 1)]), "--n0", "5", "--N", "3",
                     "--history", "1", "2", "3"])
    assert code == 2
    assert capsys.readouterr().err == "error: --history takes at most T + 1 = 2 values, got 3\n"


@pytest.mark.parametrize("lag", [1, [3, 5]], ids=["1", "3-5"])
def test_simulate_pads_a_short_history_with_zeros(tmp_path, capsys, lag):
    # k <= T + 1 values write the CSV of their zero-padded T + 1 form, byte
    # for byte, and no flag is the history 1
    config = _one_config(tmp_path, [("0.1 + 0.05*sin(n)", lag), ("-0.2", 0)])
    T = max(lag) if isinstance(lag, list) else lag

    def csv(*history):
        assert cli.main(["simulate", config, "--n0", "2", "--N", "40", *history]) == 0
        return capsys.readouterr().out

    assert csv() == csv("--history", "1") == csv("--history", *["0"] * T, "1")
    for k in range(1, T + 2):
        given = ["0.25", "-1.5", "3", "0.5", "-2", "1e-3"][:k]
        assert csv("--history", *given) == csv("--history", *["0"] * (T + 1 - k), *given)


def test_simulate_at_a_long_lag_steps_in_bounded_memory(tmp_path, peak_rss_growth):
    # lag 10^6 over 100 steps from the default one-value history: the step
    # buffer holds only the 100 entries before n0 that the window reads, so
    # the process grows by about 1 MiB; T zeros before x(n0) took about
    # 60 MiB (the history, the step buffer and its list), a history dict of
    # 10^6 + 1 entries about 110 MiB.
    config = _one_config(tmp_path, [("0.1", 1), ("0.001", 10**6)])
    out = tmp_path / "out.csv"
    growth = peak_rss_growth("from delaystab import cli", f"""
        assert cli.main(["simulate", {config!r}, "--N", "100", "--csv", {str(out)!r}]) == 0
    """)
    assert growth < 8 * 1024  # KiB
    alone = tmp_path / "alone.csv"
    assert run_cli("simulate", _one_config(tmp_path, [("0.1", 1)]), "--N", "100",
                   "--csv", str(alone)).returncode == 0
    assert out.read_text() == alone.read_text()


# the "x0-" cases give the one value x(n0)
@pytest.mark.parametrize("argv,first", [
    (["--history", "0", "-1e-3"], "-0.001"),
    (["--history", "-1e-3"], "-0.001"),
    (["--history", "0", "-2.5E+1"], "-25"),
    (["--history", "-1."], "-1"),
    (["--history=-1e-3"], "-0.001"),
    (["--history", "0", "-0.5"], "-0.5"),
    (["--history", "-.5"], "-0.5"),
    (["--history", "0", "-inf"], "--history must be finite, not -inf"),
    (["--history", "-inf"], "--history must be finite, not -inf"),
    (["--history", "-NaN"], "--history must be finite, not nan"),
], ids=["history-exponent", "x0-exponent", "history-signed-exponent", "x0-trailing-dot",
        "x0-equals", "history-decimal", "x0-leading-dot", "history-inf", "x0-inf", "x0-nan"])
def test_simulate_reads_every_negative_float(tmp_path, capsys, argv, first):
    # argparse's own pattern took only plain negative integers and decimals
    # as values; "-1e-3" and "-inf" were read as options and refused
    out = tmp_path / "out.csv"
    code = cli.main(["simulate", _one_config(tmp_path, [("0.1", 1)]), "--N", "2", *argv,
                     "--csv", str(out)])
    err = capsys.readouterr().err
    if first.startswith("--"):
        assert code == 2 and err == f"error: {first}\n" and not out.exists()
    else:
        assert code == 0 and err == ""
        assert out.read_text().splitlines()[1] == f"0,{first}"


@pytest.mark.parametrize("case", ["missing-directory", "target-is-a-directory"])
def test_a_failed_write_names_the_requested_path(cfg_factorial, tmp_path, case):
    if case == "missing-directory":
        target = tmp_path / "missing" / "r.json"
        r = run_cli("check", cfg_factorial, "--no-meta", "--out", str(target))
        assert "No such file or directory" in r.stderr
    else:
        target = tmp_path / "prof"
        target.mkdir()
        r = run_cli("simulate", cfg_factorial, "--csv", str(target))
        assert "Is a directory" in r.stderr
    assert r.returncode == 2
    assert f"'{target}'" in r.stderr
    assert ".tmp" not in r.stderr
    assert "Traceback" not in r.stderr
    left = [p.name for p in tmp_path.rglob("*")]
    assert left == ([] if case == "missing-directory" else ["prof"])


def test_readme_cli_section_names_every_option_and_no_other():
    import argparse
    import re

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for p in [parser, *commands.choices.values()] for action in p._actions
               for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        section = fh.read().split("\n## CLI\n")[1].split("\n## ")[0]
    assert set(re.findall(r"--[A-Za-z][\w-]*", section)) == options
