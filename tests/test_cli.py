import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from delaystab.fixtures import FIXTURE_CONFIGS

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if env_extra:
        env.update(env_extra)
    # a CLI that loops fails its test instead of hanging the suite
    return subprocess.run(
        [sys.executable, "-m", "delaystab.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
    r = run_cli("check", cfg_sin_cos, "--no-meta")
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
    r = run_cli("simulate", cfg_sin_cos, "--N", "5", "--history", "1.0", "2.0")
    assert r.returncode == 2
    assert "history" in r.stderr


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


def test_fuzz_single_seed_deterministic():
    a = run_cli("fuzz", "--count", "1", "--seeds", "0", "--json")
    b = run_cli("fuzz", "--count", "1", "--seeds", "0", "--json")
    assert a.stdout == b.stdout


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
    r = run_cli("fuzz", "--count", "120", "--json",
                env_extra={"DELAYSTAB_LOOSEN_THRESHOLDS": "1"})
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["counterexamples"]["oracle_soundness"]


def test_config_errors_exit_2(tmp_path):
    missing = run_cli("check", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema": 2, "equation": {"terms": []}}))
    assert run_cli("check", str(bad_schema)).returncode == 2
    bad_expr = tmp_path / "expr.json"
    bad_expr.write_text(json.dumps({
        "schema": 1,
        "equation": {"terms": [{"coeff": "0.2 +", "lag": 1}]},
    }))
    r = run_cli("check", str(bad_expr))
    assert r.returncode == 2
    assert "position" in r.stderr
    # non-integer horizons, term lists and lags, bools among them, are
    # rejected where the config is read, not coerced or left to a traceback
    terms = [{"coeff": "0.1", "lag": 1}]
    for key, value, message in [
        ("horizon", None, "horizon null must be an integer"),
        ("horizon", 1.5, "horizon 1.5 must be an integer"),
        ("horizon", "500", 'horizon "500" must be an integer'),
        ("terms", 5, "config needs equation.terms, a list of terms"),
        ("terms", [5], "term 0 needs 'coeff' and 'lag'"),
        ("lag", [1.5, 2], "term 0: lags must be nonnegative integers, got 1.5"),
        ("lag", ["3"], "term 0: lags must be nonnegative integers, got '3'"),
        ("lag", True, "term 0: lags must be nonnegative integers, got True"),
    ]:
        config = {"schema": 1, "equation": {"terms": terms}}
        if key == "horizon":
            config["horizon"] = value
        elif key == "terms":
            config["equation"]["terms"] = value
        else:
            config["equation"]["terms"] = [{"coeff": "0.1", "lag": value}]
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        r = run_cli("check", str(path), "--no-meta")
        assert r.returncode == 2, (key, value)
        assert "Traceback" not in r.stderr
        assert f"error: {message}" in r.stderr, (key, value, r.stderr)


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
    r = run_cli(argv[0], cfg_unbounded, *argv[1:],
                env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 2
    assert "is not finite" in r.stderr
    assert "Warning" not in r.stderr


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
    r = run_cli("check", str(path), "--no-meta",
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


def _one_config(tmp_path, terms) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, "equation": {
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
    from delaystab import cli
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
    from delaystab import cli
    build = cli.build_parser
    built = []

    def counting():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    csv = tmp_path / "trajectory.csv"
    argvs = [["check", cfg_factorial, "--no-meta"],
             ["check", cfg_factorial, "--no-meta", "--window", "5", "30"],
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


def test_check_builds_the_equation_once(cfg_factorial, tmp_path, monkeypatch):
    from delaystab import cli
    build = cli.config_to_equation
    calls = []

    def counting(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(cli, "config_to_equation", counting)
    assert cli.main(["check", cfg_factorial, "--no-meta", "--out",
                     str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1


def test_check_rejects_a_bad_horizon_before_the_checkers(tmp_path, monkeypatch, capsys):
    from delaystab import cli

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
    assert run_cli("fundamental", cfg_factorial, "--k", "0", "--N", "5",
                   "--window", "0", "5").returncode == 2
    assert run_cli("examples", "--window", "0", "5").returncode == 2


@pytest.mark.parametrize("window", [[100, 50], [-50, 100]])
def test_check_rejects_a_bad_window_flag(tmp_path, window):
    # a reversed window used to die in a NumPy reduction, a negative start
    # gave Stable verdicts on sums clipped at index 0
    r = run_cli("check", _one_config(tmp_path, [("0.1 + 0.02*sin(n)", 1)]), "--no-meta",
                "--window", *map(str, window))
    assert r.returncode == 2
    assert f"window {window} must satisfy 0 <= N0 <= N1" in r.stderr
    assert "Traceback" not in r.stderr


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
    r = run_cli("check", _one_config(tmp_path, [("0.1 + 0.02*sin(n)", 1)]), "--no-meta",
                "--window", "50", "50")
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("terms,argv", [
    ([("0.1", 10**12)], ["check"]),
    ([("0.1", 1)], ["simulate", "--N", str(10**12)]),
    ([("0.1", 1)], ["fundamental", "--k", "0", "--N", str(10**12)]),
], ids=["check", "simulate", "fundamental"])
def test_a_refused_allocation_exits_2(tmp_path, terms, argv):
    # each size is refused at once (7 to 73 TiB); NumPy's allocation error
    # is a MemoryError like the kernel cap's, not a crash
    r = run_cli(argv[0], _one_config(tmp_path, terms), *argv[1:])
    assert r.returncode == 2
    assert "Unable to allocate" in r.stderr
    assert "Traceback" not in r.stderr


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
    from delaystab import cli
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
