"""Behaviour contract: `check --no-meta` reports on the shipped fixtures
and on a pinned generated corpus, and the `simulate` and `fundamental`
CSVs of one forced equation, must stay byte-identical.  Regenerate the
files only for a documented behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

from delaystab.cli import main
from delaystab.fixtures import FIXTURE_CONFIGS
from delaystab.oracle import random_equation
from delaystab.simulator import format_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _config(terms: list) -> dict:
    return {"schema": 1, "equation": {"terms": [{"coeff": c, "lag": lag} for c, lag in terms]},
            "horizon": 400}


def _random_config(seed: int, autonomous: bool, **bounds) -> dict:
    eq = random_equation(seed, autonomous=autonomous, **bounds)
    return _config([(str(t.coeff), t.delay.lags[0] if len(t.delay.lags) == 1
                     else list(t.delay.lags)) for t in eq.terms])


# random_equation (T <= 5) periodic and autonomous seeds, four seeds at
# (m_max, T_max) = (3, 4) that reach verdict exits the others miss (among
# them corollary 8.2's pair-sum gate, Stable corollary 2, 8.2 and lemma4
# verdicts that are not window-certified, and every corollary 9 exit), plus general
# sin/cos coefficients mixed with periodic ones, at m = 2 and m = 3; the
# two "_window" entries pin the certification-window override.  sin_cos_m5
# is laid out like the benchmark's trig items (constant lags and two-entry
# lag tables), so theorem2's 31 subsets read the same coefficients over
# windows that start at different 10 T; sin_cos_m6 is the benchmark's m = 6
# layout (63 subsets over five scan windows).  mixed_sign_splice has a term
# that is negative only before its cutoff n = 40, where the windows of the
# sets that hold it start and which the union of the scan windows reads,
# and one that is negative everywhere.
GENERATED = {
    **{f"random_periodic_{s}": _random_config(s, False) for s in (0, 2, 3, 4)},
    **{f"random_autonomous_{s}": _random_config(s, True) for s in (0, 1, 3, 5)},
    **{f"random_autonomous_m3T4_{s}": _random_config(s, True, m_max=3, T_max=4)
       for s in (19, 62, 92)},
    "random_periodic_m3T4_17": _random_config(17, False, m_max=3, T_max=4),
    "sin_cos_m2": _config([("0.15 + 0.05*cos(n)", 2), ("0.05*sin(3*n)", 0)]),
    "sin_cos_m3": _config([("0.1 + 0.02*sin(n)", 1), ("0.04*abs(cos(2*n))", [1, 3]),
                           ("0.05 + 0.01*alt(n)", 4)]),
    "sin_cos_m5": _config([("0.010632 + 0.008827*sin(1*n)", 1),
                           ("0.007198 - 0.004213*cos(2*n)", 6),
                           ("0.007588*abs(sin(3*n))", [0, 5]),
                           ("0.004830 + 0.002584*cos(4*n)", 4),
                           ("0.012281 - 0.010415*sin(5*n)", [1, 4])]),
    "sin_cos_m6": _config([("0.006993 + 0.004093*sin(1*n)", 1),
                           ("0.004735 - 0.003237*cos(2*n)", 6),
                           ("0.004991*abs(sin(3*n))", [0, 5]),
                           ("0.003177 + 0.002694*cos(4*n)", 4),
                           ("0.008078 - 0.006080*sin(5*n)", [1, 4]),
                           ("0.013034*abs(cos(1*n))", 2)]),
    "mixed_sign_splice": _config([("0.1 + 0.02*sin(n)", 1),
                                  ("splice(40, -0.01, 0.02)", 3),
                                  ("-0.004*abs(cos(2*n))", 0),
                                  ("0.03 + 0.01*cos(3*n)", [2, 4])]),
}
GENERATED["sin_cos_m3_window"] = {**GENERATED["sin_cos_m3"], "window": [50, 2050]}
GENERATED["random_periodic_0_window"] = {**GENERATED["random_periodic_0"], "window": [30, 530]}

CONFIGS = {**{f"check_{name}": cfg for name, cfg in FIXTURE_CONFIGS.items()},
           **{f"generated_{name}": cfg for name, cfg in GENERATED.items()}}


# a forced sin/cos equation (T = 4) started at a negative index from a
# nonzero history; `fundamental` ignores the forcing
CSV_CONFIG = {"schema": 1, "equation": {
    "terms": [{"coeff": "0.1 + 0.02*sin(n)", "lag": 1},
              {"coeff": "0.04*abs(cos(2*n))", "lag": [1, 3]},
              {"coeff": "0.05 + 0.01*alt(n)", "lag": 4}],
    "forcing": "0.3*sin(2*n) - 0.1*cos(n)"}}
CSV_HISTORY = ["0.5", "-0.25", "1", "0", "0.3333333333333333"]
SIMULATE = ["--n0", "-3", "--history", *CSV_HISTORY, "--N", "3000"]
# name -> arguments after the config path; "--csv" writes to a file
CSV_COMMANDS = {
    "simulate_forced_stdout": ["simulate", *SIMULATE],
    "simulate_forced": ["simulate", *SIMULATE, "--csv"],
    "fundamental_k7": ["fundamental", "--k", "7", "--N", "3000", "--csv"],
}


def _golden_path(name: str) -> str:
    ext = "csv" if name in CSV_COMMANDS else "json"
    return os.path.join(GOLDEN, f"{name}.{ext}")


def _check_report(name: str, directory: str) -> bytes:
    config = os.path.join(directory, f"{name}.json")
    out = os.path.join(directory, f"{name}.report.json")
    with open(config, "w") as fh:
        json.dump(CONFIGS[name], fh)
    assert main(["check", config, "--no-meta", "--out", out]) == 0
    with open(out, "rb") as fh:
        return fh.read()


def _csv_output(name: str, directory: str) -> bytes:
    """The CSV a command writes to its --csv file or, without one, to stdout."""
    config = os.path.join(directory, "csv_config.json")
    out = os.path.join(directory, f"{name}.csv")
    with open(config, "w") as fh:
        json.dump(CSV_CONFIG, fh)
    command, *flags = CSV_COMMANDS[name]
    if flags[-1] == "--csv":
        flags.append(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([command, config, *flags]) == 0
    if flags[-1] != out:
        return stdout.getvalue().encode()
    with open(out, "rb") as fh:
        return fh.read()


def _output(name: str, directory: str) -> bytes:
    if name in CSV_COMMANDS:
        return _csv_output(name, directory)
    return _check_report(name, directory)


def _assert_golden(name: str, directory: str) -> None:
    with open(_golden_path(name), "rb") as fh:
        expected = fh.read()
    assert _output(name, directory) == expected


@pytest.mark.parametrize("name", list(FIXTURE_CONFIGS))
def test_check_report_matches_golden(name, tmp_path):
    _assert_golden(f"check_{name}", str(tmp_path))


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_report_matches_golden(name, tmp_path):
    _assert_golden(f"generated_{name}", str(tmp_path))


@pytest.mark.parametrize("name", list(CSV_COMMANDS))
def test_csv_matches_golden(name, tmp_path):
    _assert_golden(name, str(tmp_path))


def test_csv_formatter_prints_17_significant_digits():
    values = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
    text = format_csv("n,value,neg", -1, np.array(values), -np.array(values))
    rows = [f"{n},{format(v, '.17g')},{format(-v, '.17g')}"
            for n, v in zip(range(-1, 3), values)]
    assert text == "\n".join(["n,value,neg", *rows]) + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in [*CONFIGS, *CSV_COMMANDS]:
            with open(_golden_path(name), "wb") as fh:
                fh.write(_output(name, tmp))
            print(f"wrote {_golden_path(name)}", file=sys.stderr)
