"""Behaviour contract: `check --no-meta` reports on the shipped fixtures
must stay byte-identical.  Regenerate the files only for a documented
behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys

import pytest

from delaystab.cli import main
from delaystab.fixtures import FIXTURE_CONFIGS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"check_{name}.json")


def _check_report(name: str, directory: str) -> bytes:
    config = os.path.join(directory, f"{name}.json")
    out = os.path.join(directory, f"{name}.report.json")
    with open(config, "w") as fh:
        json.dump(FIXTURE_CONFIGS[name], fh)
    assert main(["check", config, "--no-meta", "--out", out]) == 0
    with open(out, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", list(FIXTURE_CONFIGS))
def test_check_report_matches_golden(name, tmp_path):
    with open(_golden_path(name), "rb") as fh:
        expected = fh.read()
    assert _check_report(name, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for fixture in FIXTURE_CONFIGS:
            with open(_golden_path(fixture), "wb") as fh:
                fh.write(_check_report(fixture, tmp))
            print(f"wrote {_golden_path(fixture)}", file=sys.stderr)
