"""The behaviour contract in bytes: the default-seed ``check --no-meta``
reports of every ``check_general`` and ``check_periodic`` job of
``perfbench/corpus.py``, at the sizes ``perfbench/run.py`` builds for a 30 s
run, concatenated in corpus order and hashed.

The benchmark gate compares verdicts and witnesses, within its tolerance,
on a subset of the jobs; these hashes pin every byte of every report,
citations, error bounds and the equation echo included.  A change that
moves a report on purpose says why and pins the new hash.  The test only
reads ``perfbench/``, through ``test_benchmark_gate``'s import of it.
"""

import contextlib
import hashlib
import io
import json

import pytest
from test_benchmark_gate import SIZES, corpus

from delaystab import cli

# (reports, sha256 of their concatenation)
REPORT_HASHES = {
    "check_general": (27, "7c73c60fb4a100c323365ca3ef360cc0682509d4f6908bb318aaa5d3c84571a2"),
    "check_periodic": (483, "3c02b97079d8160b55be2c7281838582a81606350bd2a11d2ed96aa2135b91a1"),
}


@pytest.mark.parametrize("workload", list(SIZES))
def test_corpus_reports_keep_their_hash(workload, tmp_path):
    items = getattr(corpus, workload)(corpus.DEFAULT_SEED, SIZES[workload])
    job_path, out = tmp_path / "job.json", tmp_path / "report.json"
    digest = hashlib.sha256()
    for item in items:
        job_path.write_text(json.dumps(item.args["job"]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", str(job_path), "--no-meta", "--out", str(out)]) == 0, item.name
        digest.update(out.read_bytes())
    assert (len(items), digest.hexdigest()) == REPORT_HASHES[workload]
