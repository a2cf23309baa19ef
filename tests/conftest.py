import os
import subprocess
import sys
import textwrap

import pytest

from delaystab import DelaySpec, Term, parse, validate

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _peak_rss_growth(setup: str, run: str) -> int:
    """KiB by which the peak RSS of a fresh interpreter grows while it runs
    ``run``, after ``setup`` (imports, inputs).  A child process, as
    tracemalloc slows the step loop about twenty-fold."""
    code = "\n".join([textwrap.dedent(setup), "import resource",
                      "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
                      textwrap.dedent(run),
                      "print(base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"])
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    base, peak = map(int, r.stdout.split()[-2:])
    return peak - base


@pytest.fixture(scope="session")
def peak_rss_growth():
    return _peak_rss_growth


@pytest.fixture(scope="session")
def eq_factorial():
    return validate([Term(parse("1 - 1/(n+1)"), DelaySpec.constant(0))])


@pytest.fixture(scope="session")
def eq_vanishing():
    return validate([Term(parse("3^(-n-1)"), DelaySpec.constant(0))])


@pytest.fixture(scope="session")
def eq_unbounded():
    return validate([
        Term(parse("2.2"), DelaySpec.constant(1)),
        Term(parse("-2"), DelaySpec.constant(0)),
    ])


@pytest.fixture(scope="session")
def eq_sin_cos():
    return validate([
        Term(parse("0.2 + 0.05*sin(n)"), DelaySpec.constant(1)),
        Term(parse("0.1*abs(cos(n))"), DelaySpec.constant(20)),
    ])


@pytest.fixture(scope="session")
def eq_alternating():
    return validate([
        Term(parse("0.12 + 0.1*alt(n)"), DelaySpec.constant(2)),
        Term(parse("0.1 + 0.11*alt(n)"), DelaySpec.constant(14)),
    ])


@pytest.fixture(scope="session")
def eq_periodic_mixed():
    return validate([
        Term(parse("per(-0.12, -0.05)"), DelaySpec.periodic([3, 5])),
        Term(parse("per(0.17, 0.08)"), DelaySpec.periodic([4, 8])),
    ])


@pytest.fixture(scope="session")
def eq_zero():
    return validate([Term(parse("0"), DelaySpec.constant(0))])
