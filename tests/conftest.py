import pytest

from delaystab import DelaySpec, Term, parse, validate


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
