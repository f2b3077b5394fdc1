import random
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from virab import repmod
from virab.repmod import ModuleSpec
from virab.scalars import I, MINUS_ONE, ONE, ZERO, Scalar

# every property test draws the same examples on every run, has no
# per-example deadline (exact arithmetic on a loaded host varies) and a
# bounded example count, so tier-1 stays reproducible and quick
settings.register_profile("virab", derandomize=True, deadline=None,
                          max_examples=100, database=None)
# the same with twenty times the examples, for the tests marked oracle in
# CI: pytest --hypothesis-profile=virab-long -m oracle
settings.register_profile("virab-long", settings.get_profile("virab"),
                          max_examples=2000)
settings.load_profile("virab")


def sc(x) -> Scalar:
    """Scalar from anything Fraction accepts: sc(3), sc("1/2"), sc("-2")."""
    f = Fraction(x)
    return Scalar.rational(f.numerator, f.denominator)


def sci(re, im) -> Scalar:
    """Scalar re + im*i from two Fraction-like inputs."""
    return sc(re) + sc(im) * I


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fresh_bases():
    """An empty memo of proved base modules (``repmod._VANISHED``) before
    and after the test, so that no base proved under patched data formulas
    or bracket tables serves another test."""
    repmod._VANISHED.clear()
    yield
    repmod._VANISHED.clear()


@pytest.fixture
def digit_limit():
    """Python's default limit on int-string conversion, 4300 digits, for
    one test; the limit from before the test is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string conversion limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


# modules for the replay tests of the orbit and of the action's bounds:
# phi at b = 0, 1/2 and 2 (t*C[s,t] invariant), phi at b = +-1 with alpha
# != 0 (not invariant) and theta
REPLAY_SPECS = [
    ModuleSpec.phi(b=ZERO, lam=sc(2), coeffs=(ONE, sc("-1/3"))),
    ModuleSpec.phi(b=sc("1/2"), lam=sci(0, 1), coeffs=(ZERO, ONE)),
    ModuleSpec.phi(b=sc(2), lam=sc("-1/2"), coeffs=(ONE,)),
    ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=(ONE,)),
    ModuleSpec.phi(b=MINUS_ONE, lam=sc(3), alpha=sc("3/2"), coeffs=(sc(2),)),
    ModuleSpec.theta(lam=sc(2), coeffs=(ZERO, ONE, ONE)),
]
