import random
from fractions import Fraction

import pytest
from hypothesis import settings

from virab.scalars import I, Scalar

# every property test draws the same examples on every run, has no
# per-example deadline (exact arithmetic on a loaded host varies) and a
# bounded example count, so tier-1 stays reproducible and quick
settings.register_profile("virab", derandomize=True, deadline=None,
                          max_examples=100, database=None)
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
