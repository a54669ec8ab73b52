from fractions import Fraction

import pytest

from gparith.exactnum import NumberField
from gparith.focheck import AlphaContext


@pytest.fixture(scope="session")
def cbrt2_field():
    return NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))


@pytest.fixture(scope="session")
def sqrt2_field():
    return NumberField([-2, 0, 1], (Fraction(1), Fraction(2)))


@pytest.fixture(scope="session")
def alpha(cbrt2_field):
    return cbrt2_field.theta


@pytest.fixture(scope="session")
def sqrt2(sqrt2_field):
    return sqrt2_field.theta


@pytest.fixture(scope="session")
def ctx(alpha):
    return AlphaContext(alpha, 1)


@pytest.fixture(scope="session")
def bohr_world(sqrt2):
    from gparith.bohr import BohrParams, BohrWorld

    return BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))
