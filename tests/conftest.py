import math
from pathlib import Path

import pytest

from rmfruled.curve import CurveDef
from rmfruled.frame import ExplicitTheta, RotationMinimizing
from rmfruled.ruled import DirectorField, RuledSurface, RuledSurfaceDef

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session")
def helix():
    """Unit-speed helix with kappa = 0.6, tau = 0.8."""
    return CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", -5.0, 5.0)


@pytest.fixture(scope="session")
def helix_2pi():
    return CurveDef.from_strings("3/5*cos(s)", "3/5*sin(s)", "4/5*s", 0.0, TWO_PI)


@pytest.fixture(scope="session")
def line():
    return CurveDef.from_strings("s", "0", "0", -2.0, 8.0)


def make_surface(curve, policy, x1, x2, x3, v_min=-1.0, v_max=1.0):
    sdef = RuledSurfaceDef(curve, policy,
                           DirectorField.from_strings(x1, x2, x3), v_min, v_max)
    return RuledSurface(sdef)


@pytest.fixture(scope="session")
def geodesic_example(helix):
    """Helix with x = (s^2, s^2, s), theta = atan(s): base curve is geodesic."""
    return make_surface(helix, ExplicitTheta.from_string("atan(s)"),
                        "s^2", "s^2", "s")


@pytest.fixture(scope="session")
def asymptotic_example(helix):
    """Helix with x = (s^2, s, -s^2), theta = atan(s): base curve is asymptotic."""
    return make_surface(helix, ExplicitTheta.from_string("atan(s)"),
                        "s^2", "s", "-s^2")


@pytest.fixture(scope="session")
def rmf_polynomial(helix):
    """General RMF-framed surface with polynomial coefficients."""
    return make_surface(helix, RotationMinimizing(0.3), "s", "1+s^2", "s")
