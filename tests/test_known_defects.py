"""Known defects, pinned as strict xfails until they are mended.

Each test states what correct code must give and fails today; the change that
mends a defect drops its mark, and ``strict=True`` fails the suite if a test
starts to pass with its mark still on.  The configs are written inline: the
first is ``configs/proportional_normal_coeffs.json`` and its director scaled,
the other two are configs 981 and 431 of ``tests/differential.py`` at seed 0.
All three put a helix under the RMF.
"""

import numpy as np
import pytest

from rmfruled import invariants, ruled
from rmfruled.curve import CurveDef
from rmfruled.frame import RotationMinimizing
from rmfruled.ruled import DirectorField, RuledSurface, RuledSurfaceDef

HELIX = ("3/5*cos(s)", "3/5*sin(s)", "4/5*s")


def _helix(lo, hi, theta0, x1, x2, x3, v_min, v_max) -> RuledSurfaceDef:
    return RuledSurfaceDef(CurveDef.from_strings(*HELIX, lo, hi),
                           RotationMinimizing(theta0),
                           DirectorField.from_strings(x1, x2, x3), v_min, v_max)


def _classification(sdef, n_s, n_v) -> tuple:
    """classify's verdict and special case, and the four base-curve flags."""
    surface = RuledSurface(sdef)
    with np.errstate(all="ignore"):
        report = ruled.classify(surface, n_s, n_v)
        bc = invariants.base_curve_report(
            surface, np.linspace(sdef.curve.t_min, sdef.curve.t_max, n_s))
    return (report.verdict, report.special_case, bc.is_geodesic, bc.is_asymptotic,
            bc.is_curvature_line_frame, bc.is_curvature_line_rodrigues)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 2 and 6: TOL_DEV bounds the raw det(T, X, X'), which scales "
    "as |X|^2, so X -> 1e6 X says 'no' (max |det| 7.97e-3) where X says 'yes'"))
def test_rescaled_director_keeps_the_classification():
    # the same point set: each coefficient times 1e6, v_range divided by it
    original = _helix(0.5, 5.0, 0.0, "0", "2*s", "s", -1.0, 1.0)
    scaled = _helix(0.5, 5.0, 0.0, "1e6*0", "1e6*2*s", "1e6*s", -1e-6, 1e-6)
    assert _classification(scaled, 101, 11) == _classification(original, 101, 11)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md (ruling_det by np.linalg.det): rows 200 orders apart "
    "give det 0.0 and inf where the closed numerator reads 9.597e198 and 1.740e199"))
def test_ruling_det_agrees_with_the_closed_numerator_at_1e200():
    surface = RuledSurface(_helix(0.0, 1.0, 2.665, "s", "0", "1e200*s", -7.96, -2.74))
    s = np.array([0.5, 1.0])
    with np.errstate(all="ignore"):
        numeric, closed = surface.ruling_det(s), surface.det_numerator_closed(s)
    np.testing.assert_allclose(numeric, closed, rtol=1e-12, atol=0)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md (special case from the grid nodes only): x3 = "
    "log|s|/s vanishes at both nodes s = -1 and 1 but not between them"))
def test_span_needs_the_coefficient_to_vanish_between_the_nodes():
    surface = RuledSurface(_helix(-1.0, 1.0, -0.433, "s^2", "cos(s)",
                                  "(log(abs(s)))/(s)", -0.001, 2.0))
    with np.errstate(all="ignore"):
        report = ruled.classify(surface, 2, 3)
    assert report.special_case != "span{T,U}"
