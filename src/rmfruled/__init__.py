"""Ruled surfaces swept by a director line in an adapted frame along a space
curve: closed-form invariants, developability classification, and numerical
cross-validation oracles."""

import os

# Before numpy loads: the only BLAS and LAPACK work here is on 3-vectors and
# 3x3 matrices, where OpenBLAS's thread pool gains nothing, and starting it
# took about 60 ms of a 165 ms numpy import on two cores.  A value the caller
# set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curve import CurveDef, FrenetData, eval_curve, frenet, validate_regular
from .expr import Jet3, eval_jet, parse, to_string
from .frame import (AdaptedFrame, AngleTable, ExplicitTheta, FrameField,
                    RotationMinimizing, adapted_frame, double_reflection,
                    frame_derivatives, theta_rmf)
from .invariants import (base_curve_report, geodesic_curvature,
                         geodesic_torsion, normal_curvature)
from .mesh_io import Mesh, tessellate, write_obj
from .ruled import (ClassificationReport, DirectorField, RuledSurface,
                    RuledSurfaceDef, classify)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame", "AngleTable", "ClassificationReport", "CurveDef", "DirectorField",
    "ExplicitTheta", "FrameField", "FrenetData", "Jet3", "Mesh",
    "RotationMinimizing", "RuledSurface", "RuledSurfaceDef", "adapted_frame",
    "base_curve_report", "classify", "double_reflection", "eval_curve",
    "eval_jet", "frame_derivatives", "frenet", "geodesic_curvature",
    "geodesic_torsion", "normal_curvature", "parse", "tessellate",
    "theta_rmf", "to_string", "validate_regular", "write_obj",
]
