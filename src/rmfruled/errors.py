"""Geometry error hierarchy shared across modules."""


class GeometryError(Exception):
    """Base class for geometric degeneracies and invalid evaluations."""


class ParameterOutOfRange(GeometryError):
    """Curve or surface parameter outside the declared range."""


class DegenerateTangent(GeometryError):
    """|r'| below the regularity threshold; no tangent direction."""


class VanishingCurvature(GeometryError):
    """Curvature below threshold; the principal normal is undefined."""


class ZeroDirector(GeometryError):
    """Ruling direction has (near-)zero length."""


class CylindricalPoint(GeometryError):
    """Ruling direction is stationary; distribution parameter undefined."""


class SingularPoint(GeometryError):
    """Surface partials are linearly dependent; no normal."""


class TangentRuling(GeometryError):
    """Ruling parallel to the tangent at the base curve (x2 = x3 = 0)."""
