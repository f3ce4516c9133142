"""Adapted frames {T, U, V} along a curve.

Two policies fix the angle theta between the principal normal N and U:

* :class:`RotationMinimizing` -- theta solves d(theta)/dt = -|r'| * tau from
  an initial angle, so the normal-plane rotation rate vanishes (true RMF).
* :class:`ExplicitTheta` -- theta(s) is a user-supplied expression.

The frame itself is U = cos(theta) N + sin(theta) B, V = -sin(theta) N +
cos(theta) B.  Discrete RMF propagation via double reflection is provided
both as a standalone operation and as the fallback for integrating theta
across curvature-free points, where tau is undefined but the RMF is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import expr as ex
from .curve import CurveDef, FrenetData, frenet, tangent_data
from .errors import GeometryError, VanishingCurvature


@dataclass(frozen=True)
class RotationMinimizing:
    """True RMF with initial angle theta0 (radians) at the range start."""

    theta0: float = 0.0


@dataclass(frozen=True)
class ExplicitTheta:
    """User-supplied theta(s); must be differentiable on the full range."""

    theta: ex.Expr

    @staticmethod
    def from_string(text: str) -> "ExplicitTheta":
        return ExplicitTheta(ex.parse(text))


ThetaPolicy = Union[RotationMinimizing, ExplicitTheta]


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal right-handed {T, U, V} with the angle and its t-derivative."""

    T: np.ndarray
    U: np.ndarray
    V: np.ndarray
    theta: float
    theta_prime: float  # d(theta)/dt in the curve parameter


def adapted_frame(fd: FrenetData, theta: float, theta_prime: float) -> AdaptedFrame:
    """Rotate (N, B) by theta in the normal plane."""
    c, s = math.cos(theta), math.sin(theta)
    U = c * fd.N + s * fd.B
    V = -s * fd.N + c * fd.B
    return AdaptedFrame(fd.T, U, V, theta, theta_prime)


def frame_angular_velocity(fd: FrenetData, af: AdaptedFrame) -> float:
    """Normal-plane rotation rate phi = theta'/|r'| + tau (zero for the RMF)."""
    return af.theta_prime / fd.speed + fd.tau


def frame_derivatives(fd: FrenetData, af: AdaptedFrame):
    """Arc-length derivatives (T', U', V') of a general adapted frame.

    With phi the normal-plane rotation rate:  U' = -kappa cos(theta) T + phi V
    and V' = kappa sin(theta) T - phi U.  phi = 0 recovers the RMF rules,
    where U' and V' are parallel to the tangent.
    """
    phi = frame_angular_velocity(fd, af)
    c, s = math.cos(af.theta), math.sin(af.theta)
    dT = fd.kappa * fd.N
    dU = -fd.kappa * c * fd.T + phi * af.V
    dV = fd.kappa * s * fd.T - phi * af.U
    return dT, dU, dV


# ---------------------------------------------------------------------------
# theta integration


def _theta_rate(fd: FrenetData) -> float:
    return -fd.speed * fd.tau


def _theta_rates(c: CurveDef, ts: np.ndarray, flat_fallback: bool) -> np.ndarray:
    """d(theta)/dt on a parameter grid; NaN where the curvature vanishes."""
    fd = frenet(c, ts)
    rates = _theta_rate(fd)
    if not flat_fallback and np.isnan(rates).any():
        k = int(np.argmax(np.isnan(rates)))
        raise VanishingCurvature(f"kappa={fd.kappa[k]:.3e} at t={float(ts[k])}")
    return rates


def _theta_across_flat(c: CurveDef, t0: float, t1: float, theta0: float,
                       n_sub: int = 33) -> float:
    """Carry theta over an interval containing curvature-free points.

    Propagates U by double reflection (defined for any regular curve) and
    re-extracts theta where the principal normal exists again.  The 2*pi
    branch is chosen closest to the incoming angle.
    """
    pts, tans, _ = tangent_data(c, np.linspace(t0, t1, n_sub))
    fd0 = frenet(c, t0)  # endpoints must admit a Frenet frame
    af0 = adapted_frame(fd0, theta0, 0.0)
    U, _ = double_reflection(pts, tans, af0.U)
    fd1 = frenet(c, t1)
    u_end = U[-1]
    theta1 = math.atan2(float(np.dot(u_end, fd1.B)), float(np.dot(u_end, fd1.N)))
    theta1 += 2.0 * math.pi * round((theta0 - theta1) / (2.0 * math.pi))
    return theta1


def theta_rmf(c: CurveDef, theta0: float, grid, flat_fallback: bool = True,
              *, node_rates: np.ndarray | None = None) -> np.ndarray:
    """Integrate d(theta)/dt = -|r'| tau over an increasing parameter grid.

    The rate does not depend on theta, so each grid interval is one Simpson
    panel (rates at its two nodes and its midpoint) and the angle is their
    cumulative sum.  Intervals where the curvature vanishes are bridged by
    double reflection when ``flat_fallback`` is set, and raise otherwise.
    Returns theta values aligned with the grid; theta is kept unwrapped.
    ``node_rates``, if given, receives the rates at the nodes (NaN if flat).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must hold at least two parameter values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    rates = _theta_rates(c, grid, flat_fallback)
    mids = _theta_rates(c, 0.5 * (grid[:-1] + grid[1:]), flat_fallback)
    steps = np.diff(grid) * (rates[:-1] + 4.0 * mids + rates[1:]) / 6.0
    if node_rates is not None:
        node_rates[:] = rates
    thetas = np.full(len(grid), float(theta0))
    flat = np.append(np.isnan(steps), True)  # sentinel past the last interval
    k = 0
    while k < len(grid) - 1:
        # Sum panels up to the next interval without a Frenet frame.
        j = k + int(np.argmax(flat[k:]))
        thetas[k:j + 1] = np.cumsum(np.concatenate(([thetas[k]], steps[k:j])))
        if j == len(steps):
            break
        # Bridge to the next node where the Frenet frame exists again; the
        # gap nodes themselves have no defined angle and get interpolated
        # placeholders (no adapted frame exists there anyway).
        k = j
        for j in range(k + 1, len(grid)):
            try:
                thetas[j] = _theta_across_flat(c, float(grid[k]), float(grid[j]),
                                               float(thetas[k]))
                break
            except VanishingCurvature:
                if j == len(grid) - 1:
                    raise
        thetas[k + 1:j] = np.interp(grid[k + 1:j], grid[[k, j]], thetas[[k, j]])
        k = j
    return thetas


# ---------------------------------------------------------------------------
# discrete propagation


def double_reflection(points, tangents, u0):
    """Discrete RMF sweep: two reflections per step.

    Each step reflects (U_i, T_i) across the bisecting plane of the two
    sample points, then across the bisecting plane of the reflected tangent
    and T_{i+1}.  Returns arrays (U, V) aligned with the samples.
    """
    pts = np.asarray(points, dtype=float)
    tans = np.asarray(tangents, dtype=float)
    if pts.shape != tans.shape or pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("points and tangents must be equal-length lists of >= 2")
    u = np.asarray(u0, dtype=float)
    if abs(float(np.dot(u, tans[0]))) >= 1e-10:
        raise ValueError("u0 must be perpendicular to the initial tangent")
    n = pts.shape[0]
    U = np.empty((n, 3))
    V = np.empty((n, 3))
    U[0] = u / np.linalg.norm(u)
    V[0] = np.cross(tans[0], U[0])
    for i in range(n - 1):
        v1 = pts[i + 1] - pts[i]
        c1 = float(np.dot(v1, v1))
        if c1 == 0.0:
            raise ValueError(f"coincident consecutive points at index {i}")
        uL = U[i] - (2.0 / c1) * float(np.dot(v1, U[i])) * v1
        tL = tans[i] - (2.0 / c1) * float(np.dot(v1, tans[i])) * v1
        v2 = tans[i + 1] - tL
        c2 = float(np.dot(v2, v2))
        if c2 > 0.0:
            un = uL - (2.0 / c2) * float(np.dot(v2, uL)) * v2
        else:
            un = uL
        un = un - float(np.dot(un, tans[i + 1])) * tans[i + 1]
        un /= np.linalg.norm(un)
        U[i + 1] = un
        V[i + 1] = np.cross(tans[i + 1], un)
    return U, V


# ---------------------------------------------------------------------------
# dense frame field


class FrameField:
    """Adapted frame evaluable at arbitrary parameters.

    For the RMF policy, theta is tabulated on a uniform node grid once, one
    Simpson panel per cell, and queried by one more panel from the nearest
    node below, which keeps theta(t) smooth within machine accuracy (the
    starting node value is shared by both sides of every node).
    """

    def __init__(self, c: CurveDef, policy: ThetaPolicy, n_cells: int = 2048):
        self.curve = c
        self.policy = policy
        if isinstance(policy, RotationMinimizing):
            self._nodes = np.linspace(c.t_min, c.t_max, n_cells + 1)
            if not np.all(np.diff(self._nodes) > 0):
                raise GeometryError(f"range [{c.t_min}, {c.t_max}] is too narrow "
                                    f"for {n_cells} angle-table cells")
            self._rates = np.empty(n_cells + 1)
            self._thetas = theta_rmf(c, policy.theta0, self._nodes,
                                     node_rates=self._rates)
            self._h = (c.t_max - c.t_min) / n_cells

    @property
    def is_rmf(self) -> bool:
        return isinstance(self.policy, RotationMinimizing)

    def theta_at(self, t: float, fd: FrenetData):
        """(theta, d(theta)/dt) at parameter t, whose Frenet data is ``fd``."""
        if isinstance(self.policy, ExplicitTheta):
            j = ex.eval_jet(self.policy.theta, t)
            return j.value, j.d1
        rate = _theta_rate(fd)
        k = int(np.clip((t - self.curve.t_min) // self._h, 0, len(self._nodes) - 2))
        t0, th0 = float(self._nodes[k]), float(self._thetas[k])
        if t == t0:
            return th0, rate
        try:
            mid = _theta_rate(frenet(self.curve, 0.5 * (t0 + t)))
        except VanishingCurvature:
            mid = math.nan
        step = (t - t0) * (float(self._rates[k]) + 4.0 * mid + rate) / 6.0
        if math.isnan(step):
            # Bridge from the last node at or below t that has a Frenet frame.
            k = int(np.flatnonzero(~np.isnan(self._rates[:k + 1]))[-1])
            return _theta_across_flat(self.curve, float(self._nodes[k]), t,
                                      float(self._thetas[k])), rate
        return th0 + step, rate

    def frenet_at(self, t: float) -> FrenetData:
        return frenet(self.curve, t)

    def frame_at(self, t: float):
        """(FrenetData, AdaptedFrame) at parameter t."""
        fd = self.frenet_at(t)
        theta, theta_prime = self.theta_at(t, fd)
        return fd, adapted_frame(fd, theta, theta_prime)
