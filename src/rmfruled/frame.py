"""Adapted frames {T, U, V} along a curve.

Two policies fix the angle theta between the principal normal N and U:

* :class:`RotationMinimizing` -- theta solves d(theta)/dt = -|r'| * tau from
  an initial angle, so the normal-plane rotation rate vanishes (true RMF).
* :class:`ExplicitTheta` -- theta(s) is a user-supplied expression.

The frame itself is U = cos(theta) N + sin(theta) B, V = -sin(theta) N +
cos(theta) B.  Discrete RMF propagation via double reflection is provided
both as a standalone operation and as the fallback for integrating theta
across curvature-free points, where tau is undefined but the RMF is not.
The RMF angle is tabulated once per curve, on 256 uniform cells where their
own Richardson check (Simpson on h against 2h) shows an error of at most
``TOL_TABLE``, and on 2048 cells otherwise, and read between nodes from the
rates the table holds at every half cell.  The table is built at its first
use, and a first grid of frame queries takes no Frenet call of its own: it
rides on the table's first call.
Frames, angles and frame derivatives take a float or a 1-D grid, as
:func:`curve.frenet` does, each grid element equal to the float evaluation.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from . import expr as ex
from .curve import (CurveDef, FrenetData, _guard, _per_sample, frenet,
                    tangent_data, vec_cross)
from .errors import GeometryError
from .record import Record

_N_CELLS = 2048  # uniform cells of the RMF angle table at most, one Simpson panel each
_COARSE = 8  # the table is tried first on every 8th of those nodes (256 cells)
TOL_TABLE = 1e-13  # rad; the largest Richardson difference that table may show
# what a grid Frenet call raises for the grid as a whole, such as a parameter
# out of range or a speed past curve.MAX_SPEED
_FRENET_ERRORS = (ArithmeticError, GeometryError, ex.ExprError)


class RotationMinimizing(Record):
    """True RMF with initial angle theta0 (radians) at the range start."""

    __slots__ = ("theta0",)
    _defaults = {"theta0": 0.0}


class ExplicitTheta(Record):
    """User-supplied theta(s), an :data:`expr.Expr`; must be differentiable
    on the full range."""

    __slots__ = ("theta",)

    @staticmethod
    def from_string(text: str) -> "ExplicitTheta":
        return ExplicitTheta(ex.parse(text))


ThetaPolicy = Union[RotationMinimizing, ExplicitTheta]


class AdaptedFrame(Record):
    """Orthonormal right-handed {T, U, V} with the angle theta and its
    derivative ``theta_prime`` = d(theta)/dt in the curve parameter."""

    __slots__ = ("T", "U", "V", "theta", "theta_prime")


class AngleTable(Record):
    """The RMF angle ``thetas`` at increasing ``nodes``, the ``rates``
    d(theta)/dt there and ``mids`` at the cell midpoints (NaN if none), and
    ``richardson``, the sum over pairs of cells of |S_h - S_2h| (see
    :func:`theta_rmf`)."""

    __slots__ = ("nodes", "thetas", "rates", "mids", "richardson")


def _cos_sin(theta):
    """(cos, sin) of a float, or per sample of a grid (numpy rounds these two
    as ``math`` does)."""
    return ex._apply(math.cos, theta), ex._apply(math.sin, theta)


def adapted_frame(fd: FrenetData, theta, theta_prime) -> AdaptedFrame:
    """Rotate (N, B) by theta in the normal plane; one row per grid sample."""
    c, s = map(_per_sample, _cos_sin(theta))
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
    phi = _per_sample(frame_angular_velocity(fd, af))
    c, s = map(_per_sample, _cos_sin(af.theta))
    k = _per_sample(fd.kappa)
    dT = k * fd.N
    dU = -k * c * fd.T + phi * af.V
    dV = k * s * fd.T - phi * af.U
    return dT, dU, dV


# ---------------------------------------------------------------------------
# theta integration


def _theta_rate(fd: FrenetData):
    """-|r'| tau; NaN where that is not finite, which is no rate."""
    rate = -fd.speed * fd.tau
    if isinstance(rate, np.ndarray):
        return np.where(np.isfinite(rate), rate, np.nan)
    return rate if math.isfinite(rate) else math.nan


def _simpson(h, a, m, b):
    """One Simpson panel of width ``h`` from the rates at its ends and midpoint."""
    return h * (a + 4.0 * m + b) / 6.0


def _theta_across_flat(c: CurveDef, t0: float, t1: float, theta0: float) -> float:
    """Carry theta over an interval containing curvature-free points.

    Propagates U by double reflection (defined for any regular curve) on 33
    samples and re-extracts theta where the principal normal exists again.
    The 2*pi branch is chosen closest to the incoming angle.
    """
    sub = np.linspace(t0, t1, 33)
    pts, tans, _ = tangent_data(c, sub)
    ex._float_path(lambda t: tangent_data(c, t), sub, tans)  # the first failure raises
    fd0 = frenet(c, t0)  # endpoints must admit a Frenet frame
    af0 = adapted_frame(fd0, theta0, 0.0)
    U, _ = double_reflection(pts, tans, af0.U)
    fd1 = frenet(c, t1)
    u_end = U[-1]
    theta1 = math.atan2(float(np.dot(u_end, fd1.B)), float(np.dot(u_end, fd1.N)))
    theta1 += 2.0 * math.pi * round((theta0 - theta1) / (2.0 * math.pi))
    return theta1


def _richardson(grid, rates, steps) -> float:
    """Sum over pairs of cells of |S_h - S_2h|: S_h the two cells' own Simpson
    steps, S_2h one Simpson panel over both with the middle node as midpoint.
    NaN for an odd number of cells; a NaN or infinite rate makes it NaN or inf."""
    if len(steps) % 2:
        return math.nan
    s_2h = _simpson(grid[2::2] - grid[:-2:2], rates[:-2:2], rates[1:-1:2], rates[2::2])
    return float(np.sum(np.abs(steps[::2] + steps[1::2] - s_2h)))


def _table(c: CurveDef, theta0: float, grid, rates, mids, tol=None):
    """The :class:`AngleTable` on ``grid`` from the rates at its nodes and
    panel midpoints; with ``tol``, None unless its Richardson difference is
    at most ``tol``."""
    steps = _simpson(np.diff(grid), rates[:-1], mids, rates[1:])
    richardson = _richardson(grid, rates, steps)
    if tol is not None and not richardson <= tol:
        return None
    thetas = np.full(len(grid), float(theta0))
    flat = np.append(~np.isfinite(steps), True)  # sentinel past the last interval
    k = 0
    while k < len(grid) - 1:
        # Sum panels up to the next interval without a Frenet frame.
        j = k + int(np.argmax(flat[k:]))
        thetas[k:j + 1] = np.cumsum(np.concatenate(([thetas[k]], steps[k:j])))
        if j == len(steps):
            break
        # One bridge to the next node with a rate, or to the last node; the gap
        # nodes have no defined angle (nor adapted frame) and get interpolated
        # placeholders.  A tangent is checked first on 33 points of the first
        # cell, then on the later nodes it spans (all if node k has no rate).
        k = j
        ahead = np.flatnonzero(~np.isnan(rates[k + 1:]))
        j = k + 1 + int(ahead[0]) if ahead.size else len(grid) - 1
        rest = grid[k + 2:] if np.isnan(rates[k]) else grid[k + 2:j]
        gap = np.concatenate((np.linspace(grid[k], grid[k + 1], 33), rest))
        ex._float_path(lambda t: tangent_data(c, t), gap, tangent_data(c, gap)[1])
        thetas[j] = _theta_across_flat(c, float(grid[k]), float(grid[j]), float(thetas[k]))
        thetas[k + 1:j] = np.interp(grid[k + 1:j], grid[[k, j]], thetas[[k, j]])
        k = j
    return AngleTable(grid, thetas, rates, mids, richardson)


def _cubic_integrals(x):
    """24 times the integrals from 0 to x of the four Lagrange cubics on the
    points 0, 1, 2, 3, elementwise, so that a float and a grid round alike."""
    return (x * (24.0 + x * (-22.0 + x * (8.0 - x))),
            x * x * (36.0 + x * (-20.0 + x * 3.0)),
            x * x * (-18.0 + x * (16.0 - x * 3.0)),
            x * x * (4.0 + x * (-4.0 + x)))


def _frenet_pass(c: CurveDef, grids, extra=()) -> list:
    """The FrenetData of each of ``grids``, then of each of ``extra``, from one
    :func:`curve.frenet` call on them all.  Where that call raises, ``grids``
    take a call of their own, which raises as they do alone, and each of
    ``extra`` is None."""
    try:
        return ex._stacked(lambda t: frenet(c, t), (*grids, *extra))
    except _FRENET_ERRORS:
        if not extra:
            raise
    return ex._stacked(lambda t: frenet(c, t), grids) + [None] * len(extra)


def theta_rmf(c: CurveDef, theta0: float, grid, *, tol=None, query=None):
    """Integrate d(theta)/dt = -|r'| tau over an increasing parameter grid.

    The rate does not depend on theta, so each grid interval is one Simpson
    panel (rates at its two nodes and its midpoint) and the angle is their
    cumulative sum.  The rates are ``-fd.speed * fd.tau`` of one
    :func:`curve.frenet` call on the nodes stacked on the midpoints, NaN where
    the curvature vanishes or that is not finite, and each gap of such panels
    (or of infinite steps) takes one double reflection bridge, to the next
    node with a rate or the last node.  A node or midpoint without a tangent
    (a cusp, or a curve undefined there) has no rate either.  A gap's first
    cell on 33 points, its later nodes (all if its first node has no rate)
    and the bridge's sub-samples are checked in turn: the first without a
    tangent ends the job with the float call's error.
    Returns the :class:`AngleTable`, theta kept unwrapped.

    With ``tol``, the table is sized by its own error: ``grid`` must hold
    8k + 1 nodes, and the angle is first integrated on every 8th of them,
    whose panel midpoints are the nodes halfway between.  That table of k
    cells is returned if its Richardson difference is at most ``tol`` (a NaN or
    infinite rate fails).  Otherwise, or if its rate call raises, the table
    on the whole grid is returned as without ``tol``, bit for bit; only its
    nodes that the first try did not hold are evaluated.

    With ``query``, a grid of frame queries, the table's first Frenet call
    also takes the query.  Returns ``(table, fd)``, ``fd`` the FrenetData at
    the query, each element as a call at the query alone gives it.  Where the
    call with the query raises, the table's points take one alone, so the
    table raises or not as without a query, and ``fd`` is None.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must hold at least two parameter values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    rates, fresh = np.empty(len(grid)), np.ones(len(grid), dtype=bool)
    extra, fd = () if query is None else (query,), [None]
    if tol is not None:
        if (len(grid) - 1) % _COARSE:
            raise ValueError(f"grid must hold a multiple of {_COARSE} cells")
        half = _COARSE // 2
        try:
            coarse, *fd = _frenet_pass(c, (grid[::half],), extra)
        except _FRENET_ERRORS:
            pass  # the whole grid raises it again, or its own first error
        else:
            known = _theta_rate(coarse)
            table = _table(c, theta0, grid[::_COARSE], known[::2], known[1::2], tol)
            if table is not None:
                return table if query is None else (table, *fd)
            rates[::half], fresh[::half] = known, False
        extra = ()
    at_nodes, at_mids, *got = _frenet_pass(
        c, (grid[fresh], 0.5 * (grid[:-1] + grid[1:])), extra)
    rates[fresh] = _theta_rate(at_nodes)
    table = _table(c, theta0, grid, rates, _theta_rate(at_mids))
    return table if query is None else (table, *(got or fd))


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
    V[0] = vec_cross(tans[0], U[0])
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
        V[i + 1] = vec_cross(tans[i + 1], un)
    return U, V


# ---------------------------------------------------------------------------
# dense frame field


class FrameField:
    """Adapted frame evaluable at arbitrary parameters.

    For the RMF policy, theta is tabulated on a uniform node grid once, one
    Simpson panel per cell (:func:`theta_rmf`), and read at a query from the
    node below it and the rates the table holds at its nodes and midpoints
    (:meth:`theta_at`), so that a query needs the Frenet data at its own
    points only.  The table takes 256 cells if every rate on them is finite
    and their Richardson difference is at most ``TOL_TABLE``, and 2048
    otherwise; ``cells`` and ``richardson`` keep the count and the difference
    of the table taken.

    The table is built at first use; only the check that the range holds
    2048 distinct cells is made at construction.  A first grid of queries is
    evaluated in the table's first Frenet call; where that call raises, the
    table's points take one alone and the query its own, so each raises what
    it raises apart.  A first float query, or a read of ``table``, ``cells``,
    ``richardson``, ``_nodes``, ``_thetas`` or ``_rates`` before any query,
    builds the table alone.  Every later query takes one Frenet call of its
    own (:meth:`frame_at`).
    """

    def __init__(self, c: CurveDef, policy: ThetaPolicy):
        self.curve = c
        self.policy = policy
        self._table = None
        if self.is_rmf:
            self._grid = np.linspace(c.t_min, c.t_max, _N_CELLS + 1)
            if not np.all(np.diff(self._grid) > 0):
                raise GeometryError(f"range [{c.t_min}, {c.t_max}] is too narrow "
                                    f"for {_N_CELLS} angle-table cells")

    @property
    def is_rmf(self) -> bool:
        return isinstance(self.policy, RotationMinimizing)

    @property
    def table(self) -> AngleTable:
        """The RMF :class:`AngleTable`, built alone if no query has built it."""
        if self._table is None:
            self._table = theta_rmf(self.curve, self.policy.theta0, self._grid,
                                    tol=TOL_TABLE)
        return self._table

    cells = property(lambda self: len(self.table.nodes) - 1)
    richardson = property(lambda self: self.table.richardson)
    _nodes = property(lambda self: self.table.nodes)
    _thetas = property(lambda self: self.table.thetas)
    _rates = property(lambda self: self.table.rates)

    def theta_at(self, t, fd: FrenetData):
        """(theta, d(theta)/dt) at t, a float or a grid, whose Frenet data is
        ``fd``.  Under the RMF, theta' is the rate of ``fd`` and theta the
        table's angle at the node k below t plus the integral from node k of
        the cubic through four of the table's rates, at the half cells j to
        j + 3 for j = clip(2k - 1, 0, 2n - 3) of n cells; a sample on a node
        keeps the node's angle.  A sample with a rate whose cubic meets a
        missing one is bridged from the last node at or below it with a rate,
        or from node 0, whose angle is theta0, if none has one.
        A non-finite theta or theta' is NaN on a grid; at a float it raises
        GeometryError (RMF) or ExprDomainError (explicit theta)."""
        if self.is_rmf:
            table, rate = self.table, _theta_rate(fd)
            nodes, rates, n = table.nodes, table.rates, len(table.nodes) - 1
            h = float(nodes[-1] - nodes[0]) / n
            k = np.fmin(np.fmax((t - nodes[0]) // h, 0), n - 1).astype(int)  # NaN -> 0
            xk = np.minimum(k, 1)  # node k in half cells from the cubic's first one
            half = np.append(np.column_stack((rates[:-1], table.mids)), rates[-1])
            step = sum((a - b) * half[2 * k - xk + i] for i, (a, b) in enumerate(zip(
                _cubic_integrals(xk + 2.0 * (t - nodes[k]) / h), _cubic_integrals(xk))))
            th0 = table.thetas[k]
            theta = np.where(np.isnan(rate), np.nan,
                             np.where(t == nodes[k], th0, th0 + h / 48.0 * step))
            for i in np.flatnonzero(np.isnan(theta) & ~np.isnan(rate)).tolist():
                # Bridge from the last node at or below t with a rate, or node 0.
                b = max(np.flatnonzero(~np.isnan(rates[:np.ravel(k)[i] + 1])), default=0)
                start = float(nodes[b]), float(np.ravel(t)[i]), float(table.thetas[b])
                np.ravel(theta)[i] = _theta_across_flat(self.curve, *start)
            theta = theta if isinstance(t, np.ndarray) else theta.item()
            error = lambda: GeometryError(
                f"theta={theta} (tau={fd.tau}) is not finite at s={t}")
        else:
            jet = ex.eval_jet(self.policy.theta, t, 1)
            theta, rate = jet.value, jet.d1
            error = lambda: ex.ExprDomainError(
                f"theta={theta}, theta'={rate} is not finite at s={t}")
        bad = ~(np.isfinite(theta) & np.isfinite(rate))
        return tuple(_guard(x, bad, error) for x in (theta, rate))

    def frenet_at(self, t) -> FrenetData:
        return frenet(self.curve, t)

    def frame_at(self, t):
        """(FrenetData, AdaptedFrame) at t; a grid has NaN N, B, U, V where
        kappa = 0.  The Frenet data come from one call at t alone, or, for a
        first grid query under the RMF, from the table's first call."""
        fd = None
        if self.is_rmf and self._table is None and isinstance(t, np.ndarray):
            self._table, fd = theta_rmf(self.curve, self.policy.theta0, self._grid,
                                        tol=TOL_TABLE, query=t)
        elif self.is_rmf:
            self.table  # built before the query's call, so that its error comes first
        fd = fd or self.frenet_at(t)
        theta, theta_prime = self.theta_at(t, fd)
        return fd, adapted_frame(fd, theta, theta_prime)
