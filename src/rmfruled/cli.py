"""Command-line front end.

Subcommands:

* ``frames``   -- tabulate the Frenet and adapted frames along the curve.
* ``surface``  -- tessellate the surface and write a Wavefront OBJ.
* ``classify`` -- developability / special-case report (verdict is data,
  not exit status).
* ``verify``   -- closed-form vs oracle cross-checks plus any expectations
  declared in the config; exit 1 on failure.

Exit codes: 0 ok/pass, 1 verification failed, 2 usage/config error,
3 geometry error.  Errors print one machine-parsable line to stderr.
Outputs are written atomically (temp file + rename) and are byte-identical
across repeated runs of the same config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import expr as ex
from . import invariants, mesh_io, ruled
from .curve import CurveDef
from .errors import GeometryError
from .frame import ExplicitTheta, RotationMinimizing
from .record import Record, fields
from .ruled import DirectorField, RuledSurface, RuledSurfaceDef


class ConfigError(Exception):
    pass


# n_s * n_v.  A surface job of 110 000 points (example1 at 10 000 x 11) took
# 0.41-0.51 s of wall time with start-up, in five fresh processes on a shared
# 2-core x86-64 machine (Python 3.11, numpy 2.4, `python -c pass` 49-56 ms),
# and writes a 17 MB OBJ.
MAX_GRID_POINTS = 10 ** 6


class JobConfig(Record):
    """A loaded config; the command line overrides fields in place."""

    __slots__ = ("surface", "n_s", "n_v", "tol_dev", "tol_inv", "tol_K",
                 "mesh_path", "report_path", "fmt", "expect")
    __setattr__ = object.__setattr__
    __hash__ = None


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if key not in doc:
        raise ConfigError(f"missing '{key}' in {where}")
    return doc[key]


def _optional(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def _parse_dsl(text, where: str) -> ex.Expr:
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be a DSL string")
    try:
        return ex.parse(text)
    except ex.ExprSyntaxError as err:
        raise ConfigError(f"{where}: {err}") from err
    except RecursionError as err:
        raise ConfigError(f"{where}: expression nested too deeply") from err


def _finite(value, where: str) -> float:
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be a finite number")
    return float(value)


def _range(doc: dict, key: str, where: str):
    value = _require(doc, key, where)
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}.{key} must be [min, max] with min < max")
    lo, hi = (_finite(x, f"{where}.{key}") for x in value)
    if not lo < hi:
        raise ConfigError(f"{where}.{key} must be [min, max] with min < max")
    return lo, hi


def _grid_size(doc: dict, key: str) -> int:
    value = _require(doc, key, "grid")
    if not isinstance(value, int) or isinstance(value, bool) or value < 2:
        raise ConfigError(f"grid.{key} must be an integer >= 2")
    return value


def load_config(path: str) -> JobConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err

    cdoc = _require(doc, "curve", "config")
    curve = CurveDef(
        _parse_dsl(_require(cdoc, "x", "curve"), "curve.x"),
        _parse_dsl(_require(cdoc, "y", "curve"), "curve.y"),
        _parse_dsl(_require(cdoc, "z", "curve"), "curve.z"),
        *_range(cdoc, "s_range", "curve"))

    tdoc = _require(doc, "theta", "config")
    mode = _require(tdoc, "mode", "theta")
    if mode == "rmf":
        if "theta0" not in tdoc or "expr" in tdoc:
            raise ConfigError("theta mode 'rmf' takes exactly 'theta0'")
        policy = RotationMinimizing(_finite(tdoc["theta0"], "theta.theta0"))
    elif mode == "explicit":
        if "expr" not in tdoc or "theta0" in tdoc:
            raise ConfigError("theta mode 'explicit' takes exactly 'expr'")
        policy = ExplicitTheta(_parse_dsl(tdoc["expr"], "theta.expr"))
    else:
        raise ConfigError(f"theta.mode must be 'rmf' or 'explicit', got {mode!r}")

    ddoc = _require(doc, "director", "config")
    director = DirectorField(
        _parse_dsl(_require(ddoc, "x1", "director"), "director.x1"),
        _parse_dsl(_require(ddoc, "x2", "director"), "director.x2"),
        _parse_dsl(_require(ddoc, "x3", "director"), "director.x3"))

    gdoc = _require(doc, "grid", "config")
    v_range = _range(gdoc, "v_range", "grid")
    n_s, n_v = _grid_size(gdoc, "n_s"), _grid_size(gdoc, "n_v")

    tol, odoc, expect = (_optional(doc, key) for key in ("tolerances", "outputs",
                                                          "expect"))
    fmt = odoc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("outputs.format must be 'csv' or 'json'")
    for key in ("mesh", "report"):
        if not isinstance(odoc.get(key, ""), str):
            raise ConfigError(f"outputs.{key} must be a path string")

    sdef = RuledSurfaceDef(curve, policy, director, *v_range)
    return JobConfig(
        surface=sdef,
        n_s=n_s,
        n_v=n_v,
        tol_dev=_finite(tol.get("tol_dev", ruled.TOL_DEV), "tolerances.tol_dev"),
        tol_inv=_finite(tol.get("tol_inv", invariants.TOL_CLOSED),
                        "tolerances.tol_inv"),
        tol_K=_finite(tol.get("tol_K", ruled.TOL_K), "tolerances.tol_K"),
        mesh_path=odoc.get("mesh"),
        report_path=odoc.get("report"),
        fmt=fmt,
        expect=expect,
    )


def write_atomic(path: str, data: "bytes | str"):
    """``data``, bytes or text (written as UTF-8), to ``path`` through a temp
    file in its directory and a rename; an OS error is a ConfigError, and
    leaves no temp file behind."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):  # the temp name is left out: it is random
            raise ConfigError(f"cannot write output: {path}: "
                              f"{err.strerror or err}") from err
        raise


# ---------------------------------------------------------------------------
# subcommands


def _s_grid(job: JobConfig):
    c = job.surface.curve
    return np.linspace(c.t_min, c.t_max, job.n_s)


def cmd_frames(job: JobConfig, surface: RuledSurface, out_path: str) -> int:
    cols = ["s", "kappa", "tau", "theta", *(f"{v}_{a}" for v in "TNBUV" for a in "xyz")]
    grid = _s_grid(job)
    fd, af = surface.frame(grid)
    table = np.column_stack([grid, fd.kappa, fd.tau, af.theta,
                             fd.T, fd.N, fd.B, af.U, af.V])
    ex._float_path(surface.frame, grid, table, quantity="frame")
    write_atomic(out_path, mesh_io.csv_table(cols, table))
    return 0


def cmd_surface(job: JobConfig, surface: RuledSurface, out_path: str) -> int:
    mesh = mesh_io.tessellate(surface, job.n_s, job.n_v)
    write_atomic(out_path, mesh_io.write_obj(mesh))
    return 0


def cmd_classify(job: JobConfig, surface: RuledSurface, out_path: str) -> int:
    report = ruled.classify(surface, job.n_s, job.n_v,
                            tol_dev=job.tol_dev, tol_K=job.tol_K)
    bc = invariants.base_curve_report(surface, _s_grid(job), tol=job.tol_inv)
    report = ruled.ClassificationReport(**{**fields(report), "base_curve": bc})
    write_atomic(out_path, mesh_io.write_report(report, job.fmt))
    return 0


# The BaseCurveReport flag each boolean expectation of ``verify`` reads.
_EXPECT_FLAGS = {"geodesic": "is_geodesic", "asymptotic": "is_asymptotic",
                "curvature_line_frame": "is_curvature_line_frame",
                "curvature_line": "is_curvature_line_rodrigues"}


def cmd_verify(job: JobConfig, surface: RuledSurface, out_path: str) -> int:
    for key, want in job.expect.items():  # before any evaluation
        if key == "developable":
            if want not in ("yes", "no", "borderline"):
                raise ConfigError('expect.developable must be "yes", "no" '
                                  'or "borderline"')
        elif key not in _EXPECT_FLAGS:
            raise ConfigError(f"unknown expectation {key!r}")
        elif not isinstance(want, bool):
            raise ConfigError(f"expect.{key} must be true or false")
    grid = _s_grid(job)
    surface.stack(*invariants.oracle_grids(grid))
    bc = invariants.base_curve_report(surface, grid, tol=job.tol_inv)
    kappa, k_g, k_n, tau_g, rho = (bc.table[:, invariants.COLUMNS.index(name)]
                                   for name in ("kappa", "k_g", "k_n", "tau_g", "rho"))
    usable = ~np.isnan(k_g)

    checks = []

    def check(name, rows, residual, tol):
        value = ruled._max_abs(ex._finite(name, grid[rows], residual[rows]))
        checks.append({"check": name, "max_abs": value, "tol": tol,
                       "pass": bool(value < tol)})

    if usable.any():
        for name, closed, oracle in (
                ("k_g closed vs <NxT,T'>", k_g, invariants.geodesic_curvature_numeric),
                ("k_n closed vs <r'',N>", k_n, invariants.normal_curvature_numeric),
                ("tau_g closed vs <NxN',T'>", tau_g,
                 invariants.geodesic_torsion_numeric),
                ("rho closed vs <N',NxT>", rho,
                 invariants.curvature_line_residual_numeric)):
            name, numeric = name + " oracle", oracle(surface, grid)
            ex._float_path(lambda t: oracle(surface, t), grid[usable], numeric[usable],
                           (), name)
            check(name, usable, closed - numeric, invariants.TOL_FD)
        check("tau_g = -k_g*k_n identity", usable, tau_g + k_g * k_n, 1e-10)
    framed = ~np.isnan(kappa)
    if not framed.any():
        raise GeometryError("no usable samples on the verify grid")
    check("closed vs numeric director derivative", framed,
          surface.director_derivative_closed(grid)[1]
          - surface.director_derivative_numeric(grid), 1e-8)
    check("det(T,X,X') vs closed numerator", framed,
          surface.ruling_det(grid) - surface.det_numerator_closed(grid), 1e-8)

    flags = {key: getattr(bc, flag) for key, flag in _EXPECT_FLAGS.items()}
    expect_results = []
    for key, want in job.expect.items():
        got = (ruled.det_verdict(surface, grid, job.tol_dev)[0]
               if key == "developable" else flags[key])
        expect_results.append({"expect": key, "want": want, "got": got,
                               "pass": bool(got == want)})

    ok = all(c["pass"] for c in checks) and all(e["pass"] for e in expect_results)
    doc = {
        "checks": checks,
        "expectations": expect_results,
        "flags": {k: bool(v) for k, v in flags.items()},
        "director_parallel_tangent": bc.director_parallel_tangent,
        "pass": ok,
    }
    write_atomic(out_path, mesh_io.report_to_json(doc))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as is)."""
    p = argparse.ArgumentParser(
        prog="rmfruled",
        description="Ruled surfaces from adapted frames: invariants, "
                    "developability classification, meshing.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (("frames", "tabulate curve and frame data"),
                           ("surface", "tessellate and write an OBJ mesh"),
                           ("classify", "developability and special cases"),
                           ("verify", "closed-form vs oracle cross-checks")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="JSON job config")
        sp.add_argument("--out", help="output path (overrides config outputs)")
        sp.add_argument("--samples", type=int, help="override grid.n_s")
        sp.add_argument("--format", choices=("csv", "json"),
                        help="override outputs.format")
        sp.add_argument("--tol-dev", type=float, help="override tol_dev")
    return p


def _resolve_out(args, job: JobConfig) -> str:
    if args.out:
        return args.out
    default = job.mesh_path if args.command == "surface" else job.report_path
    if not default:
        raise ConfigError(f"no output path for '{args.command}' "
                          "(set --out or the config outputs section)")
    return default


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = load_config(args.config)
        if args.samples is not None:
            if args.samples < 2:
                raise ConfigError("--samples must be >= 2")
            job.n_s = args.samples
        if job.n_s * job.n_v > MAX_GRID_POINTS:
            raise ConfigError(f"n_s * n_v must be at most {MAX_GRID_POINTS}")
        if args.format:
            job.fmt = args.format
        if args.tol_dev is not None:
            job.tol_dev = _finite(args.tol_dev, "--tol-dev")
        out = _resolve_out(args, job)
        handler = {"frames": cmd_frames, "surface": cmd_surface,
                   "classify": cmd_classify, "verify": cmd_verify}[args.command]
        # NaN and inf are silent; expr._float_path locates those that matter.
        with np.errstate(all="ignore"):
            return handler(job, RuledSurface(job.surface), out)
    except ConfigError as err:
        print(f"E_CONFIG: {err}", file=sys.stderr)
        return 2
    except (GeometryError, ex.ExprDomainError, FloatingPointError) as err:
        print(f"E_GEOMETRY: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
