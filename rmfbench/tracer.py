"""Per-function spans around rmfruled's public functions, installed from outside.

Each wrapped function counts its calls and accumulates its self time: the
span's duration minus the time spent in traced spans it caused.  A name is
replaced in every rmfruled module that binds it, because modules import
functions by name (``frame`` and ``invariants`` bind ``frenet`` and
``tangent_data`` from ``curve``).  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> functions and Class.method names to wrap; a name maps to its span
# name unless listed in GROUPS.
TARGETS = {
    "expr": ("eval_jet", "parse"),
    "curve": ("eval_curve", "tangent_data", "frenet", "validate_regular"),
    "frame": ("adapted_frame", "frame_derivatives", "frame_angular_velocity",
              "theta_rmf", "double_reflection", "FrameField.theta_at",
              "FrameField.frame_at", "FrameField.frenet_at"),
    "ruled": ("RuledSurface.frame", "RuledSurface.coefficients",
              "RuledSurface.director", "RuledSurface.director_derivative_closed",
              "RuledSurface.director_derivative_numeric", "RuledSurface.ruling_det",
              "RuledSurface.distribution_parameter",
              "RuledSurface.distribution_parameter_closed", "RuledSurface.point",
              "RuledSurface.partials", "RuledSurface.normal", "RuledSurface.sample",
              "classify"),
    "invariants": ("geodesic_curvature", "normal_curvature", "geodesic_torsion",
                   "curvature_line_residual_closed", "geodesic_curvature_numeric",
                   "normal_curvature_numeric", "geodesic_torsion_numeric",
                   "curvature_line_residual_numeric", "base_curve_report"),
    "mesh_io": ("tessellate", "write_obj", "write_report", "samples_to_csv",
                "report_to_json"),
    "cli": ("load_config", "write_atomic", "cmd_frames", "cmd_surface",
            "cmd_classify", "cmd_verify"),
}
GROUPS = {
    "invariants.geodesic_curvature_numeric": "invariants.oracles",
    "invariants.normal_curvature_numeric": "invariants.oracles",
    "invariants.geodesic_torsion_numeric": "invariants.oracles",
    "invariants.curvature_line_residual_numeric": "invariants.oracles",
}


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.surfaces = []  # RuledSurface objects built while installed
        self._stack = []  # per open span: seconds covered by its children
        self._undo = []  # (owner, attribute, original)

    def reset(self):
        for st in self.stats.values():
            st[0], st[1] = 0, 0.0
        self.surfaces.clear()

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(GROUPS.get(name, name), [0, 0.0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return span

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {k: m for k, m in sys.modules.items()
                if k == "rmfruled" or k.startswith("rmfruled.")}
        for mod_name, names in TARGETS.items():
            mod = mods[f"rmfruled.{mod_name}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._wrap(f"{mod_name}.{meth}",
                                                    getattr(cls, meth)))
                    continue
                orig = getattr(mod, qual)
                span = self._wrap(f"{mod_name}.{qual}", orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, span)
        cls = mods["rmfruled.ruled"].RuledSurface
        init, surfaces = cls.__init__, self.surfaces

        @functools.wraps(init)
        def record(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            surfaces.append(obj)
        self._set(cls, "__init__", record)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
