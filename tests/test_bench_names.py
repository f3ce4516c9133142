"""The names rmfbench's tracer and worker look up must exist in rmfruled.

``rmfbench/tracer.py`` wraps every entry of its ``TARGETS`` by name and
``rmfbench/worker.py`` reads the frame cache and the RMF angle table of each
surface, so a rename here would crash a traced benchmark run.
"""

import importlib
import importlib.util

from conftest import REPO, make_surface
from rmfruled.frame import RotationMinimizing


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "rmfbench_tracer", REPO / "rmfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for mod_name, names in _load_tracer().TARGETS.items():
        module = importlib.import_module(f"rmfruled.{mod_name}")
        for qual in names:
            owner = module
            for part in qual.split("."):
                assert hasattr(owner, part), f"rmfruled.{mod_name}.{qual}"
                owner = getattr(owner, part)
            assert callable(owner), f"rmfruled.{mod_name}.{qual}"


def test_worker_surface_attributes(helix_2pi):
    surface = make_surface(helix_2pi, RotationMinimizing(0.0), "0", "1", "0")
    surface.frame(1.0)
    assert surface._frame_at.cache_info().misses == 1
    assert surface.field.is_rmf
    assert len(surface.field._nodes) == len(surface.field._thetas) > 1
