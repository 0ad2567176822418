"""Every span name the benchmark tracer relies on must exist in sppsim.

The tracer wraps public functions by name and reads per-layer metrics by span
name; a renamed or deleted function would silently read as zero time, and a
deleted wrapped method would crash the traced run.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re

import numpy as np
import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TR = load_tracer()
SPAN_NAMES = sorted(set(re.findall(r'_span_(?:s|calls)\("([\w.]+)"\)',
                                   TRACER.read_text())))


def wrapped_by_tracer(name):
    """True when Tracer.install would wrap something under this span name."""
    if name in TR.METHODS:
        short, cls_name, meth = TR.METHODS[name]
        cls = getattr(importlib.import_module(f"sppsim.{short}"), cls_name, None)
        return cls is not None and inspect.isfunction(vars(cls).get(meth))
    short, attr = name.split(".", 1)
    mod = importlib.import_module(f"sppsim.{short}")
    obj = getattr(mod, attr, None)
    return (inspect.isfunction(obj) and not attr.startswith("_")
            and obj.__module__ == mod.__name__)


def test_span_names_found_in_source():
    assert "mesh.cell_geometry" in SPAN_NAMES


@pytest.mark.parametrize("name", sorted(set(TR.METHODS) | set(TR.HOOKS) | set(SPAN_NAMES)))
def test_span_name_resolves(name):
    assert wrapped_by_tracer(name), f"{name} is not a traced sppsim function or method"


def test_split_counted_once_per_cell():
    """The tracer counts splits from the growth of ``len(mesh.cells)``."""
    from sppsim import mesh as msh
    m = msh.build_disk_mesh(8 * np.pi, 1)
    cid = int(m.active_ids()[0])
    assert np.all(m.coarser_neighbors([cid])[0] < 0)
    tracer = TR.Tracer()
    tracer.install()
    try:
        m.refine([cid])
    finally:
        tracer.uninstall()
    assert tracer.counts["mesh.cells_split"] == 1


def test_traced_residuals_are_those_of_the_condensed_solves():
    """``solver.rel_residual_max`` reads the factorized Schur system's residuals."""
    from sppsim import harness as hn
    from sppsim.solver import RESIDUAL_TOL
    config = hn.RunConfig(sigma_r=0.15j, a=0.5, R=4 * np.pi, d_w=0.8, d_reg=0.5,
                          cycles=2, initial_refines=1, samples=128, x_min=0.4,
                          write_artifacts=False, dipole_resolve_factor=2.05)
    tracer = TR.Tracer()
    tracer.install()
    try:
        hn.run_adaptive(config)
    finally:
        tracer.uninstall()
    # cycle 1 solves the scattered and the total field and the adjoint,
    # cycle 2 only the scattered field
    assert (tracer.calls("solver.solve"), tracer.calls("solver.solve_adjoint")) == (3, 1)
    assert 0 < tracer.counts["solver.rel_residual_max"] <= RESIDUAL_TOL
