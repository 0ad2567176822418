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
