"""Spans around the public calls of each sppsim module, recorded from outside.

``Tracer.install`` replaces every public module-level function of the layer
modules, and a short list of methods, by a timing wrapper.  A function imported
with ``from ... import`` has one binding per importing module, so every binding
of the original object in every layer module is replaced; otherwise calls made
through the other binding (``solver._direct_solve`` calling ``factorize``,
``fespace`` calling ``cell_geometry``) would go unseen.  ``uninstall`` puts the
originals back.

Each span records wall time, the self time left after its child spans, and
``ru_maxrss`` on entry and exit, so a jump of the peak RSS is charged to the
span whose own code raised it.  Spans are aggregated per name in memory; the
ones at depth <= TIMELINE_DEPTH that last at least TIMELINE_MIN_S are also
kept as a timeline.  Hooks that count
work (dofs, LU fill, residuals) run outside every span's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
from collections import defaultdict

import numpy as np

# the layer modules, in pipeline order; ``units`` is called by no workload
LAYERS = ("mesh", "fespace", "pml", "assembly", "solver", "dwr", "oracle", "harness")

# the workload entry points: their own time is the harness's uncovered rest
ENTRY_SPANS = ("harness.run_adaptive", "harness.pml_study")

# Methods that do a layer's work on behalf of a harness function.  Other
# methods stay unwrapped, so their time is part of the public function that
# calls them (``PatchReconstruction`` inside ``dwr.reconstruct``,
# ``Factorization.solve`` inside ``solver.solve``).
METHODS = {
    "mesh.refine": ("mesh", "Mesh", "refine"),
    "mesh.uniform_refine": ("mesh", "Mesh", "uniform_refine"),
    "mesh.content_hash": ("mesh", "Mesh", "content_hash"),
    "mesh.active_ids": ("mesh", "Mesh", "active_ids"),
    "mesh.n_active": ("mesh", "Mesh", "n_active"),
    "dwr.QuadData": ("dwr", "QuadData", "__init__"),
}

TIMELINE_DEPTH = 3
TIMELINE_MIN_S = 0.02


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rel_residual(matrix, x, b) -> float:
    norm_b = np.linalg.norm(b)
    return float(np.linalg.norm(b - matrix @ x) / norm_b) if norm_b else 0.0


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, self_rss_jump_kb]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts = defaultdict(float)
        self.timeline = []      # (name, depth, start_s, end_s, maxrss_exit_kb)
        self.hook_s = 0.0       # time spent in counting hooks, excluded from spans
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), self.hook_s, 0.0, _maxrss_kb(), 0])

    def _exit(self):
        end = time.perf_counter()
        rss = _maxrss_kb()
        name, start, hook0, child_s, rss_in, child_rss = self._stack.pop()
        dur = end - start - (self.hook_s - hook0)
        jump = rss - rss_in
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        st[3] += jump - child_rss
        if self._stack:
            self._stack[-1][3] += dur
            self._stack[-1][5] += jump
        if len(self._stack) < TIMELINE_DEPTH and dur >= TIMELINE_MIN_S:
            self.timeline.append((name, len(self._stack) + 1, start - self._t0,
                                  end - self._t0, rss))

    def _hook(self, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.hook_s += time.perf_counter() - t

    def wrap(self, name, fn):
        enter, leave = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer._hook(enter, args, kwargs) if enter else None
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if leave:
                tracer._hook(leave, tracer.counts, before, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: importlib.import_module(f"sppsim.{name}") for name in LAYERS}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for name, (short, cls_name, meth) in METHODS.items():
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_s(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def total_s(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def layer_totals(self):
        """Per layer: (summed self time, summed self RSS jump in kB), entry spans apart."""
        out = {layer: [0.0, 0] for layer in LAYERS}
        for name, (_, _, self_s, jump) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer][1] += jump
            if name not in ENTRY_SPANS:
                out[layer][0] += self_s
        return out

    def covered_s(self) -> float:
        return sum(st[2] for name, st in self.stats.items() if name not in ENTRY_SPANS)


def _refine_enter(args, kwargs):
    mesh, marked = args[0], args[1] if len(args) > 1 else kwargs["marked"]
    return len(mesh.cells), len(set(marked))


def _refine_exit(counts, before, args, kwargs, result):
    counts["mesh.cells_marked"] += before[1]
    counts["mesh.cells_split"] += (len(args[0].cells) - before[0]) // 4


def _factorize_exit(counts, before, args, kwargs, result):
    # SuperLU.nnz is L.nnz + U.nnz; reading .L or .U would copy the factors
    counts["solver.lu_fill"] += result.lu.nnz
    if kwargs.get("safe", args[1] if len(args) > 1 else False):
        counts["solver.safe_refactor.calls"] += 1


def _solve_exit(counts, before, args, kwargs, result):
    system = args[0]
    x = system.constraints.restrict(result.coeffs)
    res = _rel_residual(system.matrix, x, system.rhs)
    counts["solver.rel_residual_max"] = max(counts["solver.rel_residual_max"], res)


def _solve_adjoint_exit(counts, before, args, kwargs, result):
    system, dual_rhs = args[0], args[1]
    g = system.constraints.matrix.T @ np.asarray(dual_rhs, dtype=complex)
    w = np.conj(system.constraints.restrict(result.coeffs))
    res = _rel_residual(system.matrix, w, g)
    counts["solver.rel_residual_max"] = max(counts["solver.rel_residual_max"], res)


def _integrand_exit(counts, before, args, kwargs, result):
    counts["oracle.integrand_points"] += np.size(args[0])


def _branchcut_exit(counts, before, args, kwargs, result):
    x = np.abs(np.atleast_1d(np.asarray(args[0], dtype=float)))
    counts["oracle.x_evaluated"] += x.size
    counts["oracle.x_distinct"] += np.unique(x).size


def _count(key, of):
    def hook(counts, before, args, kwargs, result):
        counts[key] += of(result)
    return hook


# span name -> (hook before the call, hook after it); both run outside span time
HOOKS = {
    "mesh.refine": (_refine_enter, _refine_exit),
    "fespace.distribute_dofs": (None, _count("fespace.n_dofs", lambda r: r.n_dofs)),
    "fespace.build_constraints": (None, _count("fespace.n_master", lambda r: r.n_master)),
    "assembly.condense": (None, _count("assembly.nnz_condensed", lambda r: r[0].nnz)),
    "solver.factorize": (None, _factorize_exit),
    "solver.solve": (None, _solve_exit),
    "solver.solve_adjoint": (None, _solve_adjoint_exit),
    "dwr.indicators": (None, _count("dwr.eta_sum", lambda r: float(sum(r.values())))),
    "oracle.finite_integrand": (None, _integrand_exit),
    "oracle.tail_integrand": (None, _integrand_exit),
    "oracle.branchcut_contribution": (None, _branchcut_exit),
}


def _span_s(name):
    return lambda tr: tr.self_s(name)


def _span_calls(name):
    return lambda tr: tr.calls(name)


def _counter(key):
    return lambda tr: tr.counts[key]


# per-layer metric name -> (unit, value from a finished tracer)
PER_LAYER = {
    "mesh.refine.s": ("s", _span_s("mesh.refine")),
    "mesh.refine.calls": ("count", _span_calls("mesh.refine")),
    "mesh.refine.total_s": ("s", lambda tr: tr.total_s("mesh.refine")),
    "mesh.cell_geometry.s": ("s", _span_s("mesh.cell_geometry")),
    "mesh.cell_geometry.calls": ("count", _span_calls("mesh.cell_geometry")),
    "mesh.cells_marked": ("count", _counter("mesh.cells_marked")),
    "mesh.cells_split": ("count", _counter("mesh.cells_split")),
    "mesh.write_vtk.s": ("s", _span_s("mesh.write_vtk")),
    "fespace.distribute_dofs.s": ("s", _span_s("fespace.distribute_dofs")),
    "fespace.build_constraints.s": ("s", _span_s("fespace.build_constraints")),
    "fespace.n_dofs": ("count", _counter("fespace.n_dofs")),
    "fespace.n_master": ("count", _counter("fespace.n_master")),
    "pml.material_arrays.s": ("s", _span_s("pml.material_arrays")),
    "pml.sheet_arrays.s": ("s", _span_s("pml.sheet_arrays")),
    "assembly.volume_boundary.s": ("s", _span_s("assembly.assemble_volume_boundary")),
    "assembly.interface.s": ("s", _span_s("assembly.assemble_interface")),
    "assembly.dipole_rhs.s": ("s", _span_s("assembly.assemble_dipole_rhs")),
    "assembly.dual_rhs.s": ("s", _span_s("assembly.assemble_dual_rhs")),
    "assembly.condense.s": ("s", _span_s("assembly.condense")),
    "assembly.nnz_condensed": ("count", _counter("assembly.nnz_condensed")),
    "solver.factorize.s": ("s", _span_s("solver.factorize")),
    "solver.factorize.calls": ("count", _span_calls("solver.factorize")),
    "solver.lu_fill": ("count", _counter("solver.lu_fill")),
    "solver.solve.s": ("s", _span_s("solver.solve")),
    "solver.solve_adjoint.s": ("s", _span_s("solver.solve_adjoint")),
    "solver.safe_refactor.calls": ("count", _counter("solver.safe_refactor.calls")),
    "solver.rel_residual_max": ("1", _counter("solver.rel_residual_max")),
    "dwr.QuadData.s": ("s", _span_s("dwr.QuadData")),
    "dwr.reconstruct.s": ("s", _span_s("dwr.reconstruct")),
    "dwr.indicators.s": ("s", _span_s("dwr.indicators")),
    "dwr.mark.s": ("s", _span_s("dwr.mark")),
    "dwr.eta_sum": ("1", _counter("dwr.eta_sum")),
    "oracle.pole_contribution.s": ("s", _span_s("oracle.pole_contribution")),
    "oracle.branchcut_contribution.s": ("s", _span_s("oracle.branchcut_contribution")),
    "oracle.integrand_points": ("count", _counter("oracle.integrand_points")),
    "oracle.unique_x_ratio": ("1", lambda tr: (tr.counts["oracle.x_distinct"]
                                               / tr.counts["oracle.x_evaluated"])
                              if tr.counts["oracle.x_evaluated"] else 0.0),
    "harness.solve_pair.s": ("s", _span_s("harness.solve_pair")),
    "harness.scattered_trace.s": ("s", _span_s("harness.scattered_trace")),
    "harness.l2_error.s": ("s", _span_s("harness.l2_error")),
}
