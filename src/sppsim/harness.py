"""Orchestration: adaptive solve loop, trace extraction, errors, PML study.

A run solves the scattering problem twice per cycle on the same mesh, once
with the sheet and once without it, so the scattered trace is the difference
of two discrete solutions and their shared discretization error cancels.
The reference trace (pole plus branch cut) is evaluated once per run on the
sample grid.  Everything is driven by a flat key = value config file or
programmatic RunConfig; outputs are plain CSV files plus VTK dumps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import dwr as dwr_mod
from . import oracle as oracle_mod
from .assembly import (ComplexSystem, DipoleSpec, FixedPart, SheetModel,
                       assemble_dual_rhs, assemble_fixed, assemble_pair)
from .fespace import (FieldSolution, build_constraints, distribute_dofs,
                      mirror_even, sheet_ref_points)
from .mesh import (Mesh, build_disk_mesh, cell_diameters,
                   cells_intersecting_disk, write_vtk)
from .pml import PmlSpec
from .solver import factorize, solve, solve_adjoint


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one simulation; defaults give the production setup."""

    sigma_r: complex = 2.56e-4 + 0.160j
    a: float = 1.00
    R: float = 8 * math.pi
    s0: float = 2.0
    cycles: int = 6
    d_reg: float = 0.15625
    d_w: float = 1.5625
    samples: int = 2048
    out_dir: str | None = None
    initial_refines: int = 3
    dipole_resolve_factor: float = 4.0   # target cell diameter d_reg / factor
    marking_fraction: float = 0.15
    level_cap: int = 12
    dof_cap: int = 300_000
    x_min: float = 0.5
    quad_rel_tol: float = 5e-3
    write_artifacts: bool = True

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError("need at least one cycle")
        if self.samples < 2:
            raise ValueError("need at least two trace samples")

    def model(self, sigma=None, s0=None) -> SheetModel:
        return SheetModel(
            sigma_r=self.sigma_r if sigma is None else sigma,
            pml=PmlSpec(R=self.R, s0=self.s0 if s0 is None else s0),
            dipole=DipoleSpec(height=self.a, radius=self.d_reg))

    def weight(self) -> dwr_mod.WeightFunction:
        return dwr_mod.WeightFunction(half_width=self.d_w)


@dataclass
class InterfaceTrace:
    """Sampled complex E_x along the sheet; the common FEM/reference currency."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("trace samples must be strictly increasing")


@dataclass
class ConvergenceRecord:
    cycle: int
    n_cells: int
    n_dofs: int
    l2_error: float          # real-part comparison
    rate: float
    l2_error_complex: float


def trace_grid(config: RunConfig) -> np.ndarray:
    """Symmetric sample grid on x_min <= |x| <= 0.8 R."""
    half = config.samples // 2
    right = np.linspace(config.x_min, 0.8 * config.R, half)
    return np.concatenate([-right[::-1], right])


def resolve_dipole(mesh: Mesh, config: RunConfig) -> Mesh:
    """Refine near the source until the regularization bump is well integrated."""
    target = config.d_reg / config.dipole_resolve_factor
    center = np.array([0.0, config.a])
    while True:
        cids = cells_intersecting_disk(mesh, center, config.d_reg)
        diam = cell_diameters(mesh, cids)
        too_big = cids[diam > target]
        if len(too_big) == 0:
            return mesh
        mesh.refine(too_big)


def build_initial_mesh(config: RunConfig) -> Mesh:
    mesh = build_disk_mesh(config.R, config.initial_refines)
    return resolve_dipole(mesh, config)


def band_refine(mesh: Mesh, half_width: float, target_diameter: float) -> Mesh:
    """Refine every cell overlapping |y| < half_width down to a diameter."""
    while True:
        cids = mesh.active_ids()
        overlap = np.abs(mesh.cell_corners(cids)[:, :, 1]).min(axis=1) < half_width
        marked = cids[overlap & (cell_diameters(mesh, cids) > target_diameter)]
        if len(marked) == 0:
            return mesh
        mesh.refine(marked)


def scattered_trace(total: FieldSolution, primary: FieldSolution,
                    xs: np.ndarray) -> InterfaceTrace:
    """Tangential trace of (total - primary) on the sheet, from above."""
    if total.space is not primary.space:
        raise ValueError("both fields must live on the same space")
    space = total.space
    mesh = space.mesh
    faces = space.sheet_faces
    lows = np.array([f.x_lo for f in faces])
    his = np.array([f.x_hi for f in faces])
    idx = np.clip(np.searchsorted(lows, xs, side="right") - 1, 0, len(faces) - 1)
    bad = (xs < lows[idx] - 1e-12) | (xs > his[idx] + 1e-12)
    if np.any(bad):
        raise ValueError("trace sample outside the sheet faces")
    side = np.array([f.above if f.above is not None else f.below for f in faces])
    cids = side[idx]
    ref = sheet_ref_points(mesh, cids, xs)
    dsol = FieldSolution(space, total.coeffs - primary.coeffs)
    values = dsol.values(cids, ref[:, None, :])[:, 0, 0]
    return InterfaceTrace(x=np.asarray(xs, dtype=float), values=values)


def oracle_trace(config: RunConfig, xs: np.ndarray) -> InterfaceTrace:
    spec = oracle_mod.QuadratureSpec(rel_tol=config.quad_rel_tol)
    _, _, total = oracle_mod.interface_field(xs, config.a, config.sigma_r,
                                             quad=spec)
    return InterfaceTrace(x=np.asarray(xs, dtype=float), values=total)


def l2_error(trace: InterfaceTrace, reference: InterfaceTrace,
             component: str = "real") -> float:
    """Trapezoid L2 norm of the trace difference on the common grid."""
    if trace.x.shape != reference.x.shape or not np.allclose(trace.x, reference.x):
        raise ValueError("traces must share the sample grid")
    diff = trace.values - reference.values
    if component == "real":
        diff = diff.real
    elif component != "complex":
        raise ValueError("component must be 'real' or 'complex'")
    # integrate piecewise; do not bridge the gap across the excluded core
    gaps = np.diff(trace.x)
    breaks = np.nonzero(gaps > 3 * np.median(gaps))[0]
    total = 0.0
    start = 0
    for b in list(breaks) + [len(trace.x) - 1]:
        seg = slice(start, b + 1)
        total += np.trapezoid(np.abs(diff[seg]) ** 2, trace.x[seg])
        start = b + 1
    return float(np.sqrt(total))


def solve_pair(space, constraints, model: SheetModel, fixed: FixedPart | None = None):
    """Solve with and without the sheet on one mesh, sharing the volume matrix.

    fixed is the model-independent part of the pair (assemble_fixed) on this
    space; it is built here when not given.
    """
    if fixed is None:
        fixed = assemble_fixed(space, constraints, model)
    mat_0, mat_tot = assemble_pair(fixed, model)
    sys_tot = ComplexSystem(matrix=mat_tot, rhs=fixed.rhs, space=space,
                            constraints=constraints)
    sys_0 = ComplexSystem(matrix=mat_0, rhs=fixed.rhs, space=space,
                          constraints=constraints)
    # the sheet-free factors are freed before the sheet system is factorized
    primary = solve(sys_0)
    fac_tot = factorize(mat_tot)
    total = solve(sys_tot, factor=fac_tot)
    return total, primary, sys_tot, fac_tot


def run_adaptive(config: RunConfig):
    """Adaptive cycles: solve pair, adjoint, indicators, mark, refine.

    Returns (records, artifacts) where artifacts maps names to file paths
    (empty when write_artifacts is off).
    """
    out = _ArtifactWriter(config)
    mesh = build_initial_mesh(config)
    weight = config.weight()
    model = config.model()
    xs = trace_grid(config)
    reference = oracle_trace(config, xs)
    records: list[ConvergenceRecord] = []
    for cycle in range(1, config.cycles + 1):
        space = distribute_dofs(mesh)
        constraints = mirror_even(space, build_constraints(space))
        total, primary, sys_tot, fac_tot = solve_pair(space, constraints, model)
        trace = scattered_trace(total, primary, xs)
        err_re = l2_error(trace, reference, "real")
        err_cx = l2_error(trace, reference, "complex")
        rate = (math.log2(records[-1].l2_error / err_re)
                if records and err_re > 0 else float("nan"))
        records.append(ConvergenceRecord(
            cycle=cycle, n_cells=mesh.n_active(), n_dofs=space.n_dofs,
            l2_error=err_re, rate=rate, l2_error_complex=err_cx))
        terminal = cycle == config.cycles or space.n_dofs > config.dof_cap
        if terminal:
            # no refinement follows; skip the adjoint and estimator work
            out.cycle_outputs(cycle, mesh, space, trace, reference, None)
            break
        dual_rhs = assemble_dual_rhs(space, total, weight)
        adjoint = solve_adjoint(sys_tot, dual_rhs, factor=fac_tot)
        qd = dwr_mod.QuadData(space, (total, adjoint))
        eta = dwr_mod.indicators(qd, model, dwr_mod.reconstruct(qd, 0),
                                 dwr_mod.reconstruct(qd, 1), weight)
        out.cycle_outputs(cycle, mesh, space, trace, reference, eta)
        marked = dwr_mod.mark(eta, mesh, weight, cycle,
                              fraction=config.marking_fraction,
                              level_cap=config.level_cap)
        mesh.refine(marked)
    out.convergence(records)
    return records, out.artifacts


def pml_study(config: RunConfig, s0_list, mesh: Mesh | None = None):
    """Fixed-mesh solves for several layer strengths; identical mesh throughout."""
    if not s0_list:
        raise ValueError("need at least one layer strength")
    if mesh is None:
        mesh = build_initial_mesh(config)
        band_refine(mesh, config.d_w, 0.1)
    space = distribute_dofs(mesh)
    constraints = mirror_even(space, build_constraints(space))
    xs = trace_grid(config)
    traces = {}
    mesh_hash = mesh.content_hash()
    # only the layer strength changes between the models
    fixed = assemble_fixed(space, constraints, config.model(s0=s0_list[0]))
    for s0 in s0_list:
        model = config.model(s0=s0)
        total, primary, _, _ = solve_pair(space, constraints, model, fixed)
        assert mesh.content_hash() == mesh_hash
        traces[s0] = scattered_trace(total, primary, xs)
    _ArtifactWriter(config).pml_overlay(traces)
    return traces


def spectral_amplitude(trace: InterfaceTrace, k_lo: float, k_hi: float,
                       x_lo: float, x_hi: float, nk: int = 400) -> tuple[float, float]:
    """Peak windowed Fourier amplitude of the trace over a wave-number range.

    Hann-windowed coefficients on the x-window; for a pure complex exponential
    the returned amplitude equals its modulus.
    """
    sel = (trace.x >= x_lo) & (trace.x <= x_hi)
    xs = trace.x[sel]
    vals = trace.values[sel]
    win = np.hanning(len(xs))
    norm = win.sum()
    ks = np.linspace(k_lo, k_hi, nk)
    coef = np.array([(win * vals * np.exp(-1j * k * xs)).sum() / norm for k in ks])
    best = int(np.argmax(np.abs(coef)))
    return float(np.abs(coef[best])), float(ks[best])


class _ArtifactWriter:
    def __init__(self, config: RunConfig):
        self.config = config
        self.artifacts: dict[str, str] = {}
        self.enabled = config.write_artifacts and config.out_dir is not None
        if self.enabled:
            import os
            os.makedirs(config.out_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        import os
        return os.path.join(self.config.out_dir, name)

    def cycle_outputs(self, cycle, mesh, space, trace, reference, eta):
        if not self.enabled:
            return
        name = f"interface_trace_cycle{cycle}.csv"
        with open(self._path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "re_ex_sc", "im_ex_sc", "re_oracle", "im_oracle"])
            for x, v, o in zip(trace.x, trace.values, reference.values):
                w.writerow([f"{x:.16g}", f"{v.real:.16g}", f"{v.imag:.16g}",
                            f"{o.real:.16g}", f"{o.imag:.16g}"])
        self.artifacts[name] = self._path(name)
        vtk_name = f"solution_cycle{cycle}.vtk"
        cell_data = {}
        if eta is not None:
            cell_data["eta"] = np.array([eta[cid] for cid in sorted(mesh.active_ids())])
        write_vtk(mesh, self._path(vtk_name), cell_data)
        self.artifacts[vtk_name] = self._path(vtk_name)

    def convergence(self, records):
        if not self.enabled:
            return
        with open(self._path("convergence.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cycle", "cells", "dofs", "l2_error", "rate",
                        "l2_error_complex"])
            for r in records:
                w.writerow([r.cycle, r.n_cells, r.n_dofs, f"{r.l2_error:.10g}",
                            f"{r.rate:.6g}", f"{r.l2_error_complex:.10g}"])
        self.artifacts["convergence.csv"] = self._path("convergence.csv")

    def pml_overlay(self, traces):
        if not self.enabled:
            return
        with open(self._path("pml_study.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            s0s = sorted(traces)
            header = ["x"]
            for s0 in s0s:
                header += [f"re_s{s0:g}", f"im_s{s0:g}"]
            w.writerow(header)
            xs = traces[s0s[0]].x
            for i, x in enumerate(xs):
                row = [f"{x:.16g}"]
                for s0 in s0s:
                    v = traces[s0].values[i]
                    row += [f"{v.real:.16g}", f"{v.imag:.16g}"]
                w.writerow(row)
        self.artifacts["pml_study.csv"] = self._path("pml_study.csv")


def load_config(path: str, **overrides) -> RunConfig:
    """Flat key = value file with python complex literals like 2.56e-4+0.16j."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in RunConfig.__dataclass_fields__:
                raise KeyError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _parse_value(key: str, raw: str):
    ftype = RunConfig.__dataclass_fields__[key].type
    if "complex" in str(ftype):
        return complex(raw.replace(" ", ""))
    if "int" in str(ftype):
        return int(raw)
    if "float" in str(ftype):
        return float(raw)
    if "bool" in str(ftype):
        flag = raw.lower()
        if flag not in ("1", "0", "true", "false", "yes", "no"):
            raise ValueError(f"config key {key!r} needs a boolean "
                             f"(1/0, true/false, yes/no), got {raw!r}")
        return flag in ("1", "true", "yes")
    return raw
