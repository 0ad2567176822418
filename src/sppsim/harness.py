"""Orchestration: adaptive solve loop, trace extraction, errors, PML study.

A run splits the field as E = E_inc + E_sc.  E_inc is the closed-form field
of the point dipole in free space (assembly.incident_ex); the scattered
field E_sc solves the system with the sheet against a sheet load of E_inc,
and its trace on the sheet is compared with the reference trace (pole plus
branch cut), which is evaluated once per run on the sample grid.  The same
factorization serves the total-field solve with the regularized dipole and
the adjoint, which only the DWR estimator needs; only then is the dipole
load built and eliminated.  The factorized system is the Schur complement on
the edge dofs (assembly condenses each cell's interior dofs); every load is
eliminated into it (ComplexSystem.with_load) and every solution comes back
with its interior dofs back-substituted.  Everything is driven by a
flat key = value config file or programmatic RunConfig; outputs are plain
CSV files plus VTK dumps.

Only the half disk x >= 0 is meshed and solved.  The problem is symmetric
under the mirror x -> -x (sheet, radial layer, disk and vertical dipole), so
its solution is mirror even, and no cell crosses x = 0.  The mirror-even
edge space of a symmetric full-disk mesh, restricted to x >= 0, is then the
plain edge space of the half mesh with the moments on x = 0 left free, and
its Galerkin system is half the full one.  The weak form has no boundary
term: on x = 0, as on the outer circle behind the absorbing layer, it
imposes the natural condition n x curl E = 0 (H_z = 0), a magnetic wall.
E_x on the sheet is odd in x, so the trace at x < 0 is taken from |x|.
convergence.csv and dof_cap count the full-disk mesh (_full_disk_counts).

Every factorization runs with no other LU factors and only one full-size
condensed system matrix alive, besides a fixed part that the caller passes
in; that bounds the peak memory.  solve_pair frees a fixed part that it
built itself once the matrix is assembled.  _solve_cycle frees the factors,
system, solutions, QuadData and recovery of a cycle on return, so that
adaptive_cycles yields only its space, trace and indicators; it and its
consumer run_adaptive drop those before the mesh is refined.  pml_study
keeps each layer strength's trace and nothing else of its solve.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dwr as dwr_mod
from . import oracle as oracle_mod
from .assembly import (DIPOLE_RESOLUTION, DipoleSpec, FixedPart, SheetModel,
                       assemble_dipole_rhs, assemble_dual_rhs, assemble_fixed,
                       assemble_pair, assemble_sheet_load)
from .fespace import (EdgeFESpace, FieldSolution, build_constraints, distribute_dofs,
                      moment_traces)
from .mesh import (EDGE_CORNERS, Mesh, build_disk_mesh, cell_diameters,
                   cells_intersecting_disk, write_vtk)
from .pml import PmlSpec
from .solver import factorize, solve, solve_adjoint


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one simulation; defaults give the production setup."""

    sigma_r: complex = 2.56e-4 + 0.160j
    a: float = 1.00
    R: float = 8 * math.pi
    s0: float = 4.0
    cycles: int = 6
    d_reg: float = 0.15625
    d_w: float = 1.5625
    samples: int = 2048
    out_dir: str | None = None
    initial_refines: int = 3
    dipole_resolve_factor: float = 4.0   # target cell diameter d_reg / factor
    dof_cap: int = 300_000
    x_min: float = 0.5
    write_artifacts: bool = True

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {self.cycles}")
        if self.samples < 2:
            raise ValueError("need at least two trace samples")
        if self.samples % 2:
            raise ValueError(f"samples must be even (half on each side of x = 0), "
                             f"got {self.samples}")
        if not self.d_w > 0:
            raise ValueError(f"d_w must be positive, got {self.d_w}")
        # build_initial_mesh refines toward cells d_reg / factor across: forever at 0
        if not self.d_reg > 0:
            raise ValueError(f"d_reg must be positive, got {self.d_reg}")
        # the model checks R, s0, a and sigma_r; the trace ends where the
        # layer begins (trace_grid)
        rho = self.model().pml.rho
        if not 0 < self.x_min < rho:
            raise ValueError(f"x_min must lie in (0, 0.8 R) = (0, {rho:g}), "
                             f"got {self.x_min}")
        # the dipole load and incident_ex take the source in vacuum, where
        # the layer's stretch is one
        if not self.a + self.d_reg <= rho:
            raise ValueError(f"the dipole's bump must lie within 0.8 R: a + d_reg "
                             f"must be at most {rho:g}, got {self.a + self.d_reg:g}")
        # os.makedirs('') would fail only once the run has started
        if self.out_dir == "":
            raise ValueError("out_dir must not be empty")
        # build_disk_mesh would reject it only after out_dir is made
        if self.initial_refines < 0:
            raise ValueError(f"initial_refines must be nonnegative, "
                             f"got {self.initial_refines}")
        if self.dof_cap < 1:
            raise ValueError(f"dof_cap must be at least 1, got {self.dof_cap}")
        # a coarser target leaves cells that assemble_dipole_rhs rejects
        if not self.dipole_resolve_factor >= DIPOLE_RESOLUTION:
            raise ValueError(f"dipole_resolve_factor must be at least "
                             f"{DIPOLE_RESOLUTION:g}, got {self.dipole_resolve_factor}")

    def model(self, s0=None) -> SheetModel:
        return SheetModel(
            sigma_r=self.sigma_r,
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


# the columns of convergence.csv, one row per ConvergenceRecord in field order
CONVERGENCE_COLUMNS = ["cycle", "cells", "dofs", "l2_error", "rate", "l2_error_complex"]
CONVERGENCE_ROW = "%d,%d,%d,%.10g,%.6g,%.10g"


@dataclass
class ConvergenceRecord:
    cycle: int
    n_cells: int
    n_dofs: int
    l2_error: float          # real-part comparison
    rate: float
    l2_error_complex: float


def trace_grid(config: RunConfig) -> np.ndarray:
    """Symmetric sample grid on x_min <= |x| <= rho = 0.8 R, the inner radius
    of the absorbing layer."""
    half = config.samples // 2
    right = np.linspace(config.x_min, config.model().pml.rho, half)
    return np.concatenate([-right[::-1], right])


def _refine_while(mesh: Mesh, select) -> Mesh:
    """Refine the active cells that select(mesh) picks until it picks none."""
    while len(marked := select(mesh)):
        mesh.refine(marked)
    return mesh


def build_initial_mesh(config: RunConfig) -> Mesh:
    """Coarse disk refined near the source to cells d_reg / dipole_resolve_factor across."""
    center, target = np.array([0.0, config.a]), config.d_reg / config.dipole_resolve_factor

    def too_big(mesh):
        cids = cells_intersecting_disk(mesh, center, config.d_reg)
        return cids[cell_diameters(mesh, cids) > target]
    return _refine_while(build_disk_mesh(config.R, config.initial_refines), too_big)


def band_refine(mesh: Mesh, half_width: float, target_diameter: float) -> Mesh:
    """Refine every cell overlapping |y| < half_width down to a diameter."""
    def in_band(mesh):
        cids = mesh.active_ids()
        overlap = np.abs(mesh.cell_corners(cids)[:, :, 1]).min(axis=1) < half_width
        return cids[overlap & (cell_diameters(mesh, cids) > target_diameter)]
    return _refine_while(mesh, in_band)


def scattered_trace(field: FieldSolution, xs: np.ndarray) -> InterfaceTrace:
    """Tangential trace E_x of the scattered field on the sheet, from the
    moments of the face at each sample (fespace.moment_traces).

    The mesh covers x >= 0; the trace is odd in x, so a sample at x < 0 is
    minus the value at |x|.
    """
    space = field.space
    faces = space.sheet_faces
    xs = np.asarray(xs, dtype=float)
    at = np.abs(xs)
    idx = np.clip(np.searchsorted(faces.x_lo, at, side="right") - 1, 0, len(faces) - 1)
    bad = (at < faces.x_lo[idx] - 1e-12) | (at > faces.x_hi[idx] + 1e-12)
    if np.any(bad):
        raise ValueError("trace sample outside the sheet faces")
    owner, ledge = faces.owner[idx], faces.ledge[idx]
    # E_x = E_t t_x: the moment traces over the owner edge's signed chord x_b - x_a
    x_a, x_b = space.mesh.cell_corners(owner)[np.arange(len(idx))[:, None],
                                              np.array(EDGE_CORNERS)[ledge], 0].T
    traces = moment_traces(space, owner, ledge, ((at - x_a) / (x_b - x_a))[:, None],
                           (x_b - x_a)[:, None])[:, 0]
    values = np.sum(traces * field.coeffs[space.sheet_quadrature.dofs[idx]], axis=1)
    return InterfaceTrace(x=xs, values=np.where(xs < 0, -values, values))


def oracle_trace(config: RunConfig, xs: np.ndarray) -> InterfaceTrace:
    _, _, total = oracle_mod.interface_field(xs, config.a, config.sigma_r,
                                             quad=oracle_mod.QuadratureSpec())
    return InterfaceTrace(x=np.asarray(xs, dtype=float), values=total)


def l2_error(trace: InterfaceTrace, reference: InterfaceTrace,
             component: str = "real") -> float:
    """Trapezoid L2 norm of the trace difference on the common grid.

    The integral is split at x = 0, over the samples with x <= 0 and those
    with x >= 0, so it never bridges the excluded core |x| < x_min between
    the two halves of a trace grid.
    """
    if trace.x.shape != reference.x.shape or not np.allclose(trace.x, reference.x):
        raise ValueError("traces must share the sample grid")
    diff = trace.values - reference.values
    if component == "real":
        diff = diff.real
    elif component != "complex":
        raise ValueError("component must be 'real' or 'complex'")
    total = sum(np.trapezoid(np.abs(diff[side]) ** 2, trace.x[side])
                for side in (trace.x <= 0, trace.x >= 0))
    return float(np.sqrt(total))


def solve_pair(space, constraints, model: SheetModel, fixed: FixedPart | None = None):
    """Scattered field from one factorization of the system with the sheet.

    Returns (scattered, sys_tot, fac_tot): the scattered field E_sc solved
    against the sheet load of E_inc (assemble_sheet_load), the system with
    the sheet, loaded with that sheet load, and its factors.  The caller
    eliminates the regularized dipole's load into that system
    (ComplexSystem.with_load) and solves the total field with those factors
    only when it needs it, as the DWR estimator does.  fixed is the
    model-independent part (assemble_fixed) on this space; it is built here
    when not given, and then freed once the matrix is assembled.
    """
    if fixed is None:
        fixed = assemble_fixed(space, constraints, model)
    sys_tot = assemble_pair(fixed, model)
    del fixed
    fac_tot = factorize(sys_tot.matrix)
    sys_tot = sys_tot.with_load(assemble_sheet_load(space, model))
    scattered = solve(sys_tot, factor=fac_tot)
    return scattered, sys_tot, fac_tot


def _full_disk_counts(space: EdgeFESpace) -> tuple[int, int]:
    """Active cells and dofs of the full disk that mirrors space's half mesh in x = 0.

    Twice the half's counts, less one copy of the two moments of each face
    on x = 0, which the two halves share.
    """
    mesh = space.mesh
    on_wall = np.abs(mesh.vertices[space.face_keys, 0]).max(axis=1) <= mesh._tol
    return 2 * len(space.active), 2 * (space.n_dofs - int(on_wall.sum()))


def _solve_cycle(space: EdgeFESpace, model: SheetModel, weight, xs,
                 estimate: bool):
    """Scattered trace of one cycle and, if estimate, its indicators.

    Everything else the cycle builds (factors, system, solutions, dual
    right-hand side, adjoint, QuadData, recovery) is local here and freed
    on return; the factors are freed before the QuadData is built.  The
    total field, and with it the dipole load, is solved only for the
    estimator.
    """
    scattered, sys_tot, fac_tot = solve_pair(space, build_constraints(space), model)
    trace = scattered_trace(scattered, xs)
    if not estimate:
        return trace, None
    del scattered
    sys_tot = sys_tot.with_load(assemble_dipole_rhs(space, model))
    total = solve(sys_tot, factor=fac_tot)
    adjoint = solve_adjoint(sys_tot, assemble_dual_rhs(space, total, weight),
                            factor=fac_tot)
    del sys_tot, fac_tot
    qd = dwr_mod.QuadData(space, (total, adjoint))
    return trace, dwr_mod.indicators(qd, model, dwr_mod.reconstruct(qd), weight)


def adaptive_cycles(config: RunConfig):
    """Solve, estimate, mark, refine: yields (cycle, space, trace, eta) per cycle.

    The mesh, space.mesh, is refined only when the next cycle is asked for.
    eta is None on the terminal cycle: the last, or the first over dof_cap.
    """
    mesh = build_initial_mesh(config)
    weight, model, xs = config.weight(), config.model(), trace_grid(config)
    for cycle in range(1, config.cycles + 1):
        space = distribute_dofs(mesh)
        terminal = cycle == config.cycles or _full_disk_counts(space)[1] > config.dof_cap
        trace, eta = _solve_cycle(space, model, weight, xs, not terminal)
        yield cycle, space, trace, eta
        if terminal:
            return
        marked = dwr_mod.mark(eta, mesh, weight, cycle)
        del space, trace, eta
        mesh.refine(marked)


def run_adaptive(config: RunConfig):
    """Errors, rates and artifacts of each of adaptive_cycles(config).

    Returns (records, artifacts) where artifacts maps names to file paths
    (empty when write_artifacts is off).
    """
    reference = oracle_trace(config, trace_grid(config))
    out = _ArtifactWriter(config, reference)
    records: list[ConvergenceRecord] = []
    for cycle, space, trace, eta in adaptive_cycles(config):
        n_cells, n_dofs = _full_disk_counts(space)
        err_re = l2_error(trace, reference, "real")
        err_cx = l2_error(trace, reference, "complex")
        rate = (math.log2(records[-1].l2_error / err_re)
                if records and err_re > 0 else float("nan"))
        records.append(ConvergenceRecord(
            cycle=cycle, n_cells=n_cells, n_dofs=n_dofs,
            l2_error=err_re, rate=rate, l2_error_complex=err_cx))
        out.cycle_outputs(cycle, space.mesh, trace, eta)
        del space, trace, eta       # before the next cycle's factorization
    out.convergence(records)
    return records, out.artifacts


def pml_study(config: RunConfig, s0_list, mesh: Mesh | None = None):
    """Fixed-mesh solves for several layer strengths; identical mesh throughout.

    Each distinct strength is solved once, in the order of first appearance.
    Only its scattered trace is kept; its solution and factors are freed
    before the next strength is assembled.
    """
    if not s0_list:
        raise ValueError("need at least one layer strength")
    out = _ArtifactWriter(config)       # an unusable out_dir fails before any solve
    if mesh is None:
        mesh = build_initial_mesh(config)
        band_refine(mesh, config.d_w, 0.1)
    space = distribute_dofs(mesh)
    constraints = build_constraints(space)
    xs = trace_grid(config)
    traces = {}
    mesh_hash = mesh.content_hash()
    # only the layer strength changes between the models
    fixed = assemble_fixed(space, constraints, config.model(s0=s0_list[0]))
    for s0 in dict.fromkeys(s0_list):
        scattered = solve_pair(space, constraints, config.model(s0=s0), fixed)[0]
        assert mesh.content_hash() == mesh_hash
        traces[s0] = scattered_trace(scattered, xs)
        del scattered
    out.pml_overlay(traces)
    return traces


def spectral_window(xs, x_lo: float, x_hi: float) -> np.ndarray:
    """Mask of the samples xs in x_lo <= x <= x_hi; ValueError unless it holds
    at least 3 (a Hann window over none or two sums to zero, one is no spectrum)."""
    sel = (xs >= x_lo) & (xs <= x_hi)
    if (n := np.count_nonzero(sel)) < 3:
        raise ValueError(f"the spectral window {x_lo:g} <= x <= {x_hi:g} holds "
                         f"{n} trace samples, fewer than 3; raise samples")
    return sel


def spectral_amplitude(trace: InterfaceTrace, k_lo: float, k_hi: float,
                       x_lo: float, x_hi: float, nk: int = 400) -> tuple[float, float]:
    """Peak windowed Fourier amplitude of the trace over a wave-number range.

    Hann-windowed coefficients on the x-window (spectral_window); for a pure
    complex exponential the returned amplitude equals its modulus.
    """
    sel = spectral_window(trace.x, x_lo, x_hi)
    xs = trace.x[sel]
    vals = trace.values[sel]
    win = np.hanning(len(xs))
    norm = win.sum()
    ks = np.linspace(k_lo, k_hi, nk)
    coef = np.array([(win * vals * np.exp(-1j * k * xs)).sum() / norm for k in ks])
    best = int(np.argmax(np.abs(coef)))
    return float(np.abs(coef[best])), float(ks[best])


def _write_csv(path, header, row: str, cols):
    """Columns of equal length as CSV under the header names, in one write.

    row is the %-template of one row's fields, comma separated.  The bytes
    are those of csv.writer (excel dialect, CRLF rows) for fields that never
    need quoting, as numbers formatted with %d or %g never do.
    """
    values = np.column_stack(cols)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n"
                 + ((row + "\r\n") * len(values)) % tuple(values.ravel().tolist()))


def _trace_template(reference: InterfaceTrace) -> str:
    """The rows of a trace CSV with the x and reference columns formatted
    (%.16g) and the two FEM columns left as %.16g fields."""
    fixed = np.column_stack([reference.x, reference.values.real, reference.values.imag])
    return ("%.16g,%%.16g,%%.16g,%.16g,%.16g\r\n" * len(fixed)) % tuple(fixed.ravel().tolist())


def _write_trace_csv(path, trace: InterfaceTrace, template: str):
    """The FEM trace and, through template (_trace_template of the reference
    on trace's grid), the reference as CSV, with the bytes of _write_csv."""
    fem = np.column_stack([trace.values.real, trace.values.imag])
    with open(path, "w", newline="") as fh:
        fh.write("x,re_ex_sc,im_ex_sc,re_oracle,im_oracle\r\n"
                 + template % tuple(fem.ravel().tolist()))


class OutputDirError(OSError):
    """The output directory cannot be made; raised before any artifact is written."""


class _ArtifactWriter:
    def __init__(self, config: RunConfig, reference: InterfaceTrace | None = None):
        """reference is the run's reference trace, which every cycle's trace
        CSV shares with its grid, so its columns are formatted once here."""
        self.config = config
        self.artifacts: dict[str, str] = {}
        self.enabled = config.write_artifacts and config.out_dir is not None
        self._trace_template = (_trace_template(reference)
                                if self.enabled and reference is not None else None)
        if self.enabled:
            try:
                os.makedirs(config.out_dir, exist_ok=True)
            except OSError as exc:
                raise OutputDirError(f"cannot make output directory {config.out_dir!r}: "
                                     f"{exc.strerror}") from exc

    def _path(self, name: str) -> str:
        return os.path.join(self.config.out_dir, name)

    def cycle_outputs(self, cycle, mesh, trace, eta):
        if not self.enabled:
            return
        name = f"interface_trace_cycle{cycle}.csv"
        _write_trace_csv(self._path(name), trace, self._trace_template)
        self.artifacts[name] = self._path(name)
        vtk_name = f"solution_cycle{cycle}.vtk"
        cell_data = {}
        if eta is not None:
            # indicators' keys are the active cells in ascending order
            cell_data["eta"] = np.fromiter(eta.values(), dtype=float, count=len(eta))
        write_vtk(mesh, self._path(vtk_name), cell_data)
        self.artifacts[vtk_name] = self._path(vtk_name)

    def convergence(self, records):
        if not self.enabled:
            return
        _write_csv(self._path("convergence.csv"), CONVERGENCE_COLUMNS, CONVERGENCE_ROW,
                   list(zip(*[dataclasses.astuple(r) for r in records])))
        self.artifacts["convergence.csv"] = self._path("convergence.csv")

    def pml_overlay(self, traces):
        if not self.enabled:
            return
        s0s = sorted(traces)
        header, cols = ["x"], [traces[s0s[0]].x]
        for s0 in s0s:
            header += [f"re_s{s0:g}", f"im_s{s0:g}"]
            cols += [traces[s0].values.real, traces[s0].values.imag]
        _write_csv(self._path("pml_study.csv"), header,
                   ",".join(["%.16g"] * len(cols)), cols)
        self.artifacts["pml_study.csv"] = self._path("pml_study.csv")


def load_config(path: str, **overrides) -> RunConfig:
    """Flat key = value file with python complex literals like 2.56e-4+0.16j."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in RunConfig.__dataclass_fields__:
                raise KeyError(f"unknown config key {key!r}")
            if not sep or not raw:
                raise ValueError(f"config key {key!r} needs a value: {key} = <value>")
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
