"""Goal-oriented error indicators and marking for the adaptive loop.

The goal functional is the curl energy weighted by a cosine band around the
sheet.  Indicators follow the dual-weighted-residual recipe in mixed form:

    eta_Q = 1/2 | rho_Q(E_H, piZ - Z_H) + rho*_Q(Z_H, piE - E_H) |

with the primal and dual cell residuals evaluated variationally (no
integration by parts) and the unknown exact solutions replaced by patchwise
recoveries pi: weighted least-squares fits of an edge field on a parent
cell, of order 3 over a clean 2x2 sibling patch and of order 2 over all
active descendants of an irregular parent, which is cruder but safe.  A cell
below an irregular parent takes its fit.  Every clean patch reads one
shared table of monomial rows, an irregular patch its own; each patch's
real normal equations are solved once, with the real and imaginary parts
of the primal and the adjoint as columns, and every fit is kept in the
slots of the 24 order-3 monomial fields.  Only the differences (pi u - u)
ever enter the indicators.  The
face terms are one pass over the sheet sides: the trace of u comes from
each face's two moments (fespace.moment_traces), and only pi u is evaluated
there.

Marking combines the largest indicators by count with a forced band around
the sheet whose threshold tightens geometrically with the cycle number, so
the sheet neighborhood is refined unconditionally early on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pml as pml_mod
from .assembly import SheetModel
from .fespace import (ELEMENT_SPACE, REF, EdgeFESpace, FieldSolution, evaluate_fields,
                      sheet_ref_points, vector_monomials)
from .mesh import CHILD_OFFSETS, Mesh, cell_geometry, covariant_map, jacobian_det

# the order-3 recovery space Q_{2,3} x Q_{3,2} (fespace.vector_monomials), which
# holds the element's ELEMENT_SPACE: ORDER2_SLOTS is the column of each of its
# 12 monomial fields among the 24 of RECOVERY_SPACE
RECOVERY_SPACE = (tuple((i, j) for j in range(4) for i in range(3)),
                  tuple((i, j) for i in range(4) for j in range(3)))
ORDER2_SLOTS = np.array([RECOVERY_SPACE[0].index(e) for e in ELEMENT_SPACE[0]]
                        + [len(RECOVERY_SPACE[0]) + RECOVERY_SPACE[1].index(e)
                           for e in ELEMENT_SPACE[1]])


class QuadData:
    """Per-cell geometry and field values at the standard quadrature points.

    Holds the registered solutions and only small arrays: points, Jacobian
    determinants and the complex values (s, n, p, 2) and curls (s, n, p) of
    the s solutions, evaluated in one call (fespace.evaluate_fields); no
    basis table is formed.
    """

    def __init__(self, space: EdgeFESpace, sols: tuple):
        self.space = space
        self.sols = sols
        self.phys, self.det, self.values, self.curls = evaluate_fields(
            space, space.active, REF.quad_pts, [sol.coeffs for sol in sols])


@dataclass(frozen=True)
class WeightFunction:
    """cos^2 band profile of half-width d around the sheet."""

    half_width: float

    def __call__(self, pts) -> np.ndarray:
        y = np.asarray(pts, dtype=float)
        if y.ndim == 2:
            y = y[:, 1]
        out = np.zeros_like(y, dtype=float)
        band = np.abs(y) <= self.half_width
        out[band] = np.cos(0.5 * np.pi * y[band] / self.half_width) ** 2
        return out


def qoi(sol: FieldSolution, weight: WeightFunction) -> float:
    """Weighted curl energy int w |curl E|^2; nonnegative by construction."""
    qd = QuadData(sol.space, (sol,))
    w = weight(qd.phys.reshape(-1, 2)).reshape(qd.det.shape)
    return float(np.einsum("np,p,np->", qd.det * w, REF.quad_wts,
                           np.abs(qd.curls[0]) ** 2))


def _active_descendants(mesh: Mesh, parents):
    """Embeddings (patch, cid, offset, scale) of the active cells below each parent.

    patch indexes parents.  Grouped by patch in the given order; within a
    patch the cells come in depth-first order, first quadrant first, the
    order in which their least-squares rows are stacked.
    """
    parents = np.asarray(parents, dtype=np.int64)
    quads = np.asarray(CHILD_OFFSETS, dtype=float)
    n = len(parents)
    inner = (np.arange(n), parents, np.zeros((n, 2)), np.ones(n), np.zeros(n))
    found = []
    while len(inner[1]):
        group, _, offset, scale, path = (np.repeat(c, 4, axis=0) for c in inner)
        quad = np.arange(4 * len(inner[1])) % 4
        cid = mesh.children[inner[1]].ravel()
        scale = 0.5 * scale
        offset = offset + scale[:, None] * quads[quad]
        path = path + quad * scale**2          # quadrant path as base-4 digits
        leaf = mesh.children[cid, 0] < 0
        cols = (group, cid, offset, scale, path)
        found.append([c[leaf] for c in cols])
        inner = [c[~leaf] for c in cols]
    group, cid, offset, scale, path = (np.concatenate(c) for c in zip(*found))
    order = np.lexsort((path, group))
    return group[order], cid[order], offset[order], scale[order]


def _component_rows(pts, space):
    """Values (2, npts, m/2) of the x-directed and of the y-directed monomial
    fields of space at pts, and the curls (npts, m) of all m of its fields.

    Each monomial field has one nonzero component, so a fit's normal matrix
    is block-diagonal: the x components of a field are fitted by the first
    half of the fields alone, the y components by the second half.
    """
    vals, curls = vector_monomials(pts, space)
    half = len(space[0])
    return np.stack([vals[:, :half, 0], vals[:, half:, 1]]), curls


@lru_cache(maxsize=1)
def _clean_patch_table():
    """The order-3 rows that every clean patch shares, read-only.

    rows (2, 4p, 12) and curls (4p, 24) are _component_rows at the
    quadrature points of a parent's four children, in quadrant order, in the
    parent frame; outer (2, 4p, 144) holds each point's outer product of its
    rows, so a patch's normal matrices are its weights times outer.  The
    points are formed as the patch fit forms them (offset plus half the
    child point), so the table holds the fit's own floats.
    """
    offsets = 0.5 * np.asarray(CHILD_OFFSETS, dtype=float)
    ppts = offsets[:, None, :] + 0.5 * REF.quad_pts
    rows, curls = _component_rows(ppts.reshape(-1, 2), RECOVERY_SPACE)
    outer = (rows[..., :, None] * rows[..., None, :]).reshape(rows.shape[:2] + (-1,))
    for t in (rows, curls, outer):
        t.flags.writeable = False
    return rows, curls, outer


# member cells per batch of the patch fit: bounds the transient gathered
# values, parent Jacobians and fitted values, and an irregular patch's own
# rows, which grow with the cells of a batch
FIT_BATCH_CELLS = 2048


class PatchReconstruction:
    """Higher-order recovery on parent patches, used through differences only.

    Each active cell with a parent takes the fit of one patch: its parent at
    order 3 when that is a clean 2x2 patch, unless an irregular parent lies
    above it, whose order-2 fit over all its active descendants wins (the
    later such parent in order of first appearance).  Only winning patches
    are fitted, grouped by order and member count, in batches of at most
    FIT_BATCH_CELLS member cells (or one patch).  Every clean patch reads
    one shared table of rows (_clean_patch_table); an irregular patch forms
    its own.  Every solution that the QuadData registers is fitted on the
    same patches, in one real solve per patch and component whose
    right-hand-side columns are the real and imaginary parts of each
    solution.  Each cell keeps its embedding (offset, scale) in the parent's
    reference frame and its patch's coefficients per solution, in one table
    over the 24 monomial fields of RECOVERY_SPACE (s, n, 24): an order-2 fit
    fills the columns of its 12 fields (ORDER2_SLOTS) and leaves the rest
    zero.  The differences at the standard quadrature points are
    precomputed for every solution and active cell, dvals_quad (s, n, p, 2)
    and dcurls_quad (s, n, p).
    """

    def __init__(self, qd: QuadData):
        self.space = qd.space
        self.sols = qd.sols
        mesh = self.space.mesh
        n, p = qd.det.shape
        s = len(qd.sols)
        self.dvals_quad = np.zeros((s, n, p, 2), dtype=complex)
        self.dcurls_quad = np.zeros((s, n, p), dtype=complex)
        self._order = np.zeros(n, dtype=np.int64)   # 0: no patch, difference vanishes
        self._parent = np.zeros(n, dtype=np.int64)
        self._offset = np.zeros((n, 2))
        self._scale = np.zeros(n)
        self._coeffs = np.zeros((s, n, sum(map(len, RECOVERY_SPACE))), dtype=complex)

        # parents in order of first appearance over the active cells
        parents = mesh.parent[self.space.active]
        parents = parents[parents >= 0]
        if len(parents) == 0:
            return
        parents = parents[np.sort(np.unique(parents, return_index=True)[1])]
        clean = (mesh.children[mesh.children[parents], 0] < 0).all(axis=1)
        patch, cids, offsets, scales = _active_descendants(mesh, parents)
        ranks = self.space.rank[cids]
        # winning patch of each cell: its clean parent, overridden by any
        # irregular parent above it, the later one in first-appearance order
        key = np.where(clean[patch], -1, patch)
        best = np.full(n, -2)
        np.maximum.at(best, ranks, key)
        wins = key == best[ranks]
        fitted = np.zeros(len(parents), dtype=bool)
        fitted[patch[wins]] = True
        size = np.bincount(patch, minlength=len(parents))
        start = np.cumsum(size) - size
        orders = np.where(clean, 3, 2)
        for order, m in np.unique(np.column_stack([orders, size])[fitted], axis=0):
            group = np.flatnonzero(fitted & (orders == order) & (size == m))
            step = max(1, FIT_BATCH_CELLS // m)
            for lo in range(0, len(group), step):
                rows = (start[group[lo:lo + step], None] + np.arange(m)).ravel()
                self._fit(qd, int(order), int(m), parents[patch[rows]],
                          ranks[rows], offsets[rows], scales[rows], wins[rows])

    def _fit(self, qd, order, m, owner, ranks, offsets, scales, wins):
        """Fit patches of m member cells each (rows grouped by patch); store pi u - u.

        A patch's rows are its monomial values at its members' quadrature
        points, weighted by w det; its normal matrix is real and
        block-diagonal (_component_rows), so each patch solves its two
        blocks once, against the real and imaginary parts of every solution
        as right-hand-side columns.  Every product is taken per patch, so a
        patch's numbers depend neither on its batch nor on the other
        solutions.
        """
        n_patch, s = len(owner) // m, len(qd.sols)
        ppts, jac = self._parent_frame(owner, offsets, scales, REF.quad_pts)
        w = REF.quad_wts * qd.det[ranks]                        # (cell, p)
        w_rows = w.reshape(n_patch, 1, 1, -1)
        if order == 3:
            # the members of a clean patch are its four children in quadrant
            # order, at the same points in the parent frame for every patch
            slots = np.arange(self._coeffs.shape[2])
            rows, mono_curl, outer = _clean_patch_table()
            normal = w_rows @ outer
        else:
            slots = ORDER2_SLOTS
            rows, mono_curl = _component_rows(ppts.reshape(-1, 2), ELEMENT_SPACE)
            rows = rows.reshape(2, n_patch, -1, rows.shape[2]).swapaxes(0, 1)
            mono_curl = mono_curl.reshape(n_patch, -1, mono_curl.shape[1])
            normal = (np.swapaxes(rows, 2, 3) * w_rows) @ rows
        half = rows.shape[-1]
        # w det J^T u: u (cell, p, s, 4) pulled back into the parent frame, the
        # 2x2 map written out; the real and imaginary parts of each solution
        # are the columns of b (patch, component, cell p, 2s)
        u = np.moveaxis(qd.values, 0, 2)[ranks].view(float)
        wjac = (w[..., None, None] * jac)[:, :, None, None]
        b = np.stack([(wjac[..., 0, i] * u[..., :2] + wjac[..., 1, i] * u[..., 2:])
                      .reshape(n_patch, -1, 2 * s) for i in (0, 1)], axis=1)
        del u, wjac
        # one real solve for all solutions: against one complex solve per
        # solution the fit moves eta by at most 1.1e-11 of its maximum (the
        # default and the 7-cycle runs), a hundredth of the MARK_RESOLUTION
        # grid on which mark ranks eta, and no mark moved
        coef = np.linalg.solve(normal.reshape(n_patch, 2, half, half),
                               np.swapaxes(rows, -1, -2) @ b)
        del b
        # pi u and its curl from the same rows, on the winning cells
        hat = (rows @ coef).reshape(n_patch, 2, m, -1, s, 2).swapaxes(1, 2)
        hat = hat[wins.reshape(n_patch, m)]
        curl = (mono_curl @ coef.reshape(n_patch, 2 * half, 2 * s)).reshape(len(owner), -1, s, 2)
        r, jac = ranks[wins], jac[wins, :, None, None]
        det = jacobian_det(jac)
        pi_u = np.stack(covariant_map(jac, det, hat[:, 0], hat[:, 1]), axis=-2)
        del hat
        self.dvals_quad[:, r] = np.moveaxis(pi_u.view(complex)[..., 0], 2, 0) - qd.values[:, r]
        curl = (curl[wins] / det).view(complex)[..., 0]
        self.dcurls_quad[:, r] = np.moveaxis(curl, 2, 0) - qd.curls[:, r]
        coef = coef.reshape(n_patch, 2 * half, s, 2).view(complex)[..., 0]
        self._coeffs[:, r[:, None], slots] = np.moveaxis(np.repeat(coef, m, axis=0)[wins], 2, 0)
        self._order[r] = order
        self._parent[r] = owner[wins]
        self._offset[r] = offsets[wins]
        self._scale[r] = scales[wins]

    def _parent_frame(self, parents, offsets, scales, ref_pts):
        """Cell reference points mapped into their parents' frames (n, p, 2),
        and the parents' Jacobians there (n, p, 2, 2)."""
        ppts = offsets[:, None, :] + scales[:, None, None] * np.asarray(ref_pts, dtype=float)
        return ppts, cell_geometry(self.space.mesh, parents, ppts)[1]

    def at_points(self, cids, ref_pts):
        """pi u (s, n, p, 2) at reference points of cells, (p, 2) shared by all
        cells or (n, p, 2) per cell; zero on cells outside every patch."""
        ranks = self.space.rank[cids]
        sel = np.flatnonzero(self._order[ranks] > 0)
        r = ranks[sel]
        ref_pts = np.broadcast_to(ref_pts, (len(ranks),) + np.shape(ref_pts)[-2:])
        out = np.zeros((len(self.sols),) + ref_pts.shape, dtype=complex)
        ppts, jac = self._parent_frame(
            self._parent[r], self._offset[r], self._scale[r], ref_pts[sel])
        det = jacobian_det(jac)
        rows, _ = _component_rows(ppts.reshape(-1, 2), RECOVERY_SPACE)
        half = rows.shape[2]
        rows = rows.reshape((2,) + ppts.shape[:2] + (half,))
        for k, c in enumerate(self._coeffs[:, r]):
            hat = np.einsum("cnpm,ncm->cnp", rows, c.reshape(len(r), 2, half))
            out[k, sel] = np.stack(covariant_map(jac, det, *hat), axis=-1)
        return out


def reconstruct(qd: QuadData) -> PatchReconstruction:
    """Patch recovery of every solution registered in qd, from one shared fit."""
    return PatchReconstruction(qd)


def _mass(wdet, eps, v, u):
    """sum_p wdet conj(v)_i eps_ij u_j per cell of fields (n, p, 2), written
    out for the 2x2 stack."""
    u0, u1 = u[..., 0], u[..., 1]
    return np.sum(wdet * (np.conj(v[..., 0]) * (eps[..., 0, 0] * u0 + eps[..., 0, 1] * u1)
                          + np.conj(v[..., 1]) * (eps[..., 1, 0] * u0 + eps[..., 1, 1] * u1)),
                  axis=1)


def indicators(qd: QuadData, model: SheetModel, recon: PatchReconstruction,
               weight: WeightFunction) -> dict[int, float]:
    """Per-cell indicators eta_Q from the mixed primal/dual residual form.

    qd registers the primal E_H and the adjoint Z_H, in that order, and recon
    is their recovery.  Only discrete quantities enter; the exact solutions
    never do.  The keys are space.active in order, so ascending, and mark
    and the VTK writer read the values in that order.
    """
    space = qd.space
    phys, det = qd.phys, qd.det

    (E_vals, Z_vals), (E_curl, Z_curl) = qd.values, qd.curls
    (ve_vals, wz_vals), (ve_curl, wz_curl) = recon.dvals_quad, recon.dcurls_quad

    flat = phys.reshape(-1, 2)
    inv_mu, eps_eff = pml_mod.material_arrays(flat, model.pml)
    inv_mu, eps_eff = inv_mu.reshape(det.shape), eps_eff.reshape(det.shape + (2, 2))
    wband = weight(flat).reshape(det.shape)
    dens = model.dipole.density(flat).reshape(det.shape)
    wdet = REF.quad_wts[None, :] * det
    # primal residual: F(w chi_Q) - A(E_H, w chi_Q)
    rho = 1j * np.sum(wdet * dens * np.conj(wz_vals[..., 1]), axis=1)
    rho -= np.sum(wdet * inv_mu * E_curl * np.conj(wz_curl), axis=1)
    rho += _mass(wdet, eps_eff, wz_vals, E_vals)
    # dual residual: D_E J(E_H)[v chi_Q] - A(v chi_Q, Z_H)
    rho_ast = np.sum(wdet * wband * ve_curl * np.conj(E_curl), axis=1)
    rho_ast -= np.sum(wdet * inv_mu * ve_curl * np.conj(Z_curl), axis=1)
    rho_ast += _mass(wdet, eps_eff, Z_vals, ve_vals)

    # the sheet term in one pass over the sheet sides, u_t from each face's
    # moments: each side takes half of its face integral along +x, so pi u_t
    # is the x component of pi u (a coarse neighbor maps the owner's points
    # into its frame)
    faces = space.sheet_faces
    quad = space.sheet_quadrature
    sigma_eff = pml_mod.sheet_arrays(quad.phys.reshape(-1, 2), model.sigma_r,
                                     model.pml).reshape(quad.weights.shape)
    sides = np.stack([faces.above, faces.below], 1)
    fid = np.nonzero(sides >= 0)[0]
    sheet = sides[sides >= 0]
    sheet_ref = quad.ref[fid]
    coarse = sheet != faces.owner[fid]
    p = sheet_ref.shape[1]
    sheet_ref[coarse] = sheet_ref_points(space.mesh, np.repeat(sheet[coarse], p),
                                         quad.phys[fid[coarse], :, 0].ravel()).reshape(-1, p, 2)
    fw = 0.5 * quad.weights[fid] * sigma_eff[fid]
    traces = quad.traces[fid] * quad.tangent[fid, :, :1]
    e_t, z_t = (np.einsum("fpk,fk->fp", traces, sol.coeffs[quad.dofs[fid]]) for sol in qd.sols)
    ranks = space.rank[sheet]
    pi_t = recon.at_points(sheet, sheet_ref)[..., 0]
    ve_t, wz_t = np.where(recon._order[ranks, None] > 0, pi_t - [e_t, z_t], 0)
    np.add.at(rho, ranks, 1j * np.sum(fw * e_t * np.conj(wz_t), axis=1))
    np.add.at(rho_ast, ranks, 1j * np.sum(fw * ve_t * np.conj(z_t), axis=1))

    eta = 0.5 * np.abs(rho + rho_ast)
    return dict(zip(space.active.tolist(), eta.tolist()))


MARK_RESOLUTION = 1e-9


def mark(indicator_map: dict[int, float], mesh: Mesh, weight: WeightFunction,
         cycle: int, fraction: float = 0.15, level_cap: int = 12) -> list[int]:
    """Top cells by indicator plus the forced, geometrically tightening band;
    indicator_map's keys ascend, as indicators returns them."""
    if cycle < 1:
        raise ValueError("cycles are counted from 1")
    active = np.fromiter(indicator_map, dtype=np.int64, count=len(indicator_map))
    eta = np.fromiter(indicator_map.values(), dtype=float, count=len(indicator_map))
    selected = np.zeros(len(active), dtype=bool)
    # largest indicators first, ties by ascending cell id; eta is ranked on a
    # grid of MARK_RESOLUTION times its maximum, so that near-equal values
    # (summation-order noise) count as ties; a tie at the cut is taken whole,
    # so the marked set does not depend on how cells are numbered
    scale = eta.max(initial=0.0) * MARK_RESOLUTION
    rank_key = np.round(eta / scale) if scale > 0 else eta
    top = np.lexsort((active, -rank_key))[:math.ceil(fraction * len(active))]
    if len(top):
        selected[rank_key == rank_key[top[-1]]] = True
    selected[top] = True
    wvals = weight(mesh.cell_corners(active).mean(axis=1))
    wmax = wvals.max()
    if wmax > 0:
        selected |= wvals / wmax > 1.0 - 0.5 ** (cycle - 1)
    return active[selected & (mesh.level[active] < level_cap)].tolist()
