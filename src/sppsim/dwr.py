"""Goal-oriented error indicators and marking for the adaptive loop.

The goal functional is the curl energy weighted by a cosine band around the
sheet.  Indicators follow the dual-weighted-residual recipe in mixed form:

    eta_Q = 1/2 | rho_Q(E_H, piZ - Z_H) + rho*_Q(Z_H, piE - E_H) |

with the primal and dual cell residuals evaluated variationally (no
integration by parts) and the unknown exact solutions replaced by patchwise
recoveries pi: weighted least-squares fits of an edge field on a parent
cell, of order 3 over a clean 2x2 sibling patch and of order 2 over all
active descendants of an irregular parent, which is cruder but safe.  A cell
below an irregular parent takes its fit.  The patches that win a cell are
fitted in batches of equal order and size, one normal-equation solve per
batch.  Only the differences (pi u - u) ever enter the indicators.

Marking combines the largest indicators by count with a forced band around
the sheet whose threshold tightens geometrically with the cycle number, so
the sheet neighborhood is refined unconditionally early on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pml as pml_mod
from .assembly import CHUNK_CELLS, SheetModel, iter_volume_tables
from .fespace import (REF, EdgeFESpace, FieldSolution, face_quadrature,
                      sheet_ref_points, vector_monomials)
from .mesh import (CHILD_OFFSETS, Mesh, boundary_faces, cell_geometry, jacobian_det,
                   jacobian_inv)


class QuadData:
    """Per-cell geometry and field values at the standard quadrature points.

    Holds the registered solutions and only small arrays (points, Jacobian
    determinants, complex field values/curls per solution); the basis tables
    are streamed in chunks and never retained.
    """

    def __init__(self, space: EdgeFESpace, sols: tuple):
        self.space = space
        self.sols = sols
        n = len(space.active)
        p = len(REF.quad_wts)
        self.phys = np.empty((n, p, 2))
        self.det = np.empty((n, p))
        self.values = [np.empty((n, p, 2), dtype=complex) for _ in sols]
        self.curls = [np.empty((n, p), dtype=complex) for _ in sols]
        lo = 0
        for ranks, phys, det, vals, curls in iter_volume_tables(space):
            hi = lo + len(ranks)
            self.phys[lo:hi] = phys
            self.det[lo:hi] = det
            for k, sol in enumerate(sols):
                local = sol.coeffs[space.cell_dofs[ranks]]
                self.values[k][lo:hi] = np.einsum("nb,npbi->npi", local, vals)
                self.curls[k][lo:hi] = np.einsum("nb,npb->np", local, curls)
            lo = hi


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

    def at_y(self, y: float) -> float:
        return float(self(np.array([[0.0, y]]))[0])


def qoi(sol: FieldSolution, weight: WeightFunction) -> float:
    """Weighted curl energy int w |curl E|^2; nonnegative by construction."""
    space = sol.space
    total = 0.0
    for ranks, phys, det, _, curls in iter_volume_tables(space):
        w = weight(phys.reshape(-1, 2)).reshape(det.shape)
        local = sol.coeffs[space.cell_dofs[ranks]]
        curl_e = np.einsum("nb,npb->np", local, curls)
        total += float(np.einsum("np,p,np->", det * w, REF.quad_wts,
                                 np.abs(curl_e) ** 2))
    return total


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
        quad = np.tile(np.arange(4), len(inner[1]))
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


class PatchReconstruction:
    """Higher-order recovery on parent patches, used through differences only.

    Each active cell with a parent takes the fit of one patch: its parent at
    order 3 when that is a clean 2x2 patch, unless an irregular parent lies
    above it, whose order-2 fit over all its active descendants wins (the
    later such parent in order of first appearance).  Only winning patches
    are fitted, grouped by order and member count, one batched weighted
    normal-equation solve per group.  Each cell keeps its embedding (offset,
    scale) in the parent's reference frame and its patch's coefficients; the
    differences at the standard quadrature points are precomputed for every
    active cell.
    """

    def __init__(self, qd: QuadData, k: int):
        self.sol = qd.sols[k]
        self.space = qd.space
        mesh = self.space.mesh
        self._u_quad, self._uc_quad = qd.values[k], qd.curls[k]
        n, p = qd.det.shape
        self.dvals_quad = np.zeros((n, p, 2), dtype=complex)
        self.dcurls_quad = np.zeros((n, p), dtype=complex)
        self._order = np.zeros(n, dtype=np.int64)   # 0: no patch, difference vanishes
        self._parent = np.zeros(n, dtype=np.int64)
        self._offset = np.zeros((n, 2))
        self._scale = np.zeros(n)
        self._coeffs = {2: np.zeros((n, 12), dtype=complex),
                        3: np.zeros((n, 24), dtype=complex)}

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
            step = max(1, CHUNK_CELLS // m)
            for lo in range(0, len(group), step):
                rows = (start[group[lo:lo + step], None] + np.arange(m)).ravel()
                self._fit(qd.det, int(order), int(m), parents[patch[rows]],
                          ranks[rows], offsets[rows], scales[rows], wins[rows])

    def _fit(self, det_quad, order, m, owner, ranks, offsets, scales, wins):
        """Fit patches of m member cells each (rows grouped by patch); store pi u - u."""
        n_patch = len(owner) // m
        mono, mono_curl, jac = self._parent_frame(owner, offsets, scales,
                                                  REF.quad_pts, order)
        n_cells, p, n_mono = mono_curl.shape
        # rows (cell, point, component) of each patch, weighted by w det
        a = np.moveaxis(mono, 3, 2).reshape(n_patch, -1, n_mono)
        del mono
        w = np.repeat((REF.quad_wts * det_quad[ranks]).reshape(n_patch, -1), 2, axis=1)
        b = (np.swapaxes(jac, 2, 3) @ self._u_quad[ranks][..., None]).reshape(n_patch, -1)
        aw_t = np.swapaxes(a * w[..., None], 1, 2)
        atb = aw_t @ np.stack([b.real, b.imag], axis=-1)
        # one complex solve: solving for the real and imaginary parts apart
        # rounds differently, enough to flip near-tied marks of mirror cells
        coeffs = np.linalg.solve((aw_t @ a).astype(complex),
                                 atb[..., :1] + 1j * atb[..., 1:])[..., 0]
        del aw_t
        # pi u from the same rows, real and imaginary parts as two columns
        parts = np.stack([coeffs.real, coeffs.imag], axis=-1)
        hat = (a @ parts).reshape(n_cells, p, 2, 2)
        curls = (mono_curl.reshape(n_patch, -1, n_mono) @ parts).reshape(n_cells, p, 2)
        coeffs = np.repeat(coeffs, m, axis=0)
        r, jac = ranks[wins], jac[wins]
        det = jacobian_det(jac)
        jinv_t = np.swapaxes(jacobian_inv(jac, det), 2, 3)
        hat = hat[wins, ..., 0] + 1j * hat[wins, ..., 1]
        self.dvals_quad[r] = (jinv_t @ hat[..., None])[..., 0] - self._u_quad[r]
        self.dcurls_quad[r] = ((curls[wins, :, 0] + 1j * curls[wins, :, 1])
                               / det - self._uc_quad[r])
        self._order[r] = order
        self._parent[r] = owner[wins]
        self._offset[r] = offsets[wins]
        self._scale[r] = scales[wins]
        self._coeffs[order][r] = coeffs[wins]

    def _parent_frame(self, parents, offsets, scales, ref_pts, order):
        """Monomials and parent Jacobians at cell reference points mapped into parents."""
        ppts = offsets[:, None, :] + scales[:, None, None] * np.asarray(ref_pts, dtype=float)
        n, p = ppts.shape[:2]
        mono, mono_curl = vector_monomials(ppts.reshape(-1, 2), order=order)
        _, jac = cell_geometry(self.space.mesh, parents, ppts)
        n_mono = mono.shape[1]
        return mono.reshape(n, p, n_mono, 2), mono_curl.reshape(n, p, n_mono), jac

    def _recovered(self, ranks, ref_pts):
        """pi u values (n, p, 2) and curls (n, p) at reference points of cells."""
        ref_pts = np.broadcast_to(ref_pts, (len(ranks),) + np.shape(ref_pts)[-2:])
        vals = np.zeros(ref_pts.shape, dtype=complex)
        curls = np.zeros(ref_pts.shape[:2], dtype=complex)
        for order, coeffs in self._coeffs.items():
            sel = np.nonzero(self._order[ranks] == order)[0]
            r = ranks[sel]
            c = coeffs[r]
            mono, mono_curl, jac = self._parent_frame(
                self._parent[r], self._offset[r], self._scale[r], ref_pts[sel], order)
            det = jacobian_det(jac)
            jinv_t = jacobian_inv(jac, det).transpose(0, 1, 3, 2)
            hat = np.einsum("npmc,nm->npc", mono, c)
            vals[sel] = np.einsum("npij,npj->npi", jinv_t, hat)
            curls[sel] = (mono_curl @ c[:, :, None])[..., 0] / det
        return vals, curls

    def diff(self, cids, ref_pts):
        """(pi u - u) values (n, p, 2) and curls (n, p) at reference points of cells.

        ref_pts is (p, 2) shared by all cells or (n, p, 2) per cell; cells
        outside every patch get zero differences.
        """
        ranks = self.space.rank[cids]
        pi_vals, pi_curls = self._recovered(ranks, ref_pts)
        patched = (self._order[ranks] > 0)[:, None]
        dvals = np.where(patched[..., None], pi_vals - self.sol.values(cids, ref_pts), 0)
        dcurls = np.where(patched, pi_curls - self.sol.curls(cids, ref_pts), 0)
        return dvals, dcurls


def reconstruct(qd: QuadData, k: int) -> PatchReconstruction:
    """Patch recovery of the k-th solution registered in qd."""
    return PatchReconstruction(qd, k)


def indicators(qd: QuadData, model: SheetModel, recon_E: PatchReconstruction,
               recon_Z: PatchReconstruction, weight: WeightFunction) -> dict[int, float]:
    """Per-cell indicators eta_Q from the mixed primal/dual residual form.

    Only discrete quantities enter; the exact solutions never do.
    """
    space = qd.space
    mesh = space.mesh
    w_q = REF.quad_wts
    phys, det = qd.phys, qd.det
    E_H, Z_H = recon_E.sol, recon_Z.sol

    E_vals, E_curl = recon_E._u_quad, recon_E._uc_quad
    Z_vals, Z_curl = recon_Z._u_quad, recon_Z._uc_quad
    wz_vals, wz_curl = recon_Z.dvals_quad, recon_Z.dcurls_quad
    ve_vals, ve_curl = recon_E.dvals_quad, recon_E.dcurls_quad

    n = len(space.active)
    rho = np.empty(n, dtype=complex)
    rho_ast = np.empty(n, dtype=complex)
    for lo in range(0, n, CHUNK_CELLS):
        sl = slice(lo, min(lo + CHUNK_CELLS, n))
        flat = phys[sl].reshape(-1, 2)
        inv_mu, eps_eff = pml_mod.material_arrays(flat, model.mu_r, model.eps_r,
                                                  model.pml)
        inv_mu = inv_mu.reshape(det[sl].shape)
        eps_eff = eps_eff.reshape(det[sl].shape + (2, 2))
        wband = weight(flat).reshape(det[sl].shape)
        dens = model.dipole.density(flat).reshape(det[sl].shape)
        wdet = w_q[None, :] * det[sl]
        # primal residual: F(w chi_Q) - A(E_H, w chi_Q)
        r = 1j * np.einsum("np,np->n", wdet * dens, np.conj(wz_vals[sl, :, 1]))
        r -= np.einsum("np,np->n", wdet * inv_mu * E_curl[sl], np.conj(wz_curl[sl]))
        r += np.einsum("np,npi,npij,npj->n", wdet + 0j, np.conj(wz_vals[sl]),
                       eps_eff, E_vals[sl])
        rho[sl] = r
        # dual residual: D_E J(E_H)[v chi_Q] - A(v chi_Q, Z_H)
        ra = np.einsum("np,np->n", wdet * wband * ve_curl[sl], np.conj(E_curl[sl]))
        ra -= np.einsum("np,np->n", wdet * inv_mu * ve_curl[sl], np.conj(Z_curl[sl]))
        ra += np.einsum("np,npi,npij,npj->n", wdet + 0j, np.conj(Z_vals[sl]),
                        eps_eff, ve_vals[sl])
        rho_ast[sl] = ra

    # sheet faces: half of each face integral to either adjacent cell, in face
    # order; a coarse neighbor maps the owner's quadrature points into its frame
    faces = space.sheet_faces
    owners = np.array([f.owner for f in faces], dtype=np.int64)
    ref, fphys, fw, _ = face_quadrature(mesh, owners, [f.owner_edge for f in faces])
    sigma_eff = pml_mod.sheet_arrays(fphys.reshape(-1, 2), model.sigma_r,
                                     model.pml).reshape(fw.shape)
    sides = [(k, cid) for k, f in enumerate(faces) for cid in (f.above, f.below)
             if cid is not None]
    fid = np.array([k for k, _ in sides], dtype=np.int64)
    cids = np.array([cid for _, cid in sides], dtype=np.int64)
    cref = ref[fid]
    coarse = cids != owners[fid]
    p = ref.shape[1]
    cref[coarse] = sheet_ref_points(mesh, np.repeat(cids[coarse], p),
                                    fphys[fid[coarse], :, 0].ravel()).reshape(-1, p, 2)
    e_t = E_H.values(cids, cref)[..., 0]
    z_t = Z_H.values(cids, cref)[..., 0]
    wz_t = recon_Z.diff(cids, cref)[0][..., 0]
    ve_t = recon_E.diff(cids, cref)[0][..., 0]
    fws = fw[fid] * sigma_eff[fid]
    ranks = space.rank[cids]
    share = 0.5
    np.add.at(rho, ranks, 1j * share * np.sum(fws * e_t * np.conj(wz_t), axis=1))
    np.add.at(rho_ast, ranks, 1j * share * np.sum(fws * ve_t * np.conj(z_t), axis=1))

    impedance = complex(np.sqrt(complex(model.eps_r) / complex(model.mu_r)))
    rim = boundary_faces(mesh)
    cids = np.array([f.owner for f in rim], dtype=np.int64)
    ref, _, fw, that = face_quadrature(mesh, cids, [f.owner_edge for f in rim])

    def tangential(v):
        return np.einsum("fpi,fpi->fp", v, that)

    e_t = tangential(E_H.values(cids, ref))
    z_t = tangential(Z_H.values(cids, ref))
    wz_t = tangential(recon_Z.diff(cids, ref)[0])
    ve_t = tangential(recon_E.diff(cids, ref)[0])
    ranks = space.rank[cids]
    np.add.at(rho, ranks, 1j * impedance * np.sum(fw * e_t * np.conj(wz_t), axis=1))
    np.add.at(rho_ast, ranks, 1j * impedance * np.sum(fw * ve_t * np.conj(z_t), axis=1))

    eta = 0.5 * np.abs(rho + rho_ast)
    return dict(zip(space.active.tolist(), eta.tolist()))


MARK_RESOLUTION = 1e-9


def mark(indicator_map: dict[int, float], mesh: Mesh, weight: WeightFunction,
         cycle: int, fraction: float = 0.15, level_cap: int = 12) -> list[int]:
    """Top cells by indicator plus the forced, geometrically tightening band."""
    if cycle < 1:
        raise ValueError("cycles are counted from 1")
    active = np.array(sorted(indicator_map), dtype=np.int64)
    eta = np.array([indicator_map[c] for c in active.tolist()])
    selected = np.zeros(len(active), dtype=bool)
    # largest indicators first, ties by ascending cell id; eta is ranked on a
    # grid of MARK_RESOLUTION times its maximum, so that near-equal values
    # (mirror cells, summation-order noise) count as ties; a tie at the cut is
    # taken whole, so that a mirror-symmetric mesh stays symmetric
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
