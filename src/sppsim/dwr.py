"""Goal-oriented error indicators and marking for the adaptive loop.

The goal functional is the curl energy weighted by a cosine band around the
sheet.  Indicators follow the dual-weighted-residual recipe in mixed form:

    eta_Q = 1/2 | rho_Q(E_H, piZ - Z_H) + rho*_Q(Z_H, piE - E_H) |

with the primal and dual cell residuals evaluated variationally (no
integration by parts) and the unknown exact solutions replaced by patchwise
recoveries pi: on every clean 2x2 sibling patch a least-squares fit of an
order-3 edge field on the parent cell; irregular patches fall back to an
order-2 parent fit, which is cruder but safe.  Only the differences
(pi u - u) ever enter the indicators.

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
from .mesh import (CHILD_OFFSETS, Mesh, boundary_faces, cell_geometry,
                   interface_faces, jacobian_det)


class QuadData:
    """Per-cell geometry and field values at the standard quadrature points.

    Holds only small arrays (points, Jacobian determinants, complex field
    values/curls per registered solution); the basis tables are streamed in
    chunks and never retained.
    """

    def __init__(self, space: EdgeFESpace, sols: tuple):
        self.space = space
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
    """Embeddings (owner, cid, offset, scale) of the active cells below each parent.

    Grouped by parent in the given order; within a parent the cells come in
    depth-first order with the last quadrant first, the order in which their
    least-squares rows are stacked.
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
    order = np.lexsort((-path, group))
    return parents[group[order]], cid[order], offset[order], scale[order]


class PatchReconstruction:
    """Higher-order recovery on parent patches, used through differences only.

    Each active cell below a patch keeps its embedding (offset, scale) in the
    parent's reference frame and the fitted coefficients of its patch.  Clean
    2x2 patches are fitted in one batched normal-equation solve; irregular
    patches get one least-squares fit each.  The differences at the standard
    quadrature points are precomputed for every active cell.
    """

    def __init__(self, sol: FieldSolution, space: EdgeFESpace, field_quad=None):
        self.sol = sol
        self.space = space
        mesh = space.mesh
        if field_quad is None:
            qd = QuadData(space, (sol,))
            field_quad = (qd.values[0], qd.curls[0], qd.det)
        self._u_quad, self._uc_quad, self._det_quad = field_quad
        n, p = self._det_quad.shape
        self.dvals_quad = np.zeros((n, p, 2), dtype=complex)
        self.dcurls_quad = np.zeros((n, p), dtype=complex)
        self._order = np.zeros(n, dtype=np.int64)   # 0: no patch, difference vanishes
        self._parent = np.zeros(n, dtype=np.int64)
        self._offset = np.zeros((n, 2))
        self._scale = np.zeros(n)
        self._coeffs = {2: np.zeros((n, 12), dtype=complex),
                        3: np.zeros((n, 24), dtype=complex)}

        # parents in order of first appearance over the active cells
        parents = mesh.parent[space.active]
        parents = parents[parents >= 0]
        parents = parents[np.sort(np.unique(parents, return_index=True)[1])]
        clean = (mesh.children[mesh.children[parents], 0] < 0).all(axis=1)
        if clean.any():
            self._fit_clean(parents[clean])
        if not clean.all():
            self._fit_generic(parents[~clean])

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
            jinv_t = np.linalg.inv(jac).transpose(0, 1, 3, 2)
            hat = np.einsum("npmc,nm->npc", mono, c)
            vals[sel] = np.einsum("npij,npj->npi", jinv_t, hat)
            curls[sel] = (mono_curl @ c[:, :, None])[..., 0] / jacobian_det(jac)
        return vals, curls

    # -- clean 2x2 patches, fully batched -----------------------------------

    def _fit_clean(self, parents: list[int]):
        mesh = self.space.mesh
        p = len(REF.quad_wts)
        ppts = np.concatenate([0.5 * np.asarray(off, dtype=float)[None, :]
                               + 0.5 * REF.quad_pts for off in CHILD_OFFSETS])
        mono, mono_curl = vector_monomials(ppts, order=3)          # (4p, 24, 2)
        _, jac_p = cell_geometry(mesh, parents, ppts)
        det_p = jacobian_det(jac_p)
        kid_ranks = self.space.rank[mesh.children[parents]]
        u = self._u_quad[kid_ranks].reshape(len(parents), 4 * p, 2)
        det_c = self._det_quad[kid_ranks].reshape(len(parents), 4 * p)
        w2 = np.tile(REF.quad_wts, 4)[None, :] * det_c
        pulled = np.einsum("nkji,nkj->nki", jac_p, u)
        ata = np.einsum("nk,kmc,klc->nml", w2, mono, mono)
        atb = np.einsum("nk,kmc,nkc->nm", w2, mono, pulled)
        coeffs = np.linalg.solve(ata.astype(complex), atb[..., None])[..., 0]
        jinv_t = np.linalg.inv(jac_p).transpose(0, 1, 3, 2)
        hat = np.einsum("kmc,nm->nkc", mono, coeffs)
        pi_vals = np.einsum("nkij,nkj->nki", jinv_t, hat)
        pi_curls = np.einsum("km,nm->nk", mono_curl, coeffs) / det_p
        shape = kid_ranks.shape + (p,)
        self.dvals_quad[kid_ranks] = pi_vals.reshape(shape + (2,)) - self._u_quad[kid_ranks]
        self.dcurls_quad[kid_ranks] = pi_curls.reshape(shape) - self._uc_quad[kid_ranks]
        self._order[kid_ranks] = 3
        self._parent[kid_ranks] = parents[:, None]
        self._offset[kid_ranks] = 0.5 * np.asarray(CHILD_OFFSETS, dtype=float)
        self._scale[kid_ranks] = 0.5
        self._coeffs[3][kid_ranks] = coeffs[:, None, :]

    # -- irregular patches: order-2 fit over all active descendants ---------

    def _fit_generic(self, parents):
        owner, members, offsets, scales = _active_descendants(self.space.mesh, parents)
        ranks = self.space.rank[members]
        mono, _, jac_p = self._parent_frame(owner, offsets, scales, REF.quad_pts, 2)
        pulled = np.einsum("npji,npj->npi", jac_p, self._u_quad[ranks])
        wts = np.sqrt(REF.quad_wts * self._det_quad[ranks])[:, :, None]
        rows_a = np.concatenate([mono[..., 0] * wts, mono[..., 1] * wts], axis=1)
        rows_b = np.concatenate([pulled[..., 0:1] * wts, pulled[..., 1:2] * wts],
                                axis=1)
        # one least-squares problem per parent over its consecutive members; a
        # cell below two irregular parents keeps the fit of the later one
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        for lo, hi in zip(starts, list(starts[1:]) + [len(members)]):
            coeffs, *_ = np.linalg.lstsq(rows_a[lo:hi].reshape(-1, 12).astype(complex),
                                         rows_b[lo:hi].ravel(), rcond=None)
            sl = slice(lo, hi)
            self._order[ranks[sl]] = 2
            self._parent[ranks[sl]] = owner[sl]
            self._offset[ranks[sl]] = offsets[sl]
            self._scale[ranks[sl]] = scales[sl]
            self._coeffs[2][ranks[sl]] = coeffs
        self.dvals_quad[ranks], self.dcurls_quad[ranks] = self.diff(members, REF.quad_pts)

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


def reconstruct(sol: FieldSolution, space: EdgeFESpace,
                field_quad=None) -> PatchReconstruction:
    return PatchReconstruction(sol, space, field_quad=field_quad)


def indicators(space: EdgeFESpace, model: SheetModel, E_H: FieldSolution,
               Z_H: FieldSolution, recon_E: PatchReconstruction,
               recon_Z: PatchReconstruction, weight: WeightFunction,
               geom=None) -> dict[int, float]:
    """Per-cell indicators eta_Q from the mixed primal/dual residual form.

    Only discrete quantities enter; the exact solutions never do.
    """
    mesh = space.mesh
    w_q = REF.quad_wts
    if geom is None:
        qd = QuadData(space, ())
        geom = (qd.phys, qd.det)
    phys, det = geom

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
    faces = interface_faces(mesh)
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


def mark(indicator_map: dict[int, float], mesh: Mesh, weight: WeightFunction,
         cycle: int, fraction: float = 0.15, level_cap: int = 12) -> list[int]:
    """Top cells by indicator plus the forced, geometrically tightening band."""
    if cycle < 1:
        raise ValueError("cycles are counted from 1")
    active = np.array(sorted(indicator_map), dtype=np.int64)
    eta = np.array([indicator_map[c] for c in active.tolist()])
    selected = np.zeros(len(active), dtype=bool)
    # largest indicators first, ties by ascending cell id
    selected[np.lexsort((active, -eta))[:math.ceil(fraction * len(active))]] = True
    wvals = weight(mesh.cell_corners(active).mean(axis=1))
    wmax = wvals.max()
    if wmax > 0:
        selected |= wvals / wmax > 1.0 - 0.5 ** (cycle - 1)
    return active[selected & (mesh.level[active] < level_cap)].tolist()
