import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import hankel1

from sppsim import assembly
from sppsim import mesh as msh
from sppsim import pml as pml_mod
from sppsim.assembly import (DIPOLE_NORM, AssemblyError, DipoleSpec, SheetModel,
                             _face_local, _volume_local, assemble_dipole_rhs,
                             assemble_dual_rhs, assemble_fixed, assemble_interface,
                             assemble_pair, assemble_sheet_load, assemble_volume,
                             condense, incident_ex, inner_cells, shape_classes)
from sppsim.dwr import WeightFunction, qoi
from sppsim.fespace import (REF, _T_HI, _T_LO, FieldSolution, build_constraints,
                            distribute_dofs, face_quadrature, face_traces)
from sppsim.harness import RunConfig, adaptive_cycles, solve_pair
from sppsim.mesh import cell_geometry, jacobian_det
from sppsim.pml import PmlSpec
from sppsim.solver import RESIDUAL_TOL, solve, solve_adjoint

from fields import (full_dof_matrix, interpolate, one_part_system, product_reference,
                    scatter_full, shape_eval, split_volume, uncondensed_constraints,
                    uncondensed_matrix)

R = 8 * np.pi


def grid_mesh(nx, ny, sx=1.0, sy=1.0, x0=0.0, y0=0.0, R_mesh=100.0):
    m = msh.Mesh(R_mesh)
    ids = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            ids[(i, j)] = m.add_vertex(x0 + sx * i, y0 + sy * j)
    for j in range(ny):
        for i in range(nx):
            m.add_cell((ids[(i, j)], ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]),
                       0, -1)
    return m


def model(sigma=0.15j, s0=2.0, d_reg=0.15625, a=1.0):
    return SheetModel(sigma_r=sigma, pml=PmlSpec(R=R, s0=s0),
                      dipole=DipoleSpec(height=a, radius=d_reg))


def disk_space(refines=2, extra_marks=0, seed=0):
    m = msh.build_disk_mesh(R, refines)
    rng = np.random.default_rng(seed)
    for _ in range(extra_marks):
        ids = m.active_ids()
        m.refine(rng.choice(ids, size=len(ids) // 6, replace=False))
    space = distribute_dofs(m)
    return space, build_constraints(space)


class TestMatrixStructure:
    def test_zero_conductivity_matches_sheet_free_matrix(self):
        # the sheet blocks are zero, and condense drops the entries they add
        space, cs = disk_space(2)
        mdl = model(sigma=0.0j)
        ranks, local, _ = assemble_interface(space, mdl)
        assert np.array_equal(ranks, space.rank[space.sheet_faces.owner])
        assert not local.any()
        full = one_part_system(space, cs, mdl).matrix
        vol, _ = condense(space, cs, split_volume(space, mdl))
        assert full.nnz == vol.nnz
        assert abs(full - vol).max() < 1e-14

    def test_inverted_cell_raises_geometry_error(self):
        m = msh.Mesh(100.0)
        corners = [m.add_vertex(x, y) for x, y in ((0, 0), (0, 1), (1, 1), (1, 0))]
        m.add_cell(tuple(corners), 0, -1)     # clockwise
        space = distribute_dofs(m)
        with pytest.raises(msh.GeometryError, match="nonpositive Jacobian"):
            assemble_volume(space, model(), space.active)

    def test_complex_symmetry(self):
        space, cs = disk_space(2, extra_marks=1)
        mdl = model(sigma=0.01 + 0.15j)
        mat = one_part_system(space, cs, mdl).matrix
        diff = abs(mat - mat.T).max()
        assert diff < 1e-12 * abs(mat).max()

    def test_unit_cell_diagonal_matches_direct_quadrature(self):
        m = grid_mesh(1, 1, y0=0.2)  # keep the cell off the sheet line
        space = distribute_dofs(m)
        mdl = model(sigma=0.0j)
        # the local matrix before condensation, all twelve dofs
        mat = _volume_local(space, mdl, space.active)[0]
        # independent oracle: 8x8 Gauss quadrature of |curl phi|^2 - |phi|^2
        x, w = np.polynomial.legendre.leggauss(8)
        x = 0.5 * (x + 1)
        w = 0.5 * w
        XI, ETA = np.meshgrid(x, x, indexing="ij")
        pts = np.column_stack([XI.ravel(), ETA.ravel()])
        wts = np.outer(w, w).ravel()
        vals, curls = shape_eval(space, [0], pts)
        for b in range(12):
            expected = np.sum(wts * curls[0, :, b] ** 2) - np.sum(
                wts * np.einsum("pi,pi->p", vals[0, :, b], vals[0, :, b]))
            assert mat[b, b] == pytest.approx(expected, rel=1e-12)

    def test_dissipative_sign_structure(self):
        # no PML, nonnegative sheet resistance, real materials
        space, cs = disk_space(1, extra_marks=1, seed=3)
        mdl = model(sigma=0.02 + 0.15j, s0=0.0)
        mat = one_part_system(space, cs, mdl).matrix
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
            quad = np.vdot(v, mat @ v)
            assert quad.imag <= 1e-12 * np.vdot(v, v).real

    def test_sheet_term_linear_in_conductivity_and_localized(self):
        space, cs = disk_space(1)
        m1 = scatter_full(space, *assemble_interface(space, model(sigma=0.1j)))
        m2 = scatter_full(space, *assemble_interface(space, model(sigma=0.2j)))
        assert abs(m2 - 2.0 * m1).max() < 1e-13 * abs(m1).max()
        sheet_dofs = set(space.cell_dofs[space.rank[msh.interface_faces(space.mesh).owner]]
                         .ravel())
        coo = m1.tocoo()
        assert set(coo.row).issubset(sheet_dofs)
        assert set(coo.col).issubset(sheet_dofs)

    def test_sheet_term_of_unit_tangential_field(self):
        # E = e_x has unit trace on the sheet; without the layer the sheet term
        # is -i sigma times the sheet length R of the half disk
        space, _ = disk_space(2, extra_marks=1)
        sigma = 0.01 + 0.15j
        c = interpolate(space, lambda p: np.column_stack([np.ones(len(p)),
                                                          np.zeros(len(p))]))
        mdl = model(sigma=sigma, s0=0.0)
        m_sheet = scatter_full(space, *assemble_interface(space, mdl))
        assert c @ (m_sheet @ c) == pytest.approx(-1j * sigma * R, rel=1e-11)

    def test_traversal_order_independence(self):
        space, _ = disk_space(1)
        mdl = model()
        ref = full_dof_matrix(space, mdl)

        def volume_only(cids):
            ranks = space.rank[cids]
            phys, det, vals, curls = mapped_tables(space, cids)
            w = REF.quad_wts
            inv_mu, eps_eff = pml_mod.material_arrays(phys.reshape(-1, 2), mdl.pml)
            inv_mu = inv_mu.reshape(det.shape)
            eps_eff = eps_eff.reshape(det.shape + (2, 2))
            wdet = w[None, :] * det
            local = np.einsum("np,npb,npd->nbd", wdet * inv_mu, curls, curls)
            local = local - np.einsum("np,npbi,npij,npdj->nbd", wdet + 0j, vals,
                                      eps_eff, vals)
            dofs = space.cell_dofs[ranks]
            rows = np.repeat(dofs, 12, axis=1).ravel()
            cols = np.tile(dofs, (1, 12)).ravel()
            return sp.coo_matrix((local.ravel(), (rows, cols)),
                                 shape=(space.n_dofs, space.n_dofs)).tocsr()

        forward = volume_only(space.active)
        backward = volume_only(space.active[::-1])
        scale = abs(forward).max()
        assert abs(forward - backward).max() < 1e-13 * scale
        assert abs(ref - ref.T).max() < 1e-12 * scale


def mapped_tables(space, cids):
    """Points, det J and mapped basis tables (shape_eval) at the quadrature points."""
    phys, jac = cell_geometry(space.mesh, cids, REF.quad_pts)
    return (phys, jacobian_det(jac)) + shape_eval(space, cids, REF.quad_pts)


def einsum_local(space, mdl, cids):
    """Per-cell curl-curl minus mass matrices by direct einsum contractions."""
    phys, det, vals, curls = mapped_tables(space, cids)
    inv_mu, eps_eff = pml_mod.material_arrays(phys.reshape(-1, 2), mdl.pml)
    wdet = REF.quad_wts[None, :] * det
    local = np.einsum("np,npb,npd->nbd", wdet * inv_mu.reshape(det.shape), curls, curls)
    return local - np.einsum("np,npbi,npij,npdj->nbd", wdet + 0j, vals,
                             eps_eff.reshape(det.shape + (2, 2)), vals)


def radii(space):
    corners = space.mesh.cell_corners(space.active)
    return np.hypot(corners[..., 0], corners[..., 1])


def rim_cells(space):
    """Mask over the active cells: an edge on the outer circle."""
    mesh = space.mesh
    return mesh.on_rim()[mesh.edge_keys(space.active)].all(axis=2).any(axis=1)


class TestLocalKernel:
    @pytest.mark.parametrize("s0", [0.0, 2.0])
    @pytest.mark.parametrize("layout", ["disk", "grid"])
    def test_shared_gemm_kernel_matches_einsum_per_cell(self, layout, s0):
        if layout == "disk":
            space, cs = disk_space(2, extra_marks=2, seed=1)
            assert cs.n_master < cs.n_dofs    # hanging faces
            assert rim_cells(space).any()
        else:
            # equal squares on both sides of the layer's inner radius
            space = distribute_dofs(grid_mesh(6, 2, sx=4.0, sy=4.0, y0=0.5))
        mdl = model(s0=s0)
        assert np.any(radii(space) > mdl.pml.rho)
        # the inner cells once per shape class, the outer cells one by one
        inner = inner_cells(space, mdl)
        reps, inverse = shape_classes(space, space.active[inner])
        assert len(reps) < inner.sum()
        local = _volume_local(space, mdl, space.active)
        local[inner] = _volume_local(space, mdl, reps)[inverse]
        ref = einsum_local(space, mdl, space.active)
        err = abs(local - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * abs(ref).max(axis=(1, 2)))

    def test_face_matrices_match_einsum(self):
        space, _ = disk_space(2, extra_marks=1)
        mdl = model(sigma=0.01 + 0.15j)
        faces = msh.interface_faces(space.mesh)
        coef = lambda x: -1j * pml_mod.sheet_arrays(
            x.reshape(-1, 2), mdl.sigma_r, mdl.pml).reshape(x.shape[:2])
        quad = face_traces(space, faces)
        ranks, mat, slots = _face_local(space, quad, coef(quad.phys))
        cids = faces.owner
        assert np.array_equal(ranks, space.rank[cids])
        assert np.array_equal(slots, 2 * faces.ledge[:, None] + np.arange(2))
        ref_pts, phys, wds, tangent, _ = face_quadrature(space.mesh, cids, faces.ledge)
        vals, _ = shape_eval(space, cids, ref_pts)
        tang = np.einsum("fpbi,fpi->fpb", vals, tangent)
        # all twelve mapped functions: only the face's own pair has a trace
        local = np.einsum("fp,fpb,fpd->fbd", wds * coef(phys), tang, tang)
        pair = local[np.arange(len(cids))[:, None, None], slots[:, :, None], slots[:, None, :]]
        off = local.copy()
        off[np.arange(len(cids))[:, None, None], slots[:, :, None], slots[:, None, :]] = 0
        assert abs(off).max() <= 1e-13 * abs(local).max()
        assert abs(mat - pair).max() <= 1e-13 * abs(local).max()


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(scope="module")
def mixed_space():
    """Disk space with interior, hanging, rim and layer cells."""
    space, cs = disk_space(2, extra_marks=2, seed=1)
    assert cs.n_master < cs.n_dofs
    assert rim_cells(space).any()
    assert np.any(radii(space) > model().pml.rho)
    return space


class TestReferenceKernels:
    """Each reference-frame kernel against the mapped basis (fields.shape_eval)."""

    def test_face_traces(self, mixed_space):
        space = mixed_space
        faces = space.sheet_faces
        quad = face_traces(space, faces)
        rows = np.arange(len(faces))[:, None]
        assert np.array_equal(quad.dofs, space.cell_dofs[space.rank[faces.owner][:, None],
                                                         quad.slots])
        vals, _ = shape_eval(space, faces.owner, quad.ref)
        want = np.einsum("fpbi,fpi->fpb", vals, quad.tangent)    # all twelve
        assert rel_err(quad.traces, want[rows, :, quad.slots].transpose(0, 2, 1)) <= 1e-13
        # every function but the face's own pair has no tangential trace
        want[rows, :, quad.slots] = 0
        assert np.abs(want).max() <= 1e-13 * np.abs(quad.traces).max()

    def test_dual_rhs(self, mixed_space):
        space = mixed_space
        weight = WeightFunction(half_width=20.0)
        rng = np.random.default_rng(5)
        sol = FieldSolution(space, rng.standard_normal(space.n_dofs)
                            + 1j * rng.standard_normal(space.n_dofs))
        phys, det, _, curls = mapped_tables(space, space.active)
        wvals = weight(phys.reshape(-1, 2)).reshape(det.shape)
        dofs = space.cell_dofs[space.rank[space.active]]
        curl_e = np.einsum("nb,npb->np", sol.coeffs[dofs], curls)
        local = np.einsum("np,npb->nb", REF.quad_wts * det * wvals * np.conj(curl_e), curls)
        want = np.zeros(space.n_dofs, dtype=complex)
        np.add.at(want, dofs.ravel(), local.ravel())
        assert rel_err(assemble_dual_rhs(space, sol, weight), want) <= 1e-13

    def test_dipole_rhs(self):
        space, _, dip = resolved_space(sheet_hanging=True)
        mdl = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=R, s0=2.0), dipole=dip)
        cids = msh.cells_intersecting_disk(space.mesh, dip.position, dip.radius)
        phys, det, vals, _ = mapped_tables(space, cids)
        dens = dip.density(phys.reshape(-1, 2)).reshape(det.shape)
        local = 1j * np.einsum("np,npb->nb", REF.quad_wts * det * dens, vals[..., 1])
        want = np.zeros(space.n_dofs, dtype=complex)
        np.add.at(want, space.cell_dofs[space.rank[cids]].ravel(), local.ravel())
        assert rel_err(assemble_dipole_rhs(space, mdl), want) <= 1e-13


class TestShapeClasses:
    def squares(self, specs, R_mesh=100.0):
        """One cell per (x0, y0, vertex creation order, top shift)."""
        m = msh.Mesh(R_mesh)
        for x0, y0, order, shift in specs:
            pts = [(x0, y0), (x0 + 1, y0), (x0 + 1 + shift, y0 + 1), (x0, y0 + 1)]
            ids = {k: m.add_vertex(*pts[k]) for k in order}
            m.add_cell(tuple(ids[k] for k in range(4)), 0, -1)
        space = distribute_dofs(m)
        return space, shape_classes(space, space.active)[1]

    def test_translated_equal_cells_share_a_class(self):
        space, inverse = self.squares([(0.0, 1.0, range(4), 0.0),
                                       (3.0, 5.0, range(4), 0.0),
                                       (-7.5, -2.25, range(4), 0.0)])
        assert len(set(space.orient_idx.tolist())) == 1
        assert inverse.tolist() == [0, 0, 0]

    def test_orientation_signature_splits_equal_shapes(self):
        space, inverse = self.squares([(0.0, 1.0, range(4), 0.0),
                                       (3.0, 1.0, [3, 2, 1, 0], 0.0)])
        assert space.orient_idx[0] != space.orient_idx[1]
        assert inverse[0] != inverse[1]

    def test_non_parallelograms_are_singletons(self):
        space, inverse = self.squares([(6.0, 1.0, range(4), 0.5),
                                       (9.0, 1.0, range(4), 0.5),
                                       (12.0, 1.0, range(4), 0.0),
                                       (15.0, 1.0, range(4), 0.0)])
        assert len(set(inverse[:2].tolist())) == 2
        assert inverse[2] == inverse[3] and inverse[2] not in inverse[:2]

    def test_cells_beyond_inner_radius_are_assembled_per_cell(self):
        mdl = model()
        space = distribute_dofs(grid_mesh(6, 1, sx=4.0, sy=4.0, y0=0.5))
        inside = np.all(radii(space) <= mdl.pml.rho, axis=1)
        assert inside.sum() >= 2 and (~inside).sum() >= 2
        assert np.array_equal(inner_cells(space, mdl), inside)
        _, inverse = shape_classes(space, space.active[inside])
        assert len(set(inverse.tolist())) == 1
        # the layer cells are translates of one square too, but each has its
        # own coefficients and so its own matrix, the one it has alone
        outer = space.active[~inside]
        schur, _ = assemble_volume(space, mdl, outer)
        for k in range(len(outer)):
            alone, _ = assemble_volume(space, mdl, outer[k:k + 1])
            assert abs(schur[k] - alone[0]).max() <= 1e-14 * abs(alone).max()
            assert k == 0 or abs(schur[k] - schur[k - 1]).max() > 1e-6 * abs(alone).max()

    def test_disk_mesh_shares_only_interior_straight_cells(self):
        space, _ = disk_space(2, extra_marks=2, seed=1)
        mdl = model()
        inner = inner_cells(space, mdl)
        reps, inverse = shape_classes(space, space.active[inner])
        shared = np.zeros(len(space.active), dtype=bool)
        shared[inner] = np.bincount(inverse)[inverse] > 1
        outside = np.any(radii(space) > mdl.pml.rho, axis=1)
        assert shared.any() and not np.any(inner & (rim_cells(space) | outside))
        rep_rank = space.rank[reps[inverse]]
        assert np.array_equal(space.orient_idx[rep_rank], space.orient_idx[inner])


@pytest.fixture(scope="module")
def cycle3_space():
    """The space of cycle 3 of the default run, and the run's model."""
    cfg = RunConfig(cycles=3, write_artifacts=False)
    for cycle, space, _, _ in adaptive_cycles(cfg):
        if cycle == 3:
            return space, cfg.model()


class TestOncePerMeshState:
    def test_shape_classes_are_the_unique_key_rows(self, cycle3_space):
        space, mdl = cycle3_space
        cids = space.active[inner_cells(space, mdl)]
        reps, inverse = shape_classes(space, cids)
        _, first, want = np.unique(assembly._shape_key(space, cids), axis=0,
                                   return_index=True, return_inverse=True)
        assert np.array_equal(reps, cids[first])
        assert np.array_equal(inverse, want.reshape(-1))
        assert len(reps) < len(cids)

    def test_outer_cells_are_assembled_per_cell(self, cycle3_space):
        # the per-model part gives each outer cell the matrix it has alone
        space, mdl = cycle3_space
        fixed = assemble_fixed(space, build_constraints(space), mdl)
        assert np.array_equal(fixed.outer, space.active[~inner_cells(space, mdl)])
        schur, interior = assemble_volume(space, mdl, fixed.outer)
        assert np.array_equal(interior.cids, fixed.outer)
        for k in range(0, len(fixed.outer), 25):
            alone, one = assemble_volume(space, mdl, fixed.outer[k:k + 1])
            assert abs(schur[k] - alone[0]).max() <= 1e-14 * abs(alone).max()
            assert abs(interior.k_ii[k] - one.k_ii[0]).max() <= 1e-14 * abs(one.k_ii).max()

    def test_material_arrays_have_the_bytes_of_the_unmasked_formula(self, cycle3_space):
        # only the points beyond rho are evaluated; one and the identity
        # elsewhere carry the bits of the formula there, signed zeros included
        space, mdl = cycle3_space
        phys, _ = cell_geometry(space.mesh, space.active, REF.quad_pts)
        pts = phys.reshape(-1, 2)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.any(r <= mdl.pml.rho) and np.any(r > mdl.pml.rho)
        d = 1.0 + 1j * pml_mod.profile(r, mdl.pml)
        dbar = 1.0 + 1j * pml_mod.profile_integral(r, mdl.pml) / r
        e_r = pts / r[:, None]
        eps = ((d / dbar)[:, None, None] * np.eye(2)[None, :, :]
               + (dbar / d - d / dbar)[:, None, None] * (e_r[:, :, None] * e_r[:, None, :]))
        for got, want in zip((*pml_mod.stretch_arrays(pts, mdl.pml),
                              *pml_mod.material_arrays(pts, mdl.pml)),
                             (d, dbar, 1.0 / (d * dbar), eps)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s0", [0.0, 8.0])
    def test_constraint_map_is_c_plus_coupling_c_in_one_piece(self, cycle3_space, s0):
        # the fixed part's rows plus each model's outer rows give the map
        # C + coupling C of all cells at once (fields.product_reference); the
        # hanging cells' rows -W T sum their entries in another order
        space, mdl = cycle3_space
        cs = build_constraints(space)
        fixed = assemble_fixed(space, cs, model(s0=5.0))
        mdl = dataclasses.replace(mdl, pml=PmlSpec(R=mdl.pml.R, s0=s0))
        p = assemble_pair(fixed, mdl).constraints.matrix
        want = product_reference(space, cs, mdl)[1]
        assert np.array_equal(p.indptr, want.indptr)
        assert max_rel(p, want) <= 1e-14
        assert p[space.n_edge_dofs:].nnz > 0


class TestDipoleRhs:
    def bump_mesh(self, hfac=8, d=0.15625):
        h = d / hfac
        n = int(np.ceil(0.5 / h))
        return grid_mesh(n, n, sx=0.5 / n, sy=0.5 / n, x0=-0.25, y0=0.75)

    def test_unit_mass_under_assembly_quadrature(self):
        d = 0.15625
        m = self.bump_mesh(8, d)
        dip = DipoleSpec(height=1.0, radius=d)
        cids = m.active_ids()
        phys, jac = cell_geometry(m, cids, REF.quad_pts)
        det = jacobian_det(jac)
        dens = dip.density(phys.reshape(-1, 2)).reshape(det.shape)
        mass = np.einsum("np,p,np->", det, REF.quad_wts, dens)
        assert abs(mass - 1.0) < 1e-6

    def test_center_value(self):
        d = 0.15625
        dip = DipoleSpec(height=1.0, radius=d)
        val = dip.density(np.array([[0.0, 1.0]]))[0]
        assert val == pytest.approx(DIPOLE_NORM / d**2, rel=1e-14)

    def test_support_confined_to_bump(self):
        m = self.bump_mesh(4)
        space = distribute_dofs(m)
        rhs = assemble_dipole_rhs(space, model(d_reg=0.15625, a=1.0))
        dip = DipoleSpec(height=1.0, radius=0.15625)
        far, near = set(), set()
        for r, corners in enumerate(m.cell_corners(space.active)):
            mid = corners.mean(axis=0)
            rad = np.max(np.linalg.norm(corners - mid, axis=1))
            dofs = space.cell_dofs[r]
            if np.linalg.norm(mid - dip.position) > dip.radius + rad:
                far.update(dofs)
            else:
                near.update(dofs)
        assert np.all(rhs[sorted(far - near)] == 0)
        assert np.any(rhs != 0)

    def test_unresolved_mesh_rejected_with_hint(self):
        m = grid_mesh(4, 4, sx=0.25, sy=0.25, x0=-0.5, y0=0.5)
        space = distribute_dofs(m)
        with pytest.raises(AssemblyError, match="refine"):
            assemble_dipole_rhs(space, model(d_reg=0.15625, a=1.0))


class ZeroWeight(WeightFunction):
    def __call__(self, pts):
        return np.zeros(len(pts))


class TestDualRhs:
    def setup_method(self):
        self.space, self.cs = disk_space(1)
        self.weight = WeightFunction(half_width=1.5625)

    def test_zero_field_zero_rhs(self):
        zero = FieldSolution(self.space, np.zeros(self.space.n_dofs, dtype=complex))
        assert np.all(assemble_dual_rhs(self.space, zero, self.weight) == 0)

    def test_zero_weight_zero_rhs(self):
        rng = np.random.default_rng(0)
        sol = FieldSolution(self.space, rng.standard_normal(self.space.n_dofs) + 0j)
        rhs = assemble_dual_rhs(self.space, sol, ZeroWeight(half_width=1.5625))
        assert np.all(rhs == 0)

    def test_antilinear_scaling(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(self.space.n_dofs) + 1j * rng.standard_normal(self.space.n_dofs)
        r1 = assemble_dual_rhs(self.space, FieldSolution(self.space, c), self.weight)
        r2 = assemble_dual_rhs(self.space, FieldSolution(self.space, 2.0 * c), self.weight)
        assert np.allclose(r2, 2.0 * r1)
        rj = assemble_dual_rhs(self.space, FieldSolution(self.space, 1j * c), self.weight)
        assert np.allclose(rj, -1j * r1)

    def test_is_the_derivative_of_the_goal_functional(self):
        # qoi is quadratic in E, so its central difference is exact up to rounding
        n = self.space.n_dofs
        rng = np.random.default_rng(2)
        e, v = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        h = 0.5
        q_plus, q_minus = (qoi(FieldSolution(self.space, e + s * h * v), self.weight)
                           for s in (1.0, -1.0))
        rhs = assemble_dual_rhs(self.space, FieldSolution(self.space, e), self.weight)
        assert (q_plus - q_minus) / (2 * h) == pytest.approx(2 * np.real(v @ rhs),
                                                             rel=1e-12)


def resolved_space(sheet_hanging=False):
    """Disk mesh resolving a dipole of radius 1.2 at height 1, and its space.

    With sheet_hanging, the cells above the sheet at x = 5 are split once
    more, which leaves hanging faces on the sheet below them.
    """
    m = msh.build_disk_mesh(R, 2)
    dip = DipoleSpec(height=1.0, radius=1.2)
    for _ in range(3):
        cids = [c for c in msh.cells_intersecting_disk(m, dip.position, dip.radius)
                if msh.cell_diameters(m, [c])[0] > 0.5 * dip.radius]
        if not cids:
            break
        m.refine(cids)
    if sheet_hanging:
        ids = m.active_ids()
        corners = m.cell_corners(ids)
        hit = ((corners[..., 0].min(axis=1) <= 5.0) & (corners[..., 0].max(axis=1) > 5.0)
               & (corners[..., 1].min(axis=1) == 0.0))
        m.refine(ids[hit])
    space = distribute_dofs(m)
    return space, build_constraints(space), dip


def max_rel(a, b):
    return abs(a - b).max() / abs(b).max()


class TestFullSystem:
    def test_solve_pair_composes_terms(self):
        space, cs, dip = resolved_space()
        mdl = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=R, s0=2.0), dipole=dip)
        _, system, _ = solve_pair(space, cs, mdl)
        assert system.matrix.shape == (cs.n_master, cs.n_master)
        assert system.matrix.format == "csc" and system.matrix.has_canonical_format
        # the pair carries the eliminated sheet load
        load = assemble_sheet_load(space, mdl)
        assert np.any(system.rhs != 0)
        assert np.array_equal(system.rhs, system.constraints.matrix.T @ load)
        assert np.array_equal(system.rhs_interior, space.interior(load))
        # the pair is the fixed part plus the outer volume and sheet terms,
        # condensed together
        fixed = assemble_fixed(space, cs, mdl)
        varying, _ = condense(space, cs, assemble_volume(space, mdl, fixed.outer),
                              assemble_interface(space, mdl))
        assert abs(system.matrix - (fixed.matrix + varying)).max() == 0
        # and the global products of all terms, up to the order of the sums
        mat, p = product_reference(space, cs, mdl)
        assert max_rel(system.matrix, mat) <= 1e-14
        assert max_rel(system.constraints.matrix, p) <= 1e-14


class TestSplitPair:
    @pytest.mark.parametrize("s0", [0.0, 2.0, 8.0])
    def test_split_pair_matches_one_shot_condensation(self, s0):
        space, cs, dip = resolved_space(sheet_hanging=True)
        mdl = SheetModel(sigma_r=0.01 + 0.15j, pml=PmlSpec(R=R, s0=s0), dipole=dip)
        inner = inner_cells(space, mdl)
        assert np.any(radii(space)[~inner] > mdl.pml.rho)
        assert rim_cells(space)[~inner].any()
        faces = msh.interface_faces(space.mesh)
        sheet_dofs = space.cell_dofs[space.rank[faces.owner], 2 * faces.ledge]
        assert not np.isin(sheet_dofs, cs.master_dofs).all()
        # the fixed part is built at another layer strength and conductivity
        fixed = assemble_fixed(space, cs, SheetModel(
            sigma_r=0.3j, pml=PmlSpec(R=R, s0=5.0), dipole=dip))
        pair = assemble_pair(fixed, mdl)
        # without conductivity the pair is the sheet-free matrix
        mat_0 = assemble_pair(fixed, dataclasses.replace(mdl, sigma_r=0j)).matrix
        one_0 = one_part_system(space, cs, dataclasses.replace(mdl, sigma_r=0j)).matrix
        one_tot = one_part_system(space, cs, mdl).matrix
        assert max_rel(mat_0, one_0) <= 1e-13
        assert max_rel(pair.matrix, one_tot) <= 1e-13
        # the interior blocks and the eliminated dipole load are those of a
        # fixed part built at the model itself
        fresh = assemble_pair(assemble_fixed(space, cs, mdl), mdl)
        load = assemble_dipole_rhs(space, mdl)
        assert np.array_equal(pair.k_ii, fresh.k_ii)
        assert np.array_equal(pair.with_load(load).rhs, fresh.with_load(load).rhs)

    def test_fixed_part_rejects_another_disk_radius(self):
        # the disk radius sets the inner cells through rho = 0.8 R; the dipole
        # does not enter the fixed part
        space, cs, dip = resolved_space()
        mdl = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=R, s0=2.0), dipole=dip)
        other = DipoleSpec(height=2 * dip.height, radius=0.5 * dip.radius)
        fixed = assemble_fixed(space, cs, dataclasses.replace(mdl, dipole=other))
        assert max_rel(assemble_pair(fixed, mdl).matrix,
                       one_part_system(space, cs, mdl).matrix) <= 1e-13
        with pytest.raises(ValueError, match="disk radius"):
            assemble_pair(fixed, dataclasses.replace(mdl, pml=PmlSpec(R=0.9 * R, s0=2.0)))

    def test_equal_layer_cells_keep_their_own_matrices(self):
        # translates of one square beyond rho have different coefficients, so
        # the pair must not share one matrix between them as a shape class would
        mdl = model(sigma=0.01 + 0.15j)
        space = distribute_dofs(grid_mesh(6, 1, sx=4.0, sy=4.0))
        cs = build_constraints(space)
        fixed = assemble_fixed(space, cs, mdl)
        assert len(fixed.outer) >= 2
        pair = assemble_pair(fixed, mdl)
        assert max_rel(pair.matrix, one_part_system(space, cs, mdl).matrix) <= 1e-13

    def test_cells_with_a_corner_beyond_rho_or_an_arc_edge_are_outer(self):
        mdl = model()
        rho = mdl.pml.rho
        m = msh.Mesh(100.0)
        # a cell wholly within rho, one whose far corner lies just beyond it
        # and a cell wholly beyond rho
        c = (rho + 0.3) / np.sqrt(2.0) - 1.0
        for x0, y0 in [(1.0, 1.0), (c, c), (rho + 1.0, 0.0)]:
            ids = [m.add_vertex(x0 + dx, y0 + dy)
                   for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))]
            m.add_cell(tuple(ids), 0, -1)
        space = distribute_dofs(m)
        assert (radii(space)[1] > rho).sum() == 1
        assert inner_cells(space, mdl).tolist() == [True, False, False]
        # a cell with an "arc" edge, a polygon edge on the rim, lies beyond rho
        space, _, _ = resolved_space()
        rim = rim_cells(space)
        assert rim.any() and not np.any(inner_cells(space, mdl) & rim)


class TestIncidentField:
    def test_closed_form_matches_central_differences(self):
        # E_x = -(1/4) d_x d_y H0(|p - (0, a)|), differenced at y = 0
        a, h = 1.0, 1e-3
        xs = np.array([0.3, 1.7, 4.2, 11.0])

        def h0(x, y):
            return hankel1(0, np.hypot(x, y - a))

        mixed = (h0(xs + h, h) - h0(xs + h, -h) - h0(xs - h, h) + h0(xs - h, -h)) / (4 * h * h)
        exact = incident_ex(xs, a, PmlSpec(R=R, s0=2.0))
        assert np.abs(exact - (-0.25 * mixed)).max() <= 1e-6 * np.abs(exact).max()

    def test_layer_field_is_the_derivative_along_the_stretched_path(self):
        # d_y H0 = a H1(r)/r on y = 0, so E_x = -(a/4) d/dx (H1(r)/r); along
        # x -> x~ = x dbar(x) the chain rule gives the factor d = dx~/dx
        a, h = 1.0, 1e-4
        pml = PmlSpec(R=R, s0=2.0)
        xs = np.array([0.85, 0.9, 0.97]) * R

        def g(x):
            _, dbar = pml_mod.stretch_arrays(np.column_stack([x, 0 * x]), pml)
            r = np.sqrt((x * dbar) ** 2 + a**2)
            return a * hankel1(1, r) / r

        numeric = -0.25 * (g(xs + h) - g(xs - h)) / (2 * h)
        exact = incident_ex(xs, a, pml)
        assert np.abs(exact - numeric).max() <= 1e-6 * np.abs(exact).max()

    def test_unstretched_up_to_the_layer(self):
        a = 1.0
        pml = PmlSpec(R=R, s0=2.0)
        xs = np.linspace(0.05, R, 4001)
        inside = xs <= pml.rho
        r = np.sqrt(xs**2 + a**2)
        free = a * xs / 4 * (2 * hankel1(1, r) / r - hankel1(0, r)) / r**2
        got = incident_ex(xs, a, pml)
        assert np.array_equal(got[inside], free[inside])
        assert np.all(got[~inside][1:] != free[~inside][1:])
        # the stretch damps the outgoing wave inside the layer
        assert abs(got[-1]) < 0.5 * abs(free[-1])
        assert np.array_equal(incident_ex(xs, a, PmlSpec(R=R, s0=0.0)), free)

    def test_odd_in_x(self):
        xs = np.linspace(0.1, R, 97)
        pml = PmlSpec(R=R, s0=2.0)
        assert np.array_equal(incident_ex(-xs, 1.0, pml), -incident_ex(xs, 1.0, pml))

    @pytest.mark.parametrize("s0", [0.0, 2.0])
    def test_sheet_load_is_minus_sheet_term_of_the_field(self, s0, monkeypatch):
        # with E_inc replaced by a linear E_x, which the edge space reproduces
        # on the sheet, the load is minus the sheet matrix applied to it
        monkeypatch.setattr(assembly, "incident_ex",
                            lambda x, height, pml: 0.3 - 0.2j + 0.05 * x)
        space, _ = disk_space(2, extra_marks=1)
        mdl = model(sigma=0.01 + 0.15j, s0=s0)
        c = interpolate(space, lambda p: np.column_stack([0.3 - 0.2j + 0.05 * p[:, 0],
                                                          np.zeros(len(p))]))
        expected = -(scatter_full(space, *assemble_interface(space, mdl)) @ c)
        load = assemble_sheet_load(space, mdl)
        assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_sheet_load_vanishes_without_conductivity(self):
        space, _ = disk_space(1)
        assert not np.any(assemble_sheet_load(space, model(sigma=0.0j)))


class TestCondensation:
    """The condensed kernels against the uncondensed 12-dof reference (fields)."""

    def test_kernel_schur_complements_match_dense_reference(self, mixed_space):
        space = mixed_space
        mdl = model(sigma=0.01 + 0.15j)
        # the inner cells once per shape class, the outer cells one by one
        inner = inner_cells(space, mdl)
        assert len(shape_classes(space, space.active[inner])[0]) < inner.sum()
        schur, interior = split_volume(space, mdl)
        w, k_ii = interior.w, interior.k_ii
        ref = einsum_local(space, mdl, space.active)
        want = ref[:, :8, :8] - ref[:, :8, 8:] @ np.linalg.solve(ref[:, 8:, 8:], ref[:, 8:, :8])
        scale = abs(want).max(axis=(1, 2))
        assert np.all(abs(schur - want).max(axis=(1, 2)) <= 1e-12 * scale)
        # W solves K_ii W = K_ie of the reference
        assert np.all(abs(k_ii - ref[:, 8:, 8:]).max(axis=(1, 2))
                      <= 1e-13 * abs(ref).max(axis=(1, 2)))
        assert np.abs(ref[:, 8:, 8:] @ w - ref[:, 8:, :8]).max() <= 1e-13 * abs(ref).max()

    @pytest.mark.parametrize("s0", [0.0, 8.0])
    def test_pair_matches_the_product_reference(self, s0):
        # cell by cell, T^T S T and -W T on the masters, against the global
        # products C^T (sum of the local matrices) C and C + coupling C
        space, cs, dip = resolved_space(sheet_hanging=True)
        blocks = np.stack([cs.cell_maps[:, 2 * e:2 * e + 2, 2 * e:2 * e + 2]
                           for e in range(4)], axis=1).reshape(-1, 2, 2)
        for half in (_T_LO, _T_HI):
            assert np.all(blocks == half, axis=(1, 2)).any()
        assert np.any(cs.map_index[space.rank[space.sheet_faces.owner]] >= 0)
        mdl = SheetModel(sigma_r=0.01 + 0.15j, pml=PmlSpec(R=R, s0=s0), dipole=dip)
        fixed = assemble_fixed(space, cs,
                               dataclasses.replace(mdl, pml=PmlSpec(R=R, s0=5.0)))
        pair = assemble_pair(fixed, mdl)
        mat, p = product_reference(space, cs, mdl)
        assert max_rel(pair.matrix, mat) <= 1e-14
        assert max_rel(pair.constraints.matrix, p) <= 1e-14

    @pytest.fixture(scope="class")
    def solved(self):
        """Total field and adjoint of a pair on a mesh with hanging sheet faces,
        and the uncondensed 12-dof system of the same model."""
        space, cs, dip = resolved_space(sheet_hanging=True)
        mdl = SheetModel(sigma_r=0.01 + 0.15j, pml=PmlSpec(R=R, s0=2.0), dipole=dip)
        _, system, fac = solve_pair(space, cs, mdl)
        load = assemble_dipole_rhs(space, mdl)
        system = system.with_load(load)
        total = solve(system, factor=fac)
        dual = assemble_dual_rhs(space, total, WeightFunction(half_width=1.5625))
        adjoint = solve_adjoint(system, dual, factor=fac)
        full_cs = uncondensed_constraints(space)
        matrix = (full_cs.T @ uncondensed_matrix(space, mdl) @ full_cs).tocsc()
        masters = np.concatenate([cs.master_dofs, np.arange(space.n_edge_dofs, space.n_dofs)])
        return dict(space=space, mdl=mdl, cs=cs, system=system, total=total, load=load,
                    dual=dual, adjoint=adjoint, full_cs=full_cs, matrix=matrix,
                    masters=masters)

    def test_back_substituted_fields_solve_the_12_dof_system(self, solved):
        space, matrix, masters = solved["space"], solved["matrix"], solved["masters"]
        lu = spla.splu(matrix)
        # primal: M x = f; adjoint: M conj(Z) = g, with M = M^T
        for load, coeffs in ((solved["load"], solved["total"].coeffs),
                             (solved["dual"], np.conj(solved["adjoint"].coeffs))):
            assert np.any(space.interior(load))
            f = solved["full_cs"].T @ load
            x = coeffs[masters]
            assert np.linalg.norm(f - matrix @ x) <= RESIDUAL_TOL * np.linalg.norm(f)
            want = lu.solve(f)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_residual_contract_of_the_tracer(self, solved):
        # the traced solver.rel_residual_max reads the factorized Schur system:
        # the edge masters of a solution solve it against system.rhs, and
        # constraints.matrix.T eliminates the dual load
        space, system, dual = solved["space"], solved["system"], solved["dual"]
        x = system.constraints.restrict(solved["total"].coeffs)
        rhs = system.rhs
        assert np.linalg.norm(rhs - system.matrix @ x) <= RESIDUAL_TOL * np.linalg.norm(rhs)
        ref = einsum_local(space, solved["mdl"], space.active)
        local = -ref[:, :8, 8:] @ np.linalg.solve(ref[:, 8:, 8:], space.interior(dual)[..., None])
        edge_load = dual.copy()
        edge_load[space.n_edge_dofs:] = 0
        np.add.at(edge_load, space.cell_dofs[:, :8].ravel(), local.ravel())
        want = solved["cs"].matrix.T @ edge_load
        g = system.constraints.matrix.T @ dual
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
        w = np.conj(system.constraints.restrict(solved["adjoint"].coeffs))
        assert np.linalg.norm(g - system.matrix @ w) <= RESIDUAL_TOL * np.linalg.norm(g)
