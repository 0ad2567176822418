import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sppsim import mesh as msh
from sppsim import solver
from sppsim.assembly import (DipoleSpec, SheetModel, _volume_local, assemble_dipole_rhs,
                             assemble_fixed, assemble_pair)
from sppsim.fespace import build_constraints, distribute_dofs
from sppsim.harness import RunConfig, build_initial_mesh
from sppsim.pml import PmlSpec
from sppsim.solver import (RESIDUAL_TOL, Factorization, SolverError, factorize,
                           solve, solve_adjoint)

from fields import one_part_system

R = 8 * np.pi


def small_system(sigma=0.15j, s0=2.0, refines=1, marks=True):
    m = msh.build_disk_mesh(R, refines)
    if marks:
        rng = np.random.default_rng(4)
        ids = m.active_ids()
        m.refine(rng.choice(ids, size=len(ids) // 6, replace=False))
    space = distribute_dofs(m)
    cs = build_constraints(space)
    mdl = SheetModel(sigma_r=sigma, pml=PmlSpec(R=R, s0=s0),
                     dipole=DipoleSpec(height=1.0, radius=0.15625))
    # a solve pair's system, assembled in one part: this coarse mesh does not
    # resolve the dipole, which assemble_fixed would reject
    rng = np.random.default_rng(9)
    rhs_full = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    return one_part_system(space, cs, mdl).with_load(rhs_full), rhs_full


class TestDirectSolve:
    def test_identity_roundtrip(self):
        system, _ = small_system()
        rng = np.random.default_rng(0)
        w = rng.standard_normal(system.matrix.shape[0]) + 1j * rng.standard_normal(
            system.matrix.shape[0])
        system2 = dataclasses.replace(system, rhs=system.matrix @ w)
        sol = solve(system2, factorize(system2.matrix))
        reduced = system2.constraints.restrict(sol.coeffs)
        assert np.linalg.norm(reduced - w) < 1e-10 * np.linalg.norm(w)

    def test_residual_postcondition(self):
        system, _ = small_system()
        sol = solve(system, factorize(system.matrix))
        reduced = system.constraints.restrict(sol.coeffs)
        res = np.linalg.norm(system.rhs - system.matrix @ reduced)
        assert res <= 1e-10 * np.linalg.norm(system.rhs)

    def test_constraints_distributed_on_return(self):
        system, _ = small_system()
        sol = solve(system, factorize(system.matrix))
        cs = build_constraints(system.space)
        assert cs.n_master < system.space.n_edge_dofs
        recon = cs.distribute(cs.restrict(sol.coeffs))
        edge = slice(0, system.space.n_edge_dofs)
        assert np.all(np.abs(sol.coeffs[edge] - recon[edge])
                      <= np.maximum(1e-12 * np.abs(recon[edge]), 1e-14))
        # and the interior dofs back-substituted: K_ie x_e + K_ii x_i = f_i
        space = system.space
        model = SheetModel(sigma_r=0.15j, pml=PmlSpec(R=R, s0=2.0),
                           dipole=DipoleSpec(height=1.0, radius=0.15625))
        rows = _volume_local(space, model, space.active)[:, 8:]
        res = np.einsum("nij,nj->ni", rows, sol.coeffs[space.cell_dofs]) - system.rhs_interior
        assert np.abs(res).max() <= 1e-12 * np.abs(system.rhs_interior).max()

    def test_renumbering_invariance(self):
        system, _ = small_system()
        mat, rhs = system.matrix, system.rhs
        rng = np.random.default_rng(2)
        perm = rng.permutation(mat.shape[0])
        P = sp.coo_matrix((np.ones(len(perm)), (np.arange(len(perm)), perm))).tocsr()
        x, _ = factorize(mat).solve(rhs)
        xp, _ = factorize((P @ mat @ P.T).tocsr()).solve(P @ rhs)
        assert np.linalg.norm(P.T @ xp - x) < 1e-10 * np.linalg.norm(x)

    def test_deterministic_refactorization(self):
        system, _ = small_system()
        x1, _ = factorize(system.matrix).solve(system.rhs)
        x2, _ = factorize(system.matrix).solve(system.rhs)
        assert np.array_equal(x1, x2)


class CountingLU:
    """The LU factors lu, counting their solves; the first solve's result is
    shifted by first_shift, if given."""

    def __init__(self, lu, first_shift=None):
        self.lu, self.first_shift, self.solves = lu, first_shift, 0

    def solve(self, b):
        x = self.lu.solve(b)
        if self.solves == 0 and self.first_shift is not None:
            x = x + self.first_shift
        self.solves += 1
        return x


class TestRefinementStop:
    def test_first_residual_within_tol_takes_one_lu_solve(self):
        system, _ = small_system()
        mat, rhs = system.matrix, system.rhs
        fac = factorize(mat)
        # shift the first solve so that its residual is half of RESIDUAL_TOL:
        # within the postcondition, but above a tenth of it
        rng = np.random.default_rng(5)
        d = rng.standard_normal(len(rhs)) + 1j * rng.standard_normal(len(rhs))
        d *= 0.5 * RESIDUAL_TOL * np.linalg.norm(rhs) / np.linalg.norm(d)
        spy = CountingLU(fac.lu, first_shift=fac.lu.solve(d))
        x, res = Factorization(lu=spy, matrix=mat).solve(rhs)
        assert spy.solves == 1
        assert 0.1 * RESIDUAL_TOL < res <= RESIDUAL_TOL
        assert res == pytest.approx(np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs), rel=1e-12)

    def test_factors_of_a_perturbed_matrix_refine_to_tol(self):
        system, _ = small_system()
        mat, rhs = system.matrix, system.rhs
        rng = np.random.default_rng(1)
        perturbed = mat.copy()
        perturbed.data *= 1 + 1e-6 * rng.standard_normal(perturbed.nnz)
        spy = CountingLU(spla.splu(perturbed))
        x, res = Factorization(lu=spy, matrix=mat).solve(rhs)
        assert spy.solves > 1
        assert res <= RESIDUAL_TOL
        assert res == pytest.approx(np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs), rel=1e-12)


class TestDiagonalPivoting:
    @pytest.fixture(scope="class")
    def cycle1(self):
        """The default run's cycle-1 system, loaded with the dipole."""
        config = RunConfig()
        space = distribute_dofs(build_initial_mesh(config))
        model = config.model()
        return assemble_pair(assemble_fixed(space, build_constraints(space), model),
                             model).with_load(assemble_dipole_rhs(space, model))

    def test_default_run_cycle1_pivots_on_diagonal(self, cycle1):
        # a pivot threshold of 0.01 takes 56 row pivots off the diagonal here
        mat, rhs = cycle1.matrix, cycle1.rhs
        # 4354 dofs before the interior dofs were condensed
        assert mat.shape[0] == 2194
        fac = factorize(mat)
        assert np.array_equal(fac.lu.perm_r, fac.lu.perm_c)
        x, _ = fac.solve(rhs)
        assert np.linalg.norm(rhs - mat @ x) <= RESIDUAL_TOL * np.linalg.norm(rhs)

    def test_supernode_setting_changes_only_the_blocking(self, cycle1):
        # the fixed relax and panel_size against SuperLU's defaults, with the
        # same ordering and pivot options: the same ordering and pivots, and
        # no padded supernodes in the stored factors
        fac = factorize(cycle1.matrix)
        default = spla.splu(cycle1.matrix, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=1e-6, options=dict(SymmetricMode=True))
        assert np.array_equal(fac.lu.perm_c, default.perm_c)
        assert np.array_equal(fac.lu.perm_r, default.perm_r)
        assert fac.lu.nnz <= default.nnz

    def test_zero_diagonal_pivots_off_diagonal(self):
        system, _ = small_system()
        # zero the diagonal of the column eliminated first: its pivot must come
        # from another row
        first = int(np.flatnonzero(factorize(system.matrix).lu.perm_c == 0)[0])
        mat = (0.5 * (system.matrix + system.matrix.T)).tolil()
        mat[first, first] = 0
        mat = mat.tocsr()
        assert abs(mat - mat.T).max() == 0
        fac = factorize(mat)
        assert np.any(fac.lu.perm_r != fac.lu.perm_c)
        zeroed = dataclasses.replace(system, matrix=mat)
        x = system.constraints.restrict(solve(zeroed, fac).coeffs)
        assert np.linalg.norm(system.rhs - mat @ x) <= RESIDUAL_TOL * np.linalg.norm(system.rhs)


class TestSafeFallback:
    def test_stalled_fast_solve_refactorizes_safely_once(self, monkeypatch):
        system, _ = small_system()
        fac = factorize(system.matrix)
        fac.solve = lambda b: (np.zeros_like(b), 1.0)
        calls = []

        def recording(matrix, safe=False):
            calls.append((matrix is fac.matrix, safe))
            return factorize(matrix, safe=safe)

        monkeypatch.setattr(solver, "factorize", recording)
        x = system.constraints.restrict(solve(system, fac).coeffs)
        # the factors' own matrix is refactorized, conservatively
        assert calls == [(True, True)]
        assert np.linalg.norm(system.rhs - system.matrix @ x) <= \
            RESIDUAL_TOL * np.linalg.norm(system.rhs)

    def test_both_solves_failing_raise_with_the_residual(self, monkeypatch):
        system, _ = small_system()
        fac = factorize(system.matrix)
        monkeypatch.setattr(Factorization, "solve", lambda self, b: (np.zeros_like(b), 0.5))
        with pytest.raises(SolverError, match=r"residual 5\.000e-01 exceeds"):
            solve(system, fac)

    def test_nan_load_raises(self, monkeypatch):
        # a NaN or inf load is rejected before any LU solve or refactorization
        system, load = small_system()
        fac = factorize(system.matrix)
        fac.solve = lambda b: pytest.fail("LU solve of a non-finite load")
        safe_calls = []

        def recording(matrix, safe=False):
            safe_calls.append(safe)
            return factorize(matrix, safe=safe)

        monkeypatch.setattr(solver, "factorize", recording)
        for bad in (np.nan, np.inf):
            bad_load = load.copy()
            bad_load[system.constraints.master_dofs[0]] = bad
            with pytest.raises(SolverError, match="non-finite load"):
                solve(system.with_load(bad_load), fac)
            with pytest.raises(SolverError, match="non-finite load"):
                solve_adjoint(system, bad_load, fac)
        assert safe_calls == []


class TestAdjointSolve:
    def test_zero_rhs_zero_solution(self):
        system, _ = small_system()
        z = solve_adjoint(system, np.zeros(system.constraints.n_dofs, dtype=complex),
                          factorize(system.matrix))
        assert np.all(z.coeffs == 0)

    def test_defining_relation(self):
        system, _ = small_system()
        rng = np.random.default_rng(7)
        g_full = rng.standard_normal(system.constraints.n_dofs) \
            + 1j * rng.standard_normal(system.constraints.n_dofs)
        z = solve_adjoint(system, g_full, factorize(system.matrix))
        zr = system.constraints.restrict(z.coeffs)
        g = system.constraints.matrix.T @ g_full
        # A(phi_i, Z) = (M conj Z)_i must reproduce the dual rhs
        lhs = system.matrix @ np.conj(zr)
        assert np.linalg.norm(lhs - g) < 1e-9 * np.linalg.norm(g)

    def test_hermitian_degenerate_case_matches_primal_on_conjugate(self):
        # a real symmetric matrix is Hermitian: the sheet-free system without
        # its layer is real, and symmetric up to rounding
        sheet_free, _ = small_system(sigma=0.0j, s0=0.0, marks=False)
        assert not np.any(sheet_free.matrix.data.imag)
        real = sheet_free.matrix.real
        system = dataclasses.replace(
            sheet_free, matrix=sp.csc_matrix(0.5 * (real + real.T), dtype=complex))
        rng = np.random.default_rng(3)
        g_full = rng.standard_normal(system.constraints.n_dofs) \
            + 1j * rng.standard_normal(system.constraints.n_dofs)
        fac = factorize(system.matrix)
        z = solve_adjoint(system, g_full, fac)
        # without the layer the interior blocks and the constraint map are real
        assert not np.any(system.k_ii.imag) and not np.any(system.constraints.matrix.data.imag)
        y = solve(system.with_load(np.conj(g_full)), fac)
        assert np.linalg.norm(z.coeffs - y.coeffs) < 1e-9 * np.linalg.norm(y.coeffs)


def test_singular_matrix_reports_diagnostics():
    mat = sp.csr_matrix((5, 5), dtype=complex)
    with pytest.raises(SolverError, match="nnz"):
        factorize(mat)
