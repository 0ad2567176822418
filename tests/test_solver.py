import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sppsim import mesh as msh
from sppsim import solver
from sppsim.assembly import (DipoleSpec, SheetModel, _rim_matrix, _system, _volume_local,
                             assemble_dipole_rhs, assemble_fixed, assemble_interface,
                             assemble_pair, assemble_volume, condense)
from sppsim.fespace import build_constraints, distribute_dofs
from sppsim.harness import RunConfig, build_initial_mesh
from sppsim.pml import PmlSpec
from sppsim.solver import (RESIDUAL_TOL, Factorization, SolverError, factorize,
                           solve, solve_adjoint)

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
    volume, interior = assemble_volume(space, mdl, space.active)
    mat, _ = condense(volume + _rim_matrix(space) + assemble_interface(space, mdl), None, cs)
    rng = np.random.default_rng(9)
    rhs_full = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    return _system(space, mat, cs, [interior]).with_load(rhs_full), rhs_full


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


class TestDiagonalPivoting:
    def test_default_run_cycle1_pivots_on_diagonal(self):
        # a pivot threshold of 0.01 takes 56 row pivots off the diagonal here
        config = RunConfig()
        space = distribute_dofs(build_initial_mesh(config))
        model = config.model()
        system = assemble_pair(assemble_fixed(space, build_constraints(space), model),
                               model).with_load(assemble_dipole_rhs(space, model))
        mat, rhs = system.matrix, system.rhs
        # 4354 dofs before the interior dofs were condensed
        assert mat.shape[0] == 2194
        fac = factorize(mat)
        assert np.array_equal(fac.lu.perm_r, fac.lu.perm_c)
        x, _ = fac.solve(rhs)
        assert np.linalg.norm(rhs - mat @ x) <= RESIDUAL_TOL * np.linalg.norm(rhs)

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
        # its layer is real but for the rim term -i, which is dropped here
        sheet_free, _ = small_system(sigma=0.0j, s0=0.0, marks=False)
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
