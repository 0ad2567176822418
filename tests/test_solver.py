import numpy as np
import pytest
import scipy.sparse as sp

from sppsim import mesh as msh
from sppsim import solver
from sppsim.assembly import (ComplexSystem, DipoleSpec, SheetModel,
                             assemble_dipole_rhs, assemble_interface,
                             assemble_volume_boundary, condense)
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
    full = assemble_volume_boundary(space, mdl) + assemble_interface(space, mdl)
    rng = np.random.default_rng(9)
    rhs_full = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    mat, rhs = condense(full, rhs_full, cs)
    return ComplexSystem(matrix=mat, rhs=rhs, space=space, constraints=cs), rhs_full


class TestDirectSolve:
    def test_identity_roundtrip(self):
        system, _ = small_system()
        rng = np.random.default_rng(0)
        w = rng.standard_normal(system.matrix.shape[0]) + 1j * rng.standard_normal(
            system.matrix.shape[0])
        system2 = ComplexSystem(matrix=system.matrix, rhs=system.matrix @ w,
                                space=system.space, constraints=system.constraints)
        sol = solve(system2)
        reduced = system2.constraints.restrict(sol.coeffs)
        assert np.linalg.norm(reduced - w) < 1e-10 * np.linalg.norm(w)

    def test_residual_postcondition(self):
        system, _ = small_system()
        sol = solve(system)
        reduced = system.constraints.restrict(sol.coeffs)
        res = np.linalg.norm(system.rhs - system.matrix @ reduced)
        assert res <= 1e-10 * np.linalg.norm(system.rhs)

    def test_constraints_distributed_on_return(self):
        system, _ = small_system()
        sol = solve(system)
        cs = system.constraints
        assert cs.n_master < cs.n_dofs
        recon = cs.distribute(cs.restrict(sol.coeffs))
        assert np.all(np.abs(sol.coeffs - recon) <= np.maximum(1e-12 * np.abs(recon), 1e-14))

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
        # a pivot threshold of 0.01 takes 55 row pivots off the diagonal here
        config = RunConfig()
        space = distribute_dofs(build_initial_mesh(config))
        model = config.model()
        full = assemble_volume_boundary(space, model) + assemble_interface(space, model)
        mat, rhs = condense(full, assemble_dipole_rhs(space, model), build_constraints(space))
        assert mat.shape[0] == 4354
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
        lu = factorize(mat).lu
        assert np.any(lu.perm_r != lu.perm_c)
        zeroed = ComplexSystem(matrix=mat, rhs=system.rhs, space=system.space,
                               constraints=system.constraints)
        x = system.constraints.restrict(solve(zeroed).coeffs)
        assert np.linalg.norm(system.rhs - mat @ x) <= RESIDUAL_TOL * np.linalg.norm(system.rhs)


class TestSafeFallback:
    def test_stalled_fast_solve_refactorizes_safely_once(self, monkeypatch):
        system, _ = small_system()
        calls = []

        def stalling_fast_path(matrix, safe=False):
            calls.append(safe)
            fac = factorize(matrix, safe=safe)
            if not safe:
                fac.solve = lambda b: (np.zeros_like(b), 1.0)
            return fac

        monkeypatch.setattr(solver, "factorize", stalling_fast_path)
        x = system.constraints.restrict(solve(system).coeffs)
        assert calls == [False, True]
        assert np.linalg.norm(system.rhs - system.matrix @ x) <= \
            RESIDUAL_TOL * np.linalg.norm(system.rhs)

    def test_both_solves_failing_raise_with_the_residual(self, monkeypatch):
        system, _ = small_system()
        monkeypatch.setattr(Factorization, "solve", lambda self, b: (np.zeros_like(b), 0.5))
        with pytest.raises(SolverError, match=r"residual 5\.000e-01 exceeds"):
            solve(system)


class TestAdjointSolve:
    def test_zero_rhs_zero_solution(self):
        system, _ = small_system()
        z = solve_adjoint(system, np.zeros(system.constraints.n_dofs, dtype=complex))
        assert np.all(z.coeffs == 0)

    def test_defining_relation(self):
        system, _ = small_system()
        rng = np.random.default_rng(7)
        g_full = rng.standard_normal(system.constraints.n_dofs) \
            + 1j * rng.standard_normal(system.constraints.n_dofs)
        z = solve_adjoint(system, g_full)
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
        system = ComplexSystem(matrix=sp.csc_matrix(0.5 * (real + real.T), dtype=complex),
                               rhs=sheet_free.rhs, space=sheet_free.space,
                               constraints=sheet_free.constraints)
        rng = np.random.default_rng(3)
        g_full = rng.standard_normal(system.constraints.n_dofs) \
            + 1j * rng.standard_normal(system.constraints.n_dofs)
        z = solve_adjoint(system, g_full)
        primal = ComplexSystem(matrix=system.matrix,
                               rhs=np.conj(system.constraints.matrix.T @ g_full),
                               space=system.space, constraints=system.constraints)
        y = solve(primal)
        assert np.linalg.norm(z.coeffs - y.coeffs) < 1e-9 * np.linalg.norm(y.coeffs)


def test_singular_matrix_reports_diagnostics():
    mat = sp.csr_matrix((5, 5), dtype=complex)
    with pytest.raises(SolverError, match="nnz"):
        factorize(mat)
