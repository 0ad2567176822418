"""Direct sparse solution of the condensed complex systems.

The factorized matrix is the Schur complement on the edge master dofs: the
interior dofs of every cell are condensed in assembly, and the system
(assembly.ComplexSystem) eliminates every load and back-substitutes the
interior dofs of every solution.  This module only factorizes and solves:
each solve goes through a sparse LU factorization with iterative refinement,
and RESIDUAL_TOL and the safe fallback apply to the factorized matrix.

The assembled matrix is complex symmetric (M = M^T), so the fast
factorization orders the symmetric pattern A + A^T and takes its pivots
from the diagonal: a row pivot is taken off the diagonal only where the
diagonal entry is below 1e-6 of the largest entry of its column, which keeps
the fill that the ordering planned.  Its supernodes are not relaxed
(RELAX, PANEL_SIZE), as relaxed ones only pad small subtrees into dense
blocks.  Iterative refinement stops once the residual is within
RESIDUAL_TOL, the postcondition that every solve checks, and a
conservatively pivoted refactorization is the fallback when it stays above
RESIDUAL_TOL.  One factorization serves the primal and the adjoint solve,
because with M = M^T the adjoint pairing reduces to a conjugated solve with
the same factors, and the adjoint's interior blocks are the primal's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ComplexSystem
from .fespace import FieldSolution

RESIDUAL_TOL = 1e-10
# iterative refinement steps after each LU solve, at most
REFINE_STEPS = 8
# SuperLU supernode relaxation and panel width of the fast factorization:
# the edge moments' natural supernodes are already wide, and relaxed ones only
# pad small etree subtrees into dense blocks; of relax 1-8 and panel widths
# 5-10 this pair gave the fastest LU, or one within 1 % of it, on every
# condensed matrix from 2,194 to 152,364 masters (one BLAS thread), with the
# same ordering, pivots and L, U patterns as SuperLU's default
RELAX, PANEL_SIZE = 1, 5


class SolverError(Exception):
    pass


@dataclass
class Factorization:
    """Reusable LU factors of one condensed matrix, and that matrix as CSC."""

    lu: object
    matrix: sp.csc_matrix

    def solve(self, b: np.ndarray):
        """x with matrix @ x = b, refined, and its residual |b - matrix x| / |b|."""
        norm_b = np.linalg.norm(b)
        if norm_b == 0:
            return np.zeros_like(b), 0.0
        x = self.lu.solve(b)
        best_x, best_res = x, np.linalg.norm(b - self.matrix @ x)
        for _ in range(REFINE_STEPS):
            if best_res <= RESIDUAL_TOL * norm_b:
                break
            x = best_x + self.lu.solve(b - self.matrix @ best_x)
            res = np.linalg.norm(b - self.matrix @ x)
            if res >= best_res:
                break  # refinement stalled
            best_x, best_res = x, res
        return best_x, float(best_res / norm_b)


def factorize(matrix: sp.spmatrix, safe: bool = False) -> Factorization:
    """LU factors of matrix; a complex CSC matrix is used as it is, not copied."""
    csc = sp.csc_matrix(matrix, dtype=complex)
    if safe:
        kwargs = {}
    else:
        # fill-reducing ordering for the symmetric sparsity pattern, pivots on
        # the diagonal: every off-diagonal row pivot breaks the symmetric
        # structure the ordering planned, so one is taken only for a diagonal
        # entry below 1e-6 of its column; iterative refinement restores accuracy
        kwargs = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-6,
                      relax=RELAX, panel_size=PANEL_SIZE,
                      options=dict(SymmetricMode=True))
    try:
        lu = spla.splu(csc, **kwargs)
    except RuntimeError as exc:
        raise SolverError(
            f"sparse LU failed: {exc} (n={csc.shape[0]}, nnz={csc.nnz})") from exc
    return Factorization(lu=lu, matrix=csc)


def _direct_solve(factor: Factorization, b: np.ndarray) -> np.ndarray:
    """Solve with the given factors; refactorize factor.matrix conservatively
    if accuracy stalls.

    A load with a NaN or inf is rejected before any LU solve; a NaN residual
    fails the check as well.
    """
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite load: NaN or inf in the eliminated right-hand side")
    x, res = factor.solve(b)
    if not res <= RESIDUAL_TOL:
        x, res = factorize(factor.matrix, safe=True).solve(b)
    if not res <= RESIDUAL_TOL:
        raise SolverError(f"direct solve residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return x


def solve(system: ComplexSystem, factor: Factorization) -> FieldSolution:
    """Primal solve with the factors of system.matrix; the returned field has
    every dof, constrained and interior."""
    x = _direct_solve(factor, system.rhs)
    return FieldSolution(space=system.space, coeffs=system.coefficients(x))


def solve_adjoint(system: ComplexSystem, dual_rhs: np.ndarray,
                  factor: Factorization) -> FieldSolution:
    """Adjoint solve: the returned Z satisfies A(phi_i, Z) = dual_rhs_i.

    dual_rhs is given over the full dof set; with M complex symmetric the
    defining relation reads M conj(Z) = g, so one conjugated direct solve
    with the primal factors suffices: the system eliminates dual_rhs as a
    load and back-substitutes conj(Z) as a primal solution.
    """
    dual = system.with_load(np.asarray(dual_rhs, dtype=complex))
    return FieldSolution(space=system.space, coeffs=np.conj(
        dual.coefficients(_direct_solve(factor, dual.rhs))))
