"""Backends for the truncated system (I + A) phi = g.

Three routes with one result type:

* dense      LAPACK factorization of the assembled matrix;
* gmres      restarted GMRES (modified Gram-Schmidt Arnoldi + Givens
             rotations, following Kelley, "Iterative Methods for Linear
             Systems", alg. 3.5.1), through BlockOperator.matvec only; one
             Krylov basis per solve, (restart + 1) x dim complex values,
             reused by every restart cycle;
* reflections  parallel method of reflections phi <- g - A phi, i.e.
             Richardson iteration on (I + A) phi = g; three consecutive
             growths of the residual count as divergence (almost-touching
             obstacles), which is reported instead of raised.

Residuals are always recomputed from the operator after the fact, never
trusted from iteration internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import BlockOperator, CoefficientVector
from .errors import SingularSystemError

GMRES_DEFAULT_TOL = 1e-12
GMRES_DEFAULT_RESTART = 50
REFLECTIONS_DEFAULT_TOL = 1e-12


@dataclass
class SolveResult:
    solution: CoefficientVector
    backend: str
    iterations: int
    residual: float          # absolute defect ||g - (I+A) phi||_2
    converged: bool
    diverged: bool = False


def _residual_norm(op: BlockOperator, rhs: CoefficientVector,
                   sol: CoefficientVector) -> float:
    r = rhs.data - op.matvec(sol).data
    return float(np.linalg.norm(r))


def solve_dense(op: BlockOperator, rhs: CoefficientVector) -> SolveResult:
    """Direct solve via LAPACK; the reference backend for everything else."""
    try:
        x = np.linalg.solve(op.matrix, rhs.flat())
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense factorization failed: {exc}") from exc
    sol = CoefficientVector.from_flat(x, op.n_cylinders, op.truncation)
    res = _residual_norm(op, rhs, sol)
    return SolveResult(sol, "dense", 0, res, converged=bool(np.isfinite(res)))


def solve_gmres(op: BlockOperator, rhs: CoefficientVector,
                tol: float = GMRES_DEFAULT_TOL,
                max_iterations: int = 1000) -> SolveResult:
    """GMRES on the block operator, through its matvec, restarted every
    GMRES_DEFAULT_RESTART iterations."""
    M, N = op.n_cylinders, op.truncation

    def matvec(v: np.ndarray) -> np.ndarray:
        return op.matvec(CoefficientVector.from_flat(v, M, N)).flat()

    b = rhs.flat()
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    eta = tol * bnorm
    total_iters = 0
    # one workspace per solve, zeroed and reused by every restart cycle; a
    # short last cycle uses its leading rows and columns
    restart = max(0, min(GMRES_DEFAULT_RESTART, max_iterations))
    V = np.empty((restart + 1, b.size), dtype=np.complex128)
    H = np.empty((restart + 1, restart), dtype=np.complex128)
    cs = np.empty(restart, dtype=np.complex128)
    sn = np.empty(restart, dtype=np.complex128)
    gvec = np.empty(restart + 1, dtype=np.complex128)

    r = b
    while total_iters < max_iterations:
        beta = float(np.linalg.norm(r))
        if beta <= eta:
            break
        dim = min(restart, max_iterations - total_iters)
        for work in (V, H, cs, sn, gvec):
            work.fill(0.0)
        V[0] = r / beta
        gvec[0] = beta
        j_used = 0
        for j in range(dim):
            w = matvec(V[j])
            for i in range(j + 1):                 # modified Gram-Schmidt
                H[i, j] = np.vdot(V[i], w)
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            total_iters += 1
            j_used = j + 1
            if abs(H[j + 1, j]) > 0.0:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):                     # apply stored rotations
                t = H[i, j]
                H[i, j] = np.conj(cs[i]) * t + np.conj(sn[i]) * H[i + 1, j]
                H[i + 1, j] = -sn[i] * t + cs[i] * H[i + 1, j]
            denom = np.hypot(abs(H[j, j]), abs(H[j + 1, j]))
            if denom == 0.0:
                break
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = np.conj(cs[j]) * H[j, j] + np.conj(sn[j]) * H[j + 1, j]
            H[j + 1, j] = 0.0
            gvec[j + 1] = -sn[j] * gvec[j]
            gvec[j] = np.conj(cs[j]) * gvec[j]
            if abs(gvec[j + 1]) <= eta:
                break
        try:
            y = np.linalg.solve(H[:j_used, :j_used], gvec[:j_used])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"GMRES solve failed: {exc}") from exc
        x = x + V[:j_used].T @ y
        if abs(gvec[j_used]) <= eta or total_iters >= max_iterations:
            break
        r = b - matvec(x)

    sol = CoefficientVector.from_flat(x, M, N)
    res = _residual_norm(op, rhs, sol)
    return SolveResult(sol, "gmres", total_iters, res,
                       converged=res <= tol * bnorm)


def solve_reflections(op: BlockOperator, rhs: CoefficientVector,
                      tol: float = REFLECTIONS_DEFAULT_TOL,
                      max_iterations: int = 500) -> SolveResult:
    """Parallel method of reflections: Richardson iteration phi <- g - A phi.

    Converges iff the Neumann series for (I + A)^{-1} does.  Each sweep's
    step g - (I + A) phi is the residual of the current iterate; the loop
    stops when its norm is at most tol ||g|| or the budget runs out.  Three
    consecutive growths of that norm are taken as divergence; the last
    iterate is returned with diverged=True rather than raising, so sweeps can
    report the breakdown.
    """
    g = rhs.data
    eta = tol * float(np.linalg.norm(g))
    phi = CoefficientVector(g.copy())
    growths, prev, it = 0, np.inf, 0
    for it in range(max_iterations + 1):
        nxt = g - (op.matvec(phi).data - phi.data)
        step = float(np.linalg.norm(nxt - phi.data))
        if step <= eta or it == max_iterations:
            break
        growths = growths + 1 if step > prev else 0
        prev, phi = step, CoefficientVector(nxt)
        if growths == 3:
            return SolveResult(phi, "reflections", it + 1,
                               _residual_norm(op, rhs, phi),
                               converged=False, diverged=True)
    res = _residual_norm(op, rhs, phi)
    return SolveResult(phi, "reflections", it, res, converged=res <= eta)


BACKENDS = {
    "dense": solve_dense,
    "gmres": solve_gmres,
    "reflections": solve_reflections,
}


def solve(op: BlockOperator, rhs: CoefficientVector, backend: str = "dense",
          **kwargs) -> SolveResult:
    """Dispatch to a backend by name ('dense', 'gmres', 'reflections')."""
    try:
        fn = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}") from None
    return fn(op, rhs, **kwargs)
