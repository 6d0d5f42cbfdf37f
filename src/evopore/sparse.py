"""Preconditioned conjugate gradients on scipy.sparse matrices, with an
optional zero-mean constraint for singular pure-Neumann systems.

The preconditioner is the Jacobi diagonal unless the caller passes its own;
the macro stepper passes the solve of a frozen sparse LU factor
(:class:`evopore.fem.FrozenFactor`).  The solver loop is implemented here
rather than taken from scipy because the zero-mean projection has to happen
inside the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool


def solve_cg(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    zero_mean_constraint: bool = False,
    x0: np.ndarray | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned CG for symmetric positive (semi)definite systems.

    ``precondition`` maps a residual r to z ~ A^{-1} r and must act as a
    symmetric positive definite operator; ``None`` divides by the diagonal
    of ``A`` (Jacobi).  Whatever the preconditioner, the iteration stops when
    the float64 relative residual ``|b - A x| / |b|`` reaches ``tol``.

    With ``zero_mean_constraint`` the right-hand side and every iterate are
    projected onto the mean-free subspace, which resolves the constant
    nullspace of pure-Neumann stiffness matrices without Lagrange multipliers.
    Returns the solution and a :class:`SolveReport`; ``converged`` means the
    relative residual reached ``tol``.
    """
    n, n_cols = A.shape
    if n != n_cols:
        raise ValueError("solve_cg needs a square matrix")
    b = np.asarray(b, dtype=float)
    if max_iter is None:
        max_iter = 10 * n + 100

    if zero_mean_constraint:
        b = b - b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    if precondition is None:
        diag = A.diagonal().copy()
        diag[diag == 0.0] = 1.0
        z_jacobi = np.empty(n)

        def precondition(r):
            return np.divide(r, diag, out=z_jacobi)

    # the work vectors are updated in place: x, r and p, the step alpha p or
    # alpha Ap, and z when the preconditioner is Jacobi's
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if zero_mean_constraint:
        x -= x.mean()
    r = b - (A @ x)
    z = precondition(r)
    if zero_mean_constraint:
        z -= z.mean()
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    res = float(np.sqrt(r @ r))

    it = 0
    while res > tol * bnorm and it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError(f"CG breakdown at iteration {it}: p.Ap = {pAp}")
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(Ap, alpha, out=step)
        if zero_mean_constraint:
            x -= x.mean()
        z = precondition(r)
        if zero_mean_constraint:
            z -= z.mean()
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NumericalError(f"CG breakdown at iteration {it}: non-finite inner product")
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = float(np.sqrt(r @ r))
        it += 1

    return x, SolveReport(it, res / bnorm, res <= tol * bnorm)
