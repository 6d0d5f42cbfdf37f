"""Preconditioned conjugate gradients on scipy.sparse matrices: the solver
of the two steppers' symmetric positive definite implicit systems.

The default preconditioner is the Jacobi diagonal plus an exact solve on
the constant vector, ``z = D^-1 r + 1 (1^T r) / (1^T A 1)``, and the solve
first corrects its start on that vector.  The micro system's stiffness has
zero-flux walls and annihilates constants, so only its lumped mass holds
the constant mode, which Jacobi alone sees at an eigenvalue that shrinks
like eps^2 and which carries most of a step's start error (Nicolaides,
SIAM J. Numer. Anal. 24 (1987) 355-365).  Micro steps of moving radii
are the production callers of the default.  Such a step first corrects
its start on the eps-periodic functions, of which the constant is one, by
a solve of their 671-dof system (:mod:`evopore.micro`); on the canonical
study the corrected start meets the tolerance and the step takes 0
iterations, while starts whose error is not mostly periodic, as from a
cosine u0 of amplitude 0.3, keep their iterations.  A caller may
pass its own preconditioner instead, the solve of an exact factor
(:class:`evopore.fem.Factor`): the macro stepper passes a single precision
banded Cholesky factor of an earlier step's system (a sparse LU on a grid
beyond :data:`evopore.fem.BAND_LIMIT`); the micro stepper, on a
system it keeps while its radii do not move, the exact double precision
sparse LU factor of that system, and on the 671-dof system of its
periodic start the banded Cholesky factor of an earlier step's, whose
iterations :mod:`evopore.micro` gives.
Both steppers start the solve from the extrapolation
``2 u_n - u_(n-1)`` of their last two fields, and read its iteration count
from the :class:`SolveReport`.  The loop is written here rather than taken
from scipy for the way it updates its vectors: an iteration allocates only
the product A p (and whatever a caller's preconditioner returns).  x and r
move by one BLAS axpy each, run in chunks that stay on the calling thread,
Jacobi multiplies by a reciprocal diagonal formed once per solve, the
constant's share is one BLAS dot and one scalar add, and the new search
direction is one more axpy into the buffer of the preconditioned residual,
so the old direction's buffer takes the next one.  The preconditioner is
applied once per iteration, at its start, to the residual the new
direction is built from, and never to the final residual or to a start that
already meets the tolerance: a factor's solve costs 12 to 17 matrix-vector
products on the micro system at 1/eps = 4, and a solve of 1 iteration with
an exact factor makes 1 of them, not 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import get_blas_funcs

from .errors import NumericalError


_BLAS_AXPY = get_blas_funcs("axpy", dtype=np.float64)
# OpenBLAS runs an axpy of more than 10,000 entries on all its threads.  On a
# busy machine waking them costs milliseconds: with two threads on 2 cores,
# one axpy of 43,000 entries between sparse products took 3.5-4.9 ms, against
# about 35 us as calls of at most this many entries, which stay on the
# calling thread.
_AXPY_CHUNK = 10_000


def _axpy(x: np.ndarray, y: np.ndarray, a: float) -> None:
    """``y += a x`` in place for float64 vectors, by BLAS axpy."""
    n = len(y)
    for start in range(0, n, _AXPY_CHUNK):
        _BLAS_AXPY(x, y, min(_AXPY_CHUNK, n - start), a, start, 1, start, 1)


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool


def solve_cg(
    A: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    x0: np.ndarray | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned CG for symmetric positive definite systems, started
    from ``x0`` (zero by default).

    ``precondition`` maps a residual r to z ~ A^{-1} r and must act as a
    symmetric positive definite operator.  ``None`` multiplies by the
    reciprocal of the diagonal of ``A`` (Jacobi) and adds the exact solve
    on the constant vector, ``1 (1^T r) / (1^T A 1)``; a start that misses
    ``tol`` is first corrected on that vector, ``x0 + 1 (1^T r0) / (1^T A 1)``,
    so a start that is off the solution by a constant alone solves in 0
    iterations.  When ``1^T A 1`` is not finite and positive, as it always
    is for a symmetric positive definite ``A``, ``None`` is plain Jacobi.
    A caller's ``precondition`` may return a fresh array, a buffer of its
    own that it overwrites on every call, or r itself: the loop copies z
    into its own buffer before using it, and never writes to, or keeps,
    what ``precondition`` returned.  A preconditioner is applied once per
    iteration, to the residual that iteration's search direction is built
    from: never to a residual that meets the stop test, so a start within
    ``tol`` calls it not at all.  Whatever the preconditioner, the
    iteration stops when the float64 relative residual ``|b - A x| / |b|``
    reaches ``tol``, or after 10 n + 100 iterations; a non-finite residual
    stops it at once, unconverged.  Returns the solution and a
    :class:`SolveReport`; ``converged`` means the relative residual reached
    ``tol``.
    """
    n, n_cols = A.shape
    if n != n_cols:
        raise ValueError("solve_cg needs a square matrix")
    b = np.asarray(b, dtype=float)
    max_iter = 10 * n + 100

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    # x, r, p and one buffer z are the work vectors, updated in place: x and
    # r by one axpy each, and z becomes the next p by one more, so the old p
    # is the buffer of the next z.  An iteration starts by preconditioning
    # the residual its direction is built from
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - (A @ x)
    p = np.empty(n)
    z = np.empty(n)
    res = float(np.sqrt(r @ r))

    if precondition is not None:
        def precondition_into(r, out):
            np.copyto(out, precondition(r))
            return out
    elif res > tol * bnorm:
        diagonal = A.diagonal()
        inverse_diagonal = 1.0 / np.where(diagonal == 0.0, 1.0, diagonal)
        ones = np.ones(n)
        row_sums = A @ ones
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = float(row_sums.sum())   # 1^T A 1
        if np.isfinite(coarse) and coarse > 0.0:
            # the start's error along the constant vector, removed exactly
            shift = float(ones @ r) / coarse
            x += shift
            _axpy(row_sums, r, -shift)
            res = float(np.sqrt(r @ r))

            def precondition_into(r, out):
                np.multiply(r, inverse_diagonal, out=out)
                out += float(ones @ r) / coarse
                return out
        else:
            def precondition_into(r, out):
                return np.multiply(r, inverse_diagonal, out=out)

    it = 0
    while res > tol * bnorm and it < max_iter:
        precondition_into(r, z)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise NumericalError(f"CG breakdown at iteration {it}: non-finite inner product")
        if it:
            _axpy(p, z, rz_new / rz)
        p, z = z, p
        rz = rz_new
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError(f"CG breakdown at iteration {it}: p.Ap = {pAp}")
        alpha = rz / pAp
        _axpy(p, x, alpha)
        _axpy(Ap, r, -alpha)
        res = float(np.sqrt(r @ r))
        it += 1

    return x, SolveReport(it, res / bnorm, res <= tol * bnorm)
