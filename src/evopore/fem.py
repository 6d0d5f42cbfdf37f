"""Shared P1 finite-element pieces for triangle meshes.

All solvers in the package use linear triangles with one-point (centroid)
quadrature for variable coefficients and row-sum lumped mass matrices.
:func:`triangle_geometry` gives the element geometry of the macro grid and
the reference cell; the micro mesh reads the reference cell's.  A
mesh's stiffness matrices share one CSR sparsity, :class:`StiffnessPattern`:
it is built once per mesh from blocks of dofs and their local sparsity, and
every assembly sums the block data into the CSR data by one ``np.bincount``;
there is no one-off assembly beside it.  Its data slots are ``np.intp``,
stored once in the memory order of the data their owner produces, so the
bincount neither casts the slots nor copies the data: block-major for
triangles, entry-major for the micro cells.  The macro stepper and the
periodic cell problems pass their triangles as the blocks.  The cell
problems form the element matrices from a tensor per element by batched
``matmul`` (:func:`element_stiffness`) and are solved by a sparse LU factor
(:func:`evopore.unitcell.solve_cell_problem`), so only the steppers run CG.
The macro grid has two element shapes, so the macro stepper forms them as
the per-element tensor components (A11, A12, A22) times the operators of
the two shapes (:meth:`evopore.macro.MacroGrid.element_matrices`).  The
micro stepper passes its cells, each with the reference cell's sparsity, and
forms every cell's entries from reference-cell operators
(:mod:`evopore.micro`).  The steppers share one implicit step,
:func:`backward_euler_step`; they differ only in the mass weight (porosity
or Jacobian) and the stiffness (homogenized or pulled back).  The macro
stepper's CG is preconditioned by a sparse LU factor of an earlier step's
system (:class:`FrozenFactor`); the micro stepper keeps the Jacobi
diagonal, because at its sizes a factor's fill costs tens of MB and its CG
is no faster.  Each state holds a reference to its field one step
earlier, so the step starts CG from the linear
extrapolation ``2 u_n - u_(n-1)``, and from ``u_n`` on a first step.
:func:`csv_table` formats every CSV output of the package.  Both problems live on a fixed domain, so
a snapshot's coordinates are the same at every step: the micro mesh and the
macro grid each format them once (:func:`xy_text`), on their first
snapshot, and a snapshot formats only its fields.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .sparse import solve_cg


def triangle_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Areas and P1 basis gradients.

    Returns ``(areas, grads)`` with shapes (nt,) and (nt, 3, 2); triangles
    must be positively oriented.
    """
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    areas = 0.5 * det
    grads = np.empty((len(triangles), 3, 2))
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return areas, grads


def centroids(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Centroids (nt, 2) of the triangles: the quadrature point of every
    element coefficient and the macro and micro element midpoints."""
    return (vertices[triangles[:, 0]] + vertices[triangles[:, 1]] + vertices[triangles[:, 2]]) / 3.0


class StiffnessPattern:
    """CSR sparsity of stiffness matrices assembled from blocks of dofs.

    ``dofs`` (n_blocks, k) holds the degrees of freedom of every block, and
    ``local`` the block's own sparsity: the (rows, cols) index pairs into a
    block's k dofs that its data fills.  By default a block is a P1 element
    and fills all 3 x 3 entries, row by row; the micro mesh passes its cells
    with the reference cell's sparsity.  The pattern also holds every
    diagonal entry.  Every block entry and every diagonal entry has one data
    slot, so an assembly is the block data summed into ``data`` by one
    ``np.bincount``.

    The slots are built on first use, as ``np.intp`` in the memory order of
    the data their owner produces, so that ``np.bincount`` neither casts nor
    copies them and reads the data as it lies: block-major (n_blocks, s) by
    default, as the macro grid and the cell problems form their element
    matrices, and entry-major (s, n_blocks) with ``entry_major``, as the
    micro cells' product of reference-cell operators gives their entries.
    """

    def __init__(self, dofs: np.ndarray, n_dof: int,
                 local: tuple[np.ndarray, np.ndarray] | None = None,
                 entry_major: bool = False):
        dofs = np.asarray(dofs)
        if dofs.size and (dofs.min() < 0 or dofs.max() >= n_dof):
            raise ValueError(f"element dof outside [0, {n_dof})")
        if local is None:
            k = dofs.shape[1]
            local = (np.repeat(np.arange(k), k), np.tile(np.arange(k), k))
        self.dofs = dofs
        self.n_dof = n_dof
        self.local = local
        self.entry_major = entry_major
        self._slots = None

    def slots(self):
        """CSR ``indptr`` and ``indices`` of the block and diagonal entries,
        the data slot of every block entry, (n_blocks, s) or entry-major
        (s, n_blocks), and that of every diagonal entry (n_dof,); the slots
        are C-contiguous ``np.intp``."""
        if self._slots is None:
            n = self.n_dof
            rows, cols = self.local
            dofs = self.dofs.astype(np.int32)
            diag = np.arange(n, dtype=np.int32)

            def entries(local):
                """Row or column of every block entry in the slots' layout,
                then of every diagonal entry."""
                block = dofs.T[local] if self.entry_major else dofs[:, local]
                return np.concatenate([block.ravel(), diag])

            entry_rows, entry_cols = entries(rows), entries(cols)
            csr = sp.coo_matrix((np.ones(len(entry_rows)), (entry_rows, entry_cols)),
                                shape=(n, n)).tocsr()
            # the matrix whose every stored entry is its own slot number, sampled
            csr.data = np.arange(csr.nnz, dtype=np.intp)
            slots = np.asarray(csr[entry_rows, entry_cols]).reshape(-1)
            for a in (csr.indptr, csr.indices):
                a.setflags(write=False)  # shared by every assembled matrix
            n_block = slots.size - n
            shape = (len(rows), len(dofs)) if self.entry_major else (len(dofs), len(rows))
            self._slots = (csr.indptr, csr.indices, slots[:n_block].reshape(shape),
                           slots[n_block:])
        return self._slots

    def assemble(self, block_data: np.ndarray,
                 diagonal: np.ndarray | None = None) -> sp.csr_matrix:
        """Stiffness matrix of the block data ``block_data``, laid out as the
        slots are: (n_blocks, s), for P1 elements the element matrices
        (nt, 3, 3), or entry-major (s, n_blocks); plus ``diagonal`` (n_dof,)
        on the main diagonal.

        Entries sharing a slot are summed in the data's memory order, the
        diagonal last: block-major block by block and within a block in the
        order of ``local``, entry-major entry by entry and within an entry
        block by block.  C-contiguous data is read in place.
        """
        indptr, indices, block_slots, diagonal_slots = self.slots()
        data = np.bincount(block_slots.ravel(), np.ravel(block_data), minlength=len(indices))
        if diagonal is not None:
            data[diagonal_slots] += diagonal
        if not np.all(np.isfinite(data)):
            raise ValueError("sparse matrix contains non-finite values")
        return sp.csr_matrix((data, indices, indptr), shape=(self.n_dof, self.n_dof))


def element_stiffness(areas: np.ndarray, grads: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Element matrices ``|T| G C G^T`` (nt, 3, 3) of the coefficient ``coeff``
    (nt, 2, 2) at centroids."""
    k_el = grads @ (coeff @ grads.transpose(0, 2, 1))
    k_el *= areas[:, None, None]
    return k_el


def lumped_mass(triangles: np.ndarray, areas: np.ndarray, weight: np.ndarray,
                n: int) -> np.ndarray:
    """Row-sum lumped mass of the element weight ``weight`` (nt,) on n nodes."""
    return np.bincount(triangles.ravel(), np.repeat(weight * areas / 3.0, 3), minlength=n)


# A solve preconditioned by a frozen factor that takes more CG iterations
# than this refactors before the next solve.  Measured on the macro-fine
# benchmark's system (seed 0, n = 128) with the step's extrapolated start: a
# fresh factor solves in 2 iterations, the factor of step 1 still in 3 at
# step 30 and in 4 at step 100, and in 7-11 after dt is halved, doubled or
# scaled by 4 or 1/4 at step 30 (started from u_n instead: 4 at step 30, 5
# at step 100, 7-11 after the change of dt).  A factorization costs about 30
# preconditioned iterations, so a factor is kept until a solve takes 4 or
# more iterations beyond a fresh one; the extrapolated start leaves that
# bound where it was.
REFACTOR_ITERATIONS = 6


class FrozenFactor:
    """Sparse LU factor of an earlier step's implicit system, kept as the CG
    preconditioner of later steps.

    Between steps the system ``K(r) + diag(mass / dt)`` moves only by O(dr),
    so the factor of one step preconditions the next ones to a few
    iterations.  The first solve factors its own system; a solve that takes
    more than :data:`REFACTOR_ITERATIONS` iterations makes the next solve
    refactor.  The factor is single precision: it only preconditions, and CG
    still stops on the float64 residual.
    """

    def __init__(self):
        self._solve = None
        self.factorizations = 0

    def preconditioner(self, system: sp.csr_matrix):
        """The solve ``r -> z`` of the held factor, refactored on ``system``
        when there is none or the last solve went stale.  A singular system
        raises ``RuntimeError`` from ``splu``."""
        if self._solve is None:
            # the CSR arrays of the symmetric system read as CSC: no conversion
            csc = sp.csc_matrix((system.data.astype(np.float32), system.indices, system.indptr),
                                shape=system.shape)
            lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            self._solve = lambda r: lu.solve(r.astype(np.float32)).astype(np.float64)
            self.factorizations += 1
        return self._solve

    def record(self, iterations: int) -> None:
        """Drop the factor after a solve that took too many iterations."""
        if iterations > REFACTOR_ITERATIONS:
            self._solve = None


def backward_euler_step(system: sp.csr_matrix, b: np.ndarray, u: np.ndarray,
                        previous: np.ndarray | None, tol: float, label: str, t_new: float,
                        factor: FrozenFactor | None = None):
    """Solve the implicit system ``(K + diag(mass_new / dt)) u_new = b`` by CG,
    Jacobi-preconditioned or preconditioned by ``factor``.

    ``system`` is the stiffness assembled with the mass on its diagonal, and
    ``u`` the field of the step's state.  The solve starts from the linear
    extrapolation ``2 u - previous`` of the field one step earlier,
    ``previous``, or from ``u`` on a first step (``previous`` None).
    Returns the new nodal field and the CG iteration count; a failed
    factorization, a stalled solve or a non-finite result raises
    :class:`NumericalError` naming ``label``.
    """
    try:
        precondition = None if factor is None else factor.preconditioner(system)
    except RuntimeError as exc:
        raise NumericalError(f"{label} factorization failed at t={t_new}: {exc}") from None
    x0 = u if previous is None else 2.0 * u - previous
    u_new, report = solve_cg(system, b, tol=tol, x0=x0, precondition=precondition)
    if not report.converged:
        raise NumericalError(
            f"{label} CG stalled at t={t_new}: residual {report.final_residual:.2e}")
    if not np.all(np.isfinite(u_new)):
        raise NumericalError(f"non-finite concentration at t={t_new}")
    if factor is not None:
        factor.record(report.iterations)
    return u_new, report.iterations


def element_means(triangles: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Centroid value of a P1 field on every element."""
    # the order mean(axis=1) sums in, so the same bits, in a third of its time
    return (nodal[triangles[:, 0]] + nodal[triangles[:, 1]] + nodal[triangles[:, 2]]) / 3.0


def csv_table(header: str, row_format: str, *columns) -> str:
    """CSV text: ``header``, then one ``row_format % row`` line per row of the
    equally long ``columns``.

    A column is an array or a Python list; a list passes through as it is,
    so a column of text formatted once (:func:`xy_text`) is reused
    by every table that starts with it.
    """
    rows = zip(*(c if isinstance(c, list) else np.asarray(c).tolist() for c in columns))
    return "\n".join([header, *map(row_format.__mod__, rows)]) + "\n"


def xy_text(points: np.ndarray) -> list[str]:
    """``"x1,x2,"`` of every point (n, 2), each coordinate by ``%.17g``: the
    first two columns of a snapshot row."""
    return list(map("%.17g,%.17g,".__mod__, zip(*points.T.tolist())))
