"""Shared P1 finite-element pieces for triangle meshes.

All solvers in the package use linear triangles with one-point (centroid)
quadrature for variable coefficients and row-sum lumped mass matrices, each
lumped by a fixed sparse operator of its mesh: the macro grid's node-element
incidence (:meth:`evopore.macro.MacroGrid.lump`) and the reference cell's
``mass`` (:class:`evopore.unitcell.ReferenceCell`).  :func:`triangle_geometry`
gives the element geometry of the macro grid and the reference cell; the
micro mesh reads the reference cell's.  Every stiffness matrix is
assembled one way: a cell operator applied to per-cell scalars gives the
upper half of every cell's matrix, entry-major with one column per cell,
and a :class:`StiffnessPattern` over the cells, the CSR sparsity of the
tiling, scatters them; there is no one-off assembly beside it.
:func:`upper_entries` gives a triangulation's cell sparsity, the node
entries on or above its diagonal, and the entry that each element's upper
half (:data:`UPPER3`) falls on, from which every cell operator is built.
The pattern's slot map gives every CSR slot the cell entry that fills it
first, an entry off a cell's diagonal filling both its slot and the
mirrored one, and lists the later entries that add to a slot, in the
data's entry-major order.  An assembly is one ``np.take`` of the first
entries and one ``np.add.at`` of the later ones and the diagonal, about
2% of the slots on the micro mesh; there is no ``np.bincount`` over the
whole data, and every assembled matrix is exactly symmetric.  The micro
cells are the reference cell's copies, with its node sparsity's upper
half; the macro grid's cells are its squares, two triangles and 9 node
entries each (:class:`evopore.macro.MacroGrid`).  The reference mesh's
periodic pattern is one cell, every node's periodic dof, with the node
sparsity's upper entries.  A cell problem is solved from the half data of
its stiffness K on those node entries by an exact factor
(:func:`evopore.unitcell.solve_cell_problem`), so only the steppers run CG:
its loads are K applied to the coordinate functions, and its system is K
assembled on the periodic pattern with a 1 on one diagonal entry, which
fixes the constant; the micro stepper assembles its eps-periodic start's
system on the same pattern.  A pattern factors the symmetric positive
definite systems assembled on it (:meth:`StiffnessPattern.factorize`):
by LAPACK's banded Cholesky on its reverse Cuthill-McKee band, which it
orders once (:attr:`StiffnessPattern.band`, :class:`BandedCholesky`), or
by :func:`symmetric_lu` when that band is wider than :data:`BAND_LIMIT`.
The cell's periodic systems take the band on the default cell's 671 dofs
(a third of sparse LU's time there) and the macro grid's on its 16,641
dofs at n = 128; the periodic systems of a finer reference mesh and the
macro systems beyond n = 149 take sparse LU.  :func:`symmetric_lu`
factors a symmetric CSR matrix by reading its arrays as CSC, which for
these exactly symmetric matrices is the matrix itself, and factors the
systems the micro stepper keeps, whose bands are wider.  The tensor table
forms every radius' K by one product of the reference cell's operators,
with one column per radius where the micro stepper (below) has one per
cell; the oracle route forms it from a tensor per element by batched
``matmul`` (:func:`element_stiffness`) and sums the upper halves of its
element matrices onto the node entries.  The macro stepper forms every
square's entries as one product of the square's operator with the
components (A11, A12, A22) of its two triangles
(:meth:`evopore.macro.MacroGrid.square_matrices`), and the micro stepper
every cell's from reference-cell operators (:mod:`evopore.micro`).  The
steppers share one implicit step,
:func:`backward_euler_step`; they differ only in the mass weight (porosity
or Jacobian) and the stiffness (homogenized or pulled back).  Both
precondition CG by one kind of exact factor, :class:`Factor`, built
when CG first applies it, so a solve whose start already meets the
tolerance factors nothing, and the step reports the factorization its
solve made.  The macro stepper keeps one single precision factor of an
earlier step's system, the banded Cholesky of its pattern.  The micro
stepper factors a system that serves again: the one it keeps while its
radii do not move, by an exact double precision sparse LU, so its later
steps take 1 CG iteration, not 77 to 96 with CG's default preconditioner
or with plain Jacobi alike (the micro-io benchmark's pinned run at 1/eps
= 4).  A system of moving radii serves one step and is solved by CG with
the default preconditioner, Jacobi plus an exact solve on the constant
vector (:func:`evopore.sparse.solve_cg`).
Each state holds a reference to its field one step earlier, so the step
starts CG from the linear extrapolation ``2 u_n - u_(n-1)``, and from
``u_n`` on a first step (:func:`extrapolated_start`).  The micro
step of moving radii first corrects that start by a Galerkin projection
onto the eps-periodic functions, when that removes more error energy than
Jacobi's estimate of the start's (:mod:`evopore.micro`); the canonical
study's steps then take 0 iterations.  The projection's 671-dof system,
which moves by O(dt) a step, lies on the reference cell's periodic
pattern, so its factor is the banded Cholesky, which the micro stepper
keeps across steps, as the macro stepper keeps its own.
:func:`csv_table` formats every deterministic CSV output of the package,
each value exactly as Python's ``'%.17g' % v``, by a vectorised kernel.  A
value 1e-4 <= |v| < 1e16 gets its 17 correctly rounded digits as an int64
from Dekker's error-free product of |v| with the exact double 10^(16 - X),
X the decimal exponent, and a lookup table of 4-digit texts turns them into
text; zeros are "0" or "-0", and non-finite values and every other value go
through ``%`` one at a time.  Each value's text sits NUL-padded in a
24-byte slot of a uint8 block, one slice per decimal exponent places its
point and drops its trailing zeros, and one compress of the block's
non-NUL bytes joins values, commas and newlines into the table.  Both
problems live on a fixed domain, so a snapshot's coordinates are the same
at every step: the micro mesh and the macro grid each format them once, on
their first snapshot, as one text block (:func:`xy_text`), and a snapshot
formats only its fields.  The micro mesh formats its cell lattice once the
same way, for every cells file.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
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


class PatternSlots(NamedTuple):
    """The slot map of a :class:`StiffnessPattern`, every index C-contiguous
    ``np.intp`` into the flattened cell data or the CSR data."""

    indptr: np.ndarray    # CSR row pointers, shared by every assembled matrix
    indices: np.ndarray   # CSR column indices, shared likewise
    first: np.ndarray     # (nnz,): the cell entry that fills each slot first, or 0
    later: np.ndarray     # the cell entries that add to a slot after its first
    targets: np.ndarray   # the slot of every later entry, then of every diagonal entry
    unfilled: np.ndarray  # the slots that no cell entry fills, all on the diagonal

    @property
    def diagonal(self) -> np.ndarray:
        """The slot (n_dof,) of every diagonal entry."""
        return self.targets[len(self.later):]


# the upper half (row <= col) of a P1 element's 3 x 3 matrix, row by row
UPPER3 = np.triu_indices(3)


def upper_entries(triangles: np.ndarray, n_nodes: int):
    """The upper half of a triangulation's node sparsity and where its
    elements' upper halves fall in it: ``(rows, cols, at)``, with (rows[k],
    cols[k]) the s node pairs, row <= col, in CSR order, every node's
    diagonal among them, and ``at`` (nt, 6) the index k of the pair of each
    entry of each element's upper half (:data:`UPPER3`)."""
    a, b = UPPER3
    n = n_nodes
    # each pair lower node first, sorted, and once (np.unique of these
    # integers costs ten times as much)
    pairs = np.minimum(triangles[:, a] * n + triangles[:, b], triangles[:, b] * n + triangles[:, a])
    keys = np.sort(pairs, axis=None)
    keys = keys[np.insert(keys[1:] != keys[:-1], 0, True)]
    rows, cols = np.divmod(keys, n)
    return rows, cols, np.searchsorted(keys, pairs)


class StiffnessPattern:
    """CSR sparsity of symmetric stiffness matrices assembled from the upper
    halves of cells of dofs.

    ``dofs`` (n_cells, k) holds the degrees of freedom of every cell, and
    ``local`` the cell's own sparsity: the (rows, cols) index pairs into a
    cell's k dofs, each with row <= col, that its data fills.  The micro
    cells pass the upper half of the reference cell's node sparsity, the
    macro grid's squares the 9 node entries of a square's two triangles and
    the periodic pattern, one cell of every node's dof, the reference
    mesh's node entries.  A cell entry off the cell's diagonal fills both
    its slot and the mirrored one, so every assembled matrix is exactly
    symmetric.  The pattern also holds every diagonal entry.

    The slots (:class:`PatternSlots`) are built on first use and give every
    CSR slot the cell entry that fills it first and the later entries that
    add to it, in the memory order of the entry-major (s, n_cells) data that
    a cell operator's product gives, one column per cell.  An assembly is
    one gather of the first entries, one ``np.add.at`` of the later ones and
    the diagonal: no sum over a slot map as long as the data.
    """

    def __init__(self, dofs: np.ndarray, n_dof: int, local: tuple[np.ndarray, np.ndarray]):
        dofs = np.asarray(dofs)
        if dofs.size and (dofs.min() < 0 or dofs.max() >= n_dof):
            raise ValueError(f"cell dof outside [0, {n_dof})")
        if np.any(np.asarray(local[0]) > np.asarray(local[1])):
            raise ValueError("cell entries must lie on or above the cell's diagonal")
        self.dofs = dofs
        self.n_dof = n_dof
        self.local = local
        self._slots = None

    def slots(self) -> PatternSlots:
        """The CSR arrays and slot map of the pattern (:class:`PatternSlots`)."""
        if self._slots is None:
            n, n_cells = self.n_dof, len(self.dofs)
            lr, lc = (np.asarray(a) for a in self.local)
            s = len(lr)
            # the cell's coordinates: each entry, then its mirror when it
            # lies off the diagonal
            pick = np.stack([np.ones(s, dtype=bool), lr != lc], axis=1).ravel()
            local_rows = np.stack([lr, lc], axis=1).ravel()[pick]
            local_cols = np.stack([lc, lr], axis=1).ravel()[pick]
            entry = np.repeat(np.arange(s), 2)[pick]
            mirror = np.tile([0, 1], s)[pick]
            # every coordinate's rank: twice the index of its entry in the
            # data's memory order, plus 1 for a mirror, so that the entries
            # of a slot sum in the data's order; int32 where it fits, which
            # halves the traffic of the passes over every coordinate below
            beyond = 2 * n_cells * s   # above every rank: a slot that no entry fills
            index = np.int32 if beyond + n < 2**31 else np.intp
            rank = ((2 * n_cells * entry + mirror).astype(index)[:, None]
                    + 2 * np.arange(n_cells, dtype=index)).ravel()
            dofs = self.dofs.T.astype(np.int32)
            diag = np.arange(n, dtype=np.int32)
            rows, cols = (np.concatenate([dofs[a].ravel(), diag]) for a in (local_rows, local_cols))
            csr = sp.coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                                shape=(n, n)).tocsr()
            csr.sort_indices()
            # the matrix whose every stored entry is its own slot number, sampled
            csr.data = np.arange(csr.nnz, dtype=index)
            slot = np.asarray(csr[rows, cols]).reshape(-1)
            # freed before the slot map's arrays are made, which would
            # otherwise set the build's peak memory
            del rows, cols, dofs
            first = np.full(csr.nnz, beyond, dtype=index)
            np.minimum.at(first, slot[:len(rank)], rank)
            later = np.flatnonzero(first[slot[:len(rank)]] != rank)
            # the coordinates lie entry, mirror, cell; the ranks entry, cell, mirror
            later = later[np.argsort(rank[later])]
            unfilled = np.flatnonzero(first == beyond)
            first[unfilled] = 0
            first >>= 1
            # np.intp, which the assembly's gathers and np.add.at read fastest
            targets = np.empty(len(later) + n, dtype=np.intp)
            targets[:len(later)] = slot[later]
            targets[len(later):] = slot[len(rank):]
            later = rank[later] >> 1
            indptr, indices = csr.indptr, csr.indices
            for a in (indptr, indices):
                a.setflags(write=False)  # shared by every assembled matrix
            self._slots = PatternSlots(indptr, indices, first.astype(np.intp),
                                       later.astype(np.intp), targets, unfilled)
        return self._slots

    def assemble(self, cell_data: np.ndarray,
                 diagonal: np.ndarray | None = None) -> sp.csr_matrix:
        """Symmetric stiffness matrix of the upper-half cell data
        ``cell_data`` (s, n_cells), entry-major: row k holds entry k of
        ``local`` of every cell; plus ``diagonal`` (n_dof,) on the main
        diagonal.

        Entries sharing a slot, each off its cell's diagonal in its own slot
        and in the mirrored one, are summed in the data's memory order, the
        diagonal last: entry by entry and within an entry cell by cell.
        C-contiguous data is read in place.
        """
        s = self.slots()
        flat = np.ravel(cell_data)
        if flat.size != len(self.dofs) * len(self.local[0]):
            raise ValueError(f"cell data of {flat.size} entries for {len(self.dofs)} cells "
                             f"of {len(self.local[0])}")
        # every index is in range: "clip" skips the bounds checks
        data = np.take(flat, s.first, mode="clip") if flat.size else np.zeros(len(s.indices))
        data[s.unfilled] = 0.0
        # the later entries, then the diagonal, added in one pass in that order
        n_later = len(s.later)
        values = np.empty(n_later if diagonal is None else len(s.targets))
        np.take(flat, s.later, out=values[:n_later], mode="clip")
        if diagonal is not None:
            values[n_later:] = diagonal
        np.add.at(data, s.targets[:len(values)], values)
        if not np.all(np.isfinite(data)):
            raise ValueError("sparse matrix contains non-finite values")
        return sp.csr_matrix((data, s.indices, s.indptr), shape=(self.n_dof, self.n_dof))

    @cached_property
    def band(self) -> SymmetricBand:
        """The band of the pattern, its dofs in reverse Cuthill-McKee order
        (Cuthill and McKee, 1969), which keeps the half bandwidth small: 67
        on the default reference cell's periodic pattern of 671 dofs, n + 1
        on the macro grid of n x n squares."""
        # imported on first use: the import takes 3 ms, which a command that
        # factors on no pattern's band, as a pinned micro run, does not pay
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        s = self.slots()
        n = self.n_dof
        order = reverse_cuthill_mckee(
            sp.csr_matrix((np.ones(len(s.indices)), s.indices, s.indptr), shape=(n, n)),
            symmetric_mode=True).astype(np.intp)
        at = np.empty(n, dtype=np.intp)
        at[order] = np.arange(n)
        rows, cols = at[np.repeat(np.arange(n), np.diff(s.indptr))], at[s.indices]
        kd = int((cols - rows).max())
        slots = np.flatnonzero(rows <= cols)
        # entry (i, j), i <= j, at row kd + i - j of column j
        return SymmetricBand(order, kd, slots, kd + rows[slots] + kd * cols[slots])

    def factorize(self, system: sp.csr_matrix, dtype=np.float64):
        """An exact factor, in ``dtype``, of the symmetric positive definite
        ``system`` assembled on this pattern, whose ``solve`` solves it: the
        banded Cholesky on :attr:`band` (:class:`BandedCholesky`), or the
        sparse LU (:func:`symmetric_lu`) when the band is wider than
        :data:`BAND_LIMIT`.  Both raise ``RuntimeError`` on a system they
        cannot factor and on one whose entries overflow ``dtype``."""
        band = self.band
        if band.kd > BAND_LIMIT:
            return symmetric_lu(system, dtype)
        return BandedCholesky(system, band, dtype)


def element_stiffness(areas: np.ndarray, grads: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Element matrices ``|T| G C G^T`` (nt, 3, 3) of the coefficient ``coeff``
    (nt, 2, 2) at centroids."""
    k_el = grads @ (coeff @ grads.transpose(0, 2, 1))
    k_el *= areas[:, None, None]
    return k_el


def _cast(data: np.ndarray, dtype) -> np.ndarray:
    """``data`` in ``dtype``, the entries of a factor in that precision.
    Raises ``RuntimeError`` when an entry overflows ``dtype``: an assembled
    system is finite, so only the cast can overflow."""
    if data.dtype == dtype:
        return data
    with np.errstate(over="ignore"):
        data = data.astype(dtype)
    if not np.all(np.isfinite(data)):
        raise RuntimeError(f"matrix entries overflow {np.dtype(dtype).name}")
    return data


def symmetric_lu(system: sp.csr_matrix, dtype=np.float64):
    """SuperLU factor, in ``dtype``, of the symmetric CSR matrix ``system``,
    its arrays read as CSC, the CSR of the transpose, which every assembly
    on a :class:`StiffnessPattern` makes equal to the matrix itself, so
    nothing is converted; ordered on its own pattern with diagonal pivots.
    Raises ``RuntimeError`` on a singular matrix and on one whose entries
    overflow ``dtype``."""
    csc = sp.csc_matrix((_cast(system.data, dtype), system.indices, system.indptr),
                        shape=system.shape)
    return spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class SymmetricBand(NamedTuple):
    """A symmetric CSR sparsity laid out as LAPACK's upper band storage:
    its dofs reordered along the band, the half bandwidth in that order, and
    every CSR slot on or above the band's diagonal with its flat index in
    the (kd + 1, n) band array, column by column as LAPACK stores it.  Each
    entry off the diagonal has one such slot, its own or its mirror's."""

    order: np.ndarray   # the dof at each band position
    kd: int             # the half bandwidth in that order
    slots: np.ndarray   # the CSR slots on or above the band's diagonal
    index: np.ndarray   # the flat index of each of them in the band array


# The half bandwidth above which a system on a pattern is factored by sparse
# LU (:func:`symmetric_lu`), not by a banded Cholesky on its reverse
# Cuthill-McKee band (:meth:`StiffnessPattern.factorize`): the band's work
# grows like n kd^2.  Measured on one thread, the best of 7 factorizations,
# band against LU.  The reference cell's periodic systems in float64: 671
# dofs (the default mesh), kd 67: 0.56 against 1.71 ms; 2,495 dofs, kd 133:
# 5.1 against 5.8 ms; 3,007 dofs, kd 141: 6.6 against 7.5 ms; 3,759 dofs,
# kd 165: 10.7 against 8.7 ms; 9,599 dofs, kd 265: 45 against 28 ms.  A
# solve of the band is the faster one at 671 dofs (36 against 41 us) and
# the slower one beyond (0.58 against 0.34 ms for two right-hand sides at
# kd 141), so the bound lies between kd 141 and 165.  The macro grid's
# systems in float32, the minimum of 7 factorizations (5 at n = 192) and
# of 21 solves, band against LU: n = 64, 4,225 dofs, kd 65: 2.7 against
# 7.2 ms, a solve 0.14 against 0.26 ms; n = 128, 16,641 dofs, kd 129:
# 22.8 against 34.8 ms, 0.91 against 1.21 ms; n = 160, 25,921 dofs, kd
# 161: 46.1 against 67.2 ms, 1.89 against 2.23 ms; n = 192, 37,249 dofs,
# kd 193: 82.3 against 115.4 ms, 4.96 against 3.69 ms.
# A macro run factors once and solves about 3 times a step, so its
# crossover lies between kd 161 and 193, and the one bound serves both
# (a little early for the macro grid).  The macro-fine benchmark runs the
# band at kd 129 and its cell problems at kd 67; no workload runs the LU
# side, which the tests and CI's cell table on the 9,599-dof mesh and its
# macro run at n = 160 run.
BAND_LIMIT = 150


class BandedCholesky:
    """LAPACK's banded Cholesky factor (``cholesky_banded``), in ``dtype``,
    of a symmetric positive definite CSR ``system`` on the sparsity of
    ``band``, whose :meth:`solve` solves in ``dtype`` through the band's
    order, as a SuperLU factor's does through its own.  A system that is
    not positive definite, or whose entries overflow ``dtype``, raises
    ``RuntimeError``, as :func:`symmetric_lu` does on a singular one."""

    def __init__(self, system: sp.csr_matrix, band: SymmetricBand, dtype=np.float64):
        n = system.shape[0]
        ab = np.zeros((band.kd + 1) * n, dtype=dtype)
        ab[band.index] = _cast(system.data[band.slots], dtype)
        try:
            # U of A = U^T U in the band's order, in the band storage of A;
            # Fortran order, which LAPACK reads without a copy
            self.upper = sla.cholesky_banded(ab.reshape((band.kd + 1, n), order="F"),
                                             overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(str(exc)) from None
        self._order = band.order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of the system for ``rhs`` (n,) or (n, k), in the
        factor's precision."""
        x = np.empty_like(rhs)
        x[self._order] = sla.cho_solve_banded((self.upper, False), rhs[self._order],
                                              check_finite=False)
        return x


# A solve preconditioned by a factor that takes more CG iterations than this
# refactors before the next solve.  Measured on the macro-fine benchmark's
# system (seed 0, n = 128) with the step's extrapolated start and a single
# precision factor: a fresh factor solves in 2 iterations, the factor of step
# 1 still in 3 at step 30 and in 4 at step 100, and in 7-11 after dt is
# halved, doubled or scaled by 4 or 1/4 at step 30 (started from u_n instead:
# 4 at step 30, 5 at step 100, 7-11 after the change of dt).  A
# factorization costs about 20 preconditioned iterations (one thread, that
# system at step 30: the float32 banded Cholesky 22 ms, an iteration with
# its solve 1.1 ms; the sparse LU it replaced 43 and 1.5 ms, about 28), so
# a factor is kept until a solve takes 4 or more iterations beyond a fresh
# one; the extrapolated start leaves that bound where it was.  An exact float64
# factor of the system it solves takes 1 (2 on early steps at the tightest
# accepted cg_tol, 1e-14), so the rule does not fire for it.
REFACTOR_ITERATIONS = 6


class Factor:
    """Exact factor of an implicit system: the CG preconditioner of later
    solves with that system or with later systems near it.  ``dtype`` is the
    precision of the factor and of its solves, to which each residual is
    cast; ``factorize(system, dtype)`` builds it: by default the sparse LU
    (:func:`symmetric_lu`), and the pattern's factor
    (:meth:`StiffnessPattern.factorize`) where a stepper passes it.

    The first solve asks for the factor of its own system; a solve that
    applies the factor more than :data:`REFACTOR_ITERATIONS` times, one
    application per CG iteration, makes the next solve ask for its own.  The
    factor is built when CG first applies it, so solves that start within
    the tolerance factor nothing, and :attr:`factored` tells whether the
    latest solve built it.

    The macro stepper keeps one float32 factor of its pattern for its whole
    run, the banded Cholesky up to n = 149: its system moves only by O(dr)
    a step, and CG still stops on the float64 residual; with the sparse LU
    in float64 the macro-fine benchmark's step was 5 to 7% slower than in
    float32 and its peak memory 3 to 5 MB larger.  The micro stepper makes
    one float64 sparse LU per system it keeps: its solve is that system's
    solution to rounding, so every CG solve takes 1 iteration, not 2 as
    with about 7 digits of float32, for a little more per solve (one
    thread: 0.78 against 0.73 ms at 1/eps = 4, 3.5 against 2.9 ms at 1/eps
    = 8).  It also keeps one float64 factor of its eps-periodic start's
    671-dof system for a whole run, as the macro stepper keeps its own, a
    banded Cholesky of the reference cell's periodic pattern;
    :mod:`evopore.micro` gives what that factor costs and saves on the
    canonical study.  A stepper passes its pattern's bound ``factorize``,
    never one of its own methods, which would make the stepper, its factor
    and the factor's fill a reference cycle, alive until the garbage
    collector runs.
    """

    def __init__(self, dtype, factorize=None):
        self._dtype = dtype
        self._factorize = factorize
        self._lu = None
        self._system = None   # the system to factor on the next application
        self._applications = 0   # of the held factor, in the latest solve
        self.factored = False   # whether the latest solve built the factor

    def preconditioner(self, system: sp.csr_matrix):
        """The solve ``r -> z`` of the held factor or, when there is none or
        the last solve went stale, of a factor of ``system`` built on the
        solve's first application.  That application raises
        ``RuntimeError`` from the factorization on a singular system, or on
        one that a Cholesky factorization finds not positive definite."""
        if self._applications > REFACTOR_ITERATIONS:
            self._lu = None
        self._applications = 0
        self.factored = False
        if self._lu is None and self._system is None:
            self._system = system
        # a bound method made per call, not held by self: no reference cycle
        # keeps a dropped factor, and its fill, alive until the garbage
        # collector runs
        return self._solve

    def _solve(self, r: np.ndarray) -> np.ndarray:
        if self._lu is None:
            self._lu = (self._factorize or symmetric_lu)(self._system, self._dtype)
            self._system = None
            self.factored = True
        self._applications += 1
        return self._lu.solve(r.astype(self._dtype, copy=False)).astype(np.float64, copy=False)


def extrapolated_start(u: np.ndarray, previous: np.ndarray | None) -> np.ndarray:
    """The CG start of a step from the field ``u``: the linear extrapolation
    ``2 u - previous`` of the field one step earlier, ``previous``, or ``u``
    itself when there is none."""
    return u if previous is None else 2.0 * u - previous


def backward_euler_step(system: sp.csr_matrix, b: np.ndarray, x0: np.ndarray, tol: float,
                        label: str, t_new: float, factor: Factor | None = None):
    """Solve the implicit system ``(K + diag(mass_new / dt)) u_new = b`` by CG,
    preconditioned by ``factor`` or, when it is None, by ``solve_cg``'s
    default: Jacobi plus an exact solve on the constant vector.

    ``system`` is the stiffness assembled with the mass on its diagonal, and
    the solve starts from ``x0``: the steppers pass the
    :func:`extrapolated_start` of their state, which the micro step of
    moving radii may correct first.
    Returns the new nodal field, the CG iteration count and the number of
    factorizations the solve made, 0 or 1; a failed factorization, a stalled
    solve or a non-finite result raises :class:`NumericalError` naming
    ``label``.
    """
    precondition = None if factor is None else factor.preconditioner(system)
    try:
        u_new, report = solve_cg(system, b, tol=tol, x0=x0, precondition=precondition)
    except RuntimeError as exc:   # from the factor's first application
        raise NumericalError(f"{label} factorization failed at t={t_new}: {exc}") from None
    if not report.converged:
        raise NumericalError(
            f"{label} CG stalled at t={t_new}: residual {report.final_residual:.2e}")
    if not np.all(np.isfinite(u_new)):
        raise NumericalError(f"non-finite concentration at t={t_new}")
    return u_new, report.iterations, int(factor is not None and factor.factored)


def element_means(triangles: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Centroid value of a P1 field on every element."""
    # the order mean(axis=1) sums in, so the same bits, in a third of its time
    return (nodal[triangles[:, 0]] + nodal[triangles[:, 1]] + nodal[triangles[:, 2]]) / 3.0


# The %.17g kernel (see the module docstring).  A value 1e-4 <= |x| < 1e16
# prints in fixed form: its 17 digits D with the point after digit X + 1, or
# "0.", -X - 1 zeros and D when X < 0, the fractional trailing zeros dropped.
_SLOT = 24   # bytes of the longest %.17g text, "-1.2345678901234567e-308"
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter


def _digit_table() -> np.ndarray:
    """The 4-byte text of 0000 to 9999 as uint32, then the same with its
    trailing zeros NUL."""
    text = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).ravel()


_DIGITS4 = _digit_table()
_LEAD = np.frombuffer(b"".join(b"\0\0\0%d" % k for k in range(10)), dtype=np.uint32)   # 0-9


def _split(v):
    """``v`` as hi + lo, each of at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _rounded_digits(a: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``a 10^(16 - exponent)`` rounded to the nearest integer, ties to even,
    as int64.

    Dekker's two-product gives the double product ``hi`` and its exact
    error ``lo``.  From 2^53 on every double is an even integer, so where the
    product is at least 2^53, ``hi + rint(lo)`` rounds the exact product half
    to even, as ``%`` does; a smaller product is below 10^16 and only shows
    that the exponent is one too large.
    """
    p = _POW10[16 - exponent]
    hi = a * p
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _split(p)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digit_text(digits: np.ndarray) -> np.ndarray:
    """(n, 17) uint8 text of the 17-digit integers ``digits`` (n,), their
    trailing zeros NUL."""
    words = np.empty((len(digits), 5), dtype=np.uint32)
    words[:, 0] = _LEAD[digits // 10 ** 16]
    rest = digits % 10 ** 16
    tail = True   # every group after this one is zero
    for k in (4, 3, 2, 1):
        group = rest // 10 ** (16 - 4 * k) % 10 ** 4
        words[:, k] = _DIGITS4[group + 10 ** 4 * tail]
        tail = tail & (group == 0)
    return words.view(np.uint8)[:, 3:]


def _format_into(out: np.ndarray, x: np.ndarray) -> None:
    """Write the ``%.17g`` text of every value of ``x`` (n,) into the rows of
    ``out`` (n, 24), which are zero, NUL-padded.

    Values 1e-4 <= |x| < 1e16 go through the kernel and zeros are "0" or
    "-0"; non-finite values and all others go through Python's ``%``, one
    at a time.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[zero, 1] = ord("0")
    slow = np.flatnonzero(~(fast | zero))
    by_percent = np.array(list(map(b"%.17g".__mod__, x[slow].tolist())), dtype=f"S{_SLOT}")
    out[slow] = by_percent.view(np.uint8).reshape(-1, _SLOT)
    rows = np.flatnonzero(fast)
    a = a[rows]
    exponent = np.floor(np.log10(a)).astype(np.int64)
    digits = _rounded_digits(a, exponent)
    # log10 may miss a power of ten by one either way
    off = (digits >= 10 ** 17).astype(np.int64) - (digits < 10 ** 16)
    moved = np.flatnonzero(off)
    exponent[moved] += off[moved]
    digits[moved] = _rounded_digits(a[moved], exponent[moved])
    text = _digit_text(digits)

    counts = np.bincount(exponent + 4)
    for e in (np.flatnonzero(counts) - 4).tolist():
        if counts[e + 4] == len(x):   # one exponent, nothing else: no gathers
            at, g = slice(None), text
        else:
            group = exponent == e
            at, g = rows[group], text[group]
        if e >= 0:
            # the integer digits, their zeros restored, and the point unless
            # no fractional digit is left
            out[at, 1:e + 2] = g[:, :e + 1] | ord("0")
            out[at, e + 2] = np.where(g[:, e + 1] != 0, ord("."), 0)
            out[at, e + 3:19] = g[:, e + 1:]
        else:
            out[at, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)
            out[at, 2 - e:19 - e] = g


def _text_block(*columns) -> np.ndarray:
    """(n, 25 k) uint8 text of the k equally long columns, row by row: each
    value's ``%.17g`` text NUL-padded to 24 bytes, then a comma.  A column
    that is already a text block (:func:`xy_text`) is copied as it is."""
    blocks = [np.ndim(c) == 2 for c in columns]
    widths = [c.shape[1] if b else _SLOT + 1 for c, b in zip(columns, blocks)]
    block = np.zeros((len(columns[0]), sum(widths)), dtype=np.uint8)
    start = 0
    for column, is_block, width in zip(columns, blocks, widths):
        if is_block:
            block[:, start:start + width] = column
        else:
            _format_into(block[:, start:start + _SLOT], np.asarray(column, dtype=float))
            block[:, start + _SLOT] = ord(",")
        start += width
    return block


def csv_table(header: str, *columns) -> str:
    """CSV text: ``header``, then one line per row of the equally long
    ``columns``, every value by ``%.17g``.

    A column is an array, a list of numbers or a text block of
    :func:`xy_text`, which passes through as it is, so a pair of columns
    formatted once is reused by every table that starts with it.  The rows
    are one NUL-padded text block, joined by dropping its NULs.
    """
    block = _text_block(*columns)
    block[:, -1] = ord("\n")
    return header + "\n" + block[block != 0].tobytes().decode("ascii")


def xy_text(points: np.ndarray) -> np.ndarray:
    """The text block of ``x1,x2,`` of every point (n, 2), each coordinate by
    ``%.17g``: the first two columns of a snapshot row, for
    :func:`csv_table`."""
    return _text_block(points[:, 0], points[:, 1])
