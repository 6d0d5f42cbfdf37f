"""Perforated reference cell: mesh, periodic cell problems, effective tensors.

The cell Y = (0,1)^2 minus a centered polygonal hole is meshed by blended
rings between the hole polygon and the square boundary.  Directions and ring
nodes are generated octant-symmetrically, so the mesh is bitwise invariant
under the dihedral symmetries of the square and opposite boundary faces carry
identical node traces; periodic pairing and conforming tiling are then exact.
A command builds one :class:`ReferenceCell`: the mesh with its hole at the
map's r0, the map's :class:`RadialFrame` on the element midpoints and the
cell's sparse operators, each built on first use.  :func:`tabulate` and
every micro mesh take it, so the cell problems and the micro problem share
one mesh, map and set of operators.

A cell problem takes its element coefficient: the unit tensor on a cell
meshed at the requested radius, or the pulled-back tensor on the reference
mesh.  The two routes discretize the same tensor and serve as mutual oracles.
A cell problem is solved from its stiffness K on the mesh's node sparsity,
its periodic pairs not merged, held as the half data of the symmetric K:
its entries on and above the diagonal, which
:attr:`PeriodicMesh.node_entries` lists with the entry that each element's
upper half falls on (:func:`evopore.fem.upper_entries`), the one map from
elements to node entries that :attr:`ReferenceCell.system` and the element
route of :func:`solve_cell_problem` both read.  Its loads are K applied to
the coordinate functions, exact for P1 (:attr:`PeriodicMesh.loads`), and
its system is K with its periodic pairs merged plus a 1 on dof 0's diagonal,
which fixes the constant, assembled on :attr:`PeriodicMesh.periodic`: the
one periodic pattern, on which the micro stepper also assembles its
eps-periodic start's system.  One factor of that system solves both
directions, and the nodal mean is then subtracted
(:func:`solve_cell_problem`).  The pattern factors the systems on it
(:meth:`evopore.fem.StiffnessPattern.factorize`) by LAPACK's banded
Cholesky on its reverse Cuthill-McKee band, which it orders once: on the
default mesh's 671 dofs, of half bandwidth 67, that takes a third of a
sparse LU's time.  A finer mesh whose band is wider than
:data:`evopore.fem.BAND_LIMIT` is factored by sparse LU.
:func:`effective_tensor` forms K from the element matrices of any
coefficient, on any mesh; :func:`tabulate` evaluates the frame at all its
radii at once, the scalars [b; 1/b - b] that it writes into one buffer,
and forms every radius' K by one product of :attr:`ReferenceCell.system`
with them, the product the micro stepper makes with one column per cell,
here one column per radius.
A scalar diffusion D multiplies the whole problem, so the tensors here are
of unit diffusion and the steppers apply D.  The :class:`EffectiveTensorTable`
holds, at each radius, the three entries (A11, A12, A22) of the symmetric
tensor, which is all its readers use, and ``table.csv`` is those four
columns, ``r,A11,A12,A22``; the porosity 1 - pi r^2 is a function of the
radius (:func:`porosity`), not table data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MeshQualityError, NumericalError
from .fem import (UPPER3, StiffnessPattern, centroids, csv_table, element_stiffness,
                  triangle_geometry, upper_entries)
from .transform import RadialFrame, TransformParams

_PAIR_DECIMALS = 12
_CSV_HEADER = "r,A11,A12,A22"


def ball_volume(r):
    """Area pi r^2 of the disc of radius r (the package meshes only 2-D)."""
    return np.pi * np.asarray(r, dtype=float)**2


def porosity(r):
    """Pore volume fraction 1 - pi r^2 of the two-dimensional cell."""
    return 1.0 - ball_volume(r)


# ---------------------------------------------------------------------------
# Mesh construction and the reference cell
# ---------------------------------------------------------------------------

def _octant_mirror(n: int, first, flip) -> np.ndarray:
    """n points mirrored bitwise from the first octant: ``first(j)`` gives
    the point of index j for j = 0..n/8, and ``flip`` reflects one
    coordinate through the center (``-v`` about the origin, ``1.0 - v``
    about the unit square's center)."""
    m = n // 8
    pts = np.empty((n, 2))
    for j in range(m + 1):
        x, y = first(j)
        fx, fy = flip(x), flip(y)
        for idx, p in (
            (j, (x, y)),
            ((n // 4 - j) % n, (y, x)),
            ((n // 4 + j) % n, (fy, x)),
            ((n // 2 - j) % n, (fx, y)),
            ((n // 2 + j) % n, (fx, fy)),
            ((3 * n // 4 - j) % n, (fy, fx)),
            ((3 * n // 4 + j) % n, (y, fx)),
            ((n - j) % n, (x, fy)),
        ):
            pts[idx] = p
    return pts


def _octant_dirs(n: int) -> np.ndarray:
    """Unit directions at angles 2*pi*j/n, mirrored bitwise from one octant."""
    def first(j):
        if j == n // 8:
            return np.sqrt(0.5), np.sqrt(0.5)
        return np.cos(2 * np.pi * j / n), np.sin(2 * np.pi * j / n)

    return _octant_mirror(n, first, lambda v: -v)


def _square_boundary(n: int) -> np.ndarray:
    """n corner-aligned points on the unit-square boundary, uniform arclength,
    index-matched to the direction angles (index 0 at the right edge middle)."""
    return _octant_mirror(n, lambda j: (1.0, 0.5 + 4.0 * j / n), lambda v: 1.0 - v)


def _min_angles(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]

    def corner(a, b, c):
        u = b - a
        w = c - a
        cosv = np.sum(u * w, axis=-1) / np.sqrt(np.sum(u * u, axis=-1) * np.sum(w * w, axis=-1))
        return np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))

    return np.minimum(np.minimum(corner(p0, p1, p2), corner(p1, p2, p0)), corner(p2, p0, p1))


@dataclass
class PeriodicMesh:
    """Triangulation of the perforated cell with exact periodic node pairing."""

    vertices: np.ndarray
    triangles: np.ndarray
    hole_boundary_facets: np.ndarray  # (n_boundary, 2) node indices on the hole ring
    periodic_partner: np.ndarray      # partner[i] = paired node on the opposite face, else i
    hole_radius: float
    n_boundary: int
    min_angle: float = field(default=0.0)

    @property
    def n_nodes(self) -> int:
        return len(self.vertices)

    @cached_property
    def dof_map(self) -> tuple[np.ndarray, int]:
        """Dof of every node and dof count, periodic pairs merged.

        Slave nodes (on the x=1 / y=1 faces) point at their master on the
        opposite face; the top-right corner chains to the origin corner.
        """
        master = self.periodic_partner.copy()
        for _ in range(3):
            master = master[master]
        unique, dof = np.unique(master, return_inverse=True)
        return dof, len(unique)

    @cached_property
    def hole_edge_lengths(self) -> np.ndarray:
        """Length (n_boundary,) of every edge of the hole ring."""
        e = np.diff(self.vertices[self.hole_boundary_facets], axis=1)[:, 0]
        return np.hypot(e[:, 0], e[:, 1])

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Element areas and basis gradients (:func:`triangle_geometry`),
        shared by every cell problem on this mesh."""
        return triangle_geometry(self.vertices, self.triangles)

    @cached_property
    def gradient(self) -> sp.csr_matrix:
        """The P1 gradient (2 nt, n_nodes): row 2 t + a takes nodal values to
        their derivative along direction a on element t."""
        m = len(self.triangles)
        return sp.csr_matrix((self.geometry[1].transpose(0, 2, 1).ravel(),
                              (np.repeat(np.arange(2 * m), 3),
                               np.repeat(self.triangles, 2, axis=0).ravel())),
                             shape=(2 * m, self.n_nodes))

    @cached_property
    def node_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, at): the s node entries on or above the diagonal of
        this mesh's node sparsity, its periodic pairs not merged, row <= col
        in CSR order, and the node entry ``at`` (nt, 6) of each element's
        upper half (:func:`evopore.fem.upper_entries`).  The entries are the
        order of every K's half data, which determines the symmetric K, and
        the upper half of every micro cell's sparsity."""
        return upper_entries(self.triangles, self.n_nodes)

    @cached_property
    def periodic(self) -> StiffnessPattern:
        """CSR sparsity of a K on :attr:`node_entries` with the periodic
        pairs merged, and of every periodic dof's diagonal: one cell, every
        node's dof, whose entries are the node entries.  It assembles the
        periodic system of every cell problem on this mesh and the micro
        system restricted to the eps-periodic functions."""
        dof, n_dof = self.dof_map
        return StiffnessPattern(dof[None, :], n_dof, self.node_entries[:2])

    @cached_property
    def loads(self) -> sp.csr_matrix:
        """(2 n_dof, s): takes a K's half data on :attr:`node_entries` to
        the cell-problem loads of both directions on the periodic dofs,
        direction by direction.  The load of direction d is ``-R K y_d``, K
        applied to the coordinate function y_d, which is exact for P1 since
        y_d interpolates itself; an entry off the diagonal acts in its row
        and, mirrored, in its column."""
        dof, n_dof = self.dof_map
        nodes, cols, _ = self.node_entries
        off = np.flatnonzero(nodes != cols)
        rows = dof[np.concatenate([nodes, cols[off]])]
        at = np.concatenate([cols, nodes[off]])
        entry = np.concatenate([np.arange(len(nodes)), off])
        return sp.csr_matrix((-self.vertices[at].T.ravel(),
                              (np.concatenate([rows, rows + n_dof]), np.tile(entry, 2))),
                             shape=(2 * n_dof, len(nodes)))


def build_reference_mesh(hole_radius: float, n_boundary: int = 64,
                         target_h: float = 0.05) -> PeriodicMesh:
    """Mesh Y minus the inscribed ``n_boundary``-gon of radius ``hole_radius``.

    Rings blend linearly from the hole polygon to the arclength-uniform square
    boundary; each quad is split along the diagonal giving the better minimum
    angle (a mirror-symmetric criterion).  Raises ``MeshQualityError`` below a
    10 degree minimum angle.
    """
    if n_boundary < 16 or n_boundary % 8 != 0:
        raise ValueError("n_boundary must be >= 16 and divisible by 8")
    if not (0.0 < target_h < 0.25):
        raise ValueError("target_h must lie in (0, 0.25)")
    if not (0.0 < hole_radius < 0.5):
        raise ValueError("hole_radius must lie in (0, 0.5)")

    n = n_boundary
    center = np.array([0.5, 0.5])
    dirs = _octant_dirs(n)
    sq = _square_boundary(n)
    hole = center + hole_radius * dirs
    gap = np.linalg.norm(sq - hole, axis=1)
    n_rings = max(2, int(np.ceil(gap.max() / target_h)))

    verts = np.empty(((n_rings + 1) * n, 2))
    for ring in range(n_rings + 1):
        t = ring / n_rings
        verts[ring * n:(ring + 1) * n] = (1.0 - t) * hole + t * sq

    ring_idx, j_idx = np.meshgrid(np.arange(n_rings), np.arange(n), indexing="ij")
    ring_idx = ring_idx.ravel()
    j_idx = j_idx.ravel()
    a = ring_idx * n + j_idx
    b = ring_idx * n + (j_idx + 1) % n
    c = (ring_idx + 1) * n + (j_idx + 1) % n
    d = (ring_idx + 1) * n + j_idx
    # per quad, pick the diagonal with the better minimum angle; the criterion
    # is mirror symmetric, ties break by index parity (also mirror symmetric)
    q_ac = np.minimum(_min_angles(verts, np.stack([a, b, c], axis=1)),
                      _min_angles(verts, np.stack([a, c, d], axis=1)))
    q_bd = np.minimum(_min_angles(verts, np.stack([a, b, d], axis=1)),
                      _min_angles(verts, np.stack([b, c, d], axis=1)))
    use_ac = (q_ac > q_bd) | ((q_ac == q_bd) & (j_idx % 2 == 0))
    tris = np.empty((2 * n_rings * n, 3), dtype=int)
    tris[0::2] = np.where(use_ac[:, None], np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    tris[1::2] = np.where(use_ac[:, None], np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))

    # enforce positive orientation
    e1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    e2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    neg = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) < 0
    tris[neg] = tris[neg][:, [0, 2, 1]]

    min_angle = float(_min_angles(verts, tris).min())
    if min_angle < 10.0:
        raise MeshQualityError(
            f"minimum angle {min_angle:.2f} deg below 10 deg "
            f"(hole_radius={hole_radius}, n_boundary={n_boundary}, target_h={target_h})")

    partner = np.arange(len(verts))
    tol = 1e-12
    on_left = np.abs(verts[:, 0]) < tol
    on_bottom = np.abs(verts[:, 1]) < tol
    left_by_y = {round(verts[i, 1], _PAIR_DECIMALS): i for i in np.where(on_left)[0]}
    bottom_by_x = {round(verts[i, 0], _PAIR_DECIMALS): i for i in np.where(on_bottom)[0]}
    for i in np.where(np.abs(verts[:, 0] - 1.0) < tol)[0]:
        partner[i] = left_by_y[round(verts[i, 1], _PAIR_DECIMALS)]
    for i in np.where(np.abs(verts[:, 1] - 1.0) < tol)[0]:
        partner[i] = bottom_by_x[round(verts[i, 0], _PAIR_DECIMALS)]

    facets = np.array([(j, (j + 1) % n) for j in range(n)], dtype=int)
    return PeriodicMesh(verts, tris, facets, partner, hole_radius, n, min_angle)


class ReferenceCell:
    """One command's reference cell: the mesh of ``n_boundary`` and
    ``target_h`` with its hole at ``params.r0``, the map's frame on its
    element midpoints and the sparse operators of that frame, which every
    micro cell repeats, each built the first time it is read.

    A micro cell is the reference cell scaled by epsilon and translated, with
    the same node and triangle order, and in 2-D ``|T| G G^T`` does not change
    under scaling.  With ``w = G u`` the basis gradients along the unit
    direction u of the cell map (zero in its identity core), the pulled-back
    tensor ``D (b I + (1/b - b) u u^T)``, of determinant D^2, has the element
    matrices ``D (b L + (1/b - b) Q)`` for ``L = |T| G G^T`` and
    ``Q = |T| w w^T``, and the drift ``J eps rate s u`` the element loads
    ``eps^2 J s rate u_mean |T| w``, all with reference areas ``|T|``.  J
    and J s are polynomials in the shift d = r - r0, so the lumped mass and
    the drift loads of a cell come from per-node coefficients
    (:attr:`mass_coefficients`) and a nodal operator (:attr:`drift`), with no
    per-element scalar.

    Each operator acts on per-element scalars of the m reference elements or
    on nodal values of the n_ref reference nodes, held as (m, c) or (n_ref, c)
    arrays with one column per cell, so one product, which sums each entry
    over the reference elements in their order, serves every cell.
    :func:`tabulate` applies :attr:`system` alone, one column per radius.
    """

    def __init__(self, params: TransformParams, n_boundary: int = 64, target_h: float = 0.05):
        self.params = params
        self.mesh = build_reference_mesh(params.r0, n_boundary, target_h)
        self.frame = RadialFrame(params, centroids(self.mesh.vertices, self.mesh.triangles))

    def _radial(self) -> tuple[np.ndarray, np.ndarray]:
        """``|T| w`` and ``w`` (m, 3) of every element."""
        areas, grads = self.mesh.geometry
        w = (grads @ self.frame.directions()[:, :, None])[:, :, 0]
        return areas[:, None] * w, w

    def _at_vertices(self, values: np.ndarray) -> sp.csr_matrix:
        """The (n_ref, m) matrix of ``values`` (m, 3) at each element vertex."""
        tri = self.mesh.triangles
        return sp.csr_matrix((np.ravel(values), (tri.ravel(), np.repeat(np.arange(len(tri)), 3))),
                             shape=(self.mesh.n_nodes, len(tri)))

    @cached_property
    def system(self) -> sp.csr_matrix:
        """``[L Q]`` (s, 2m) on the upper half of the mesh's node sparsity,
        :attr:`PeriodicMesh.node_entries`: applied to ``[D b; D (1/b - b)]``
        it gives every cell's half system entries.  Each element adds the 6
        entries of its upper half (:data:`evopore.fem.UPPER3`) to the node
        entries they fall on."""
        areas, grads = self.mesh.geometry
        m = len(areas)
        a, b = UPPER3
        stiffness = grads @ grads.transpose(0, 2, 1)
        stiffness *= areas[:, None, None]
        drift, w = self._radial()
        radial = drift[:, a] * w[:, b]
        rows, _, at = self.mesh.node_entries
        # one column of 6 entries per element scalar, laid out as CSC
        return sp.csc_matrix((np.concatenate([stiffness[:, a, b].ravel(), radial.ravel()]),
                              np.tile(at.ravel(), 2), np.arange(0, 2 * m * len(a) + 1, len(a))),
                             shape=(len(rows), 2 * m)).tocsr()

    @cached_property
    def mass(self) -> sp.csr_matrix:
        """(n_ref, m): ``|T| / 3`` at each vertex, the row-sum lumping."""
        return self._at_vertices(np.repeat(self.mesh.geometry[0] / 3.0, 3))

    @cached_property
    def mass_coefficients(self) -> np.ndarray:
        """(n_ref, 3): :attr:`mass` applied to the coefficients of J in the
        shift d = r - r0 (:meth:`evopore.transform.RadialFrame.shift_polynomials`).
        A cell of radius r has the lumped mass ``eps^2`` times this applied
        to ``(1, d, d^2)``, exactly, with no J per element."""
        return self.mass @ self.frame.shift_polynomials()[0]

    @cached_property
    def drift(self) -> sp.csr_matrix:
        """(2 n_ref, n_ref): ``[B0; B1]`` with ``B_k = V diag(c_k) means``,
        V the (n_ref, m) loads ``|T| w`` of a unit drift weight at each
        vertex and c_0 + d c_1 = J s the drift weight in the shift d
        (:meth:`evopore.transform.RadialFrame.shift_polynomials`).  A cell of
        radius rate q and nodal values U has the drift loads
        ``eps^2 q (B0 U + d B1 U)``, exactly, with no J or s per element."""
        loads = self._at_vertices(self._radial()[0])
        coefficients = self.frame.shift_polynomials()[1]
        return sp.vstack([loads @ sp.diags(c) @ self.means for c in coefficients.T]).tocsr()

    @cached_property
    def means(self) -> sp.csr_matrix:
        """(m, n_ref): takes nodal values to element means."""
        return self._at_vertices(np.full(self.mesh.triangles.shape, 1.0 / 3.0)).T.tocsr()


# ---------------------------------------------------------------------------
# Cell problems and the effective tensor
# ---------------------------------------------------------------------------

def solve_cell_problem(mesh: PeriodicMesh, coeff: np.ndarray | None = None, *,
                       stiffness: np.ndarray | None = None) -> np.ndarray:
    """Nodal correctors (n_nodes, 2) of the periodic cell problems of the
    element coefficient ``coeff`` (nt, 2, 2) on ``mesh``: column i solves
    -div C (grad w_i + e_i) = 0, periodic pairs equal, zero nodal mean.

    The problems are solved from their stiffness K, as its half data (s,) on
    the mesh's :attr:`PeriodicMesh.node_entries`: ``stiffness`` when it is
    given, else the upper halves of the element matrices of ``coeff``
    summed there, element by element.  K with its periodic pairs merged,
    K_p, is singular by the constants only, ``1^T K_p = 0``, and both loads
    f sum to zero.  The mesh's :attr:`PeriodicMesh.periodic` assembles
    ``K_p + e_0 e_0^T``, symmetric positive definite, whose solution has
    ``w_0 = 1^T f = 0`` and so is the one with dof 0 pinned; the tensors
    are of unit diffusion and 2-D P1 stiffness does not change with scale,
    so the 1 is of the size of K_p's diagonal.  One factor
    (:meth:`evopore.fem.StiffnessPattern.factorize`, the banded Cholesky on
    the default mesh) solves both directions, and subtracting the nodal
    mean picks the zero-mean corrector.  A system that factor finds singular or not
    positive definite raises :class:`NumericalError`.
    """
    if stiffness is None:
        areas, grads = mesh.geometry
        a, b = UPPER3
        rows, _, at = mesh.node_entries
        stiffness = np.bincount(at.ravel(), element_stiffness(areas, grads, coeff)[:, a, b].ravel(),
                                minlength=len(rows))
    dof, n = mesh.dof_map
    pin = np.zeros(n)
    pin[0] = 1.0
    try:
        periodic = mesh.periodic
        factor = periodic.factorize(periodic.assemble(stiffness, pin))
    except RuntimeError as exc:
        raise NumericalError(f"cell problem: {exc}") from None
    w_dof = factor.solve((mesh.loads @ stiffness).reshape(2, n).T)
    w = w_dof[dof]
    w -= w.mean(axis=0)
    return w


def effective_tensor(mesh: PeriodicMesh, coeff: np.ndarray | None = None, *,
                     stiffness: np.ndarray | None = None) -> np.ndarray:
    """Effective tensor of the :func:`solve_cell_problem` of ``coeff``, by
    default the unit tensor, on ``mesh``, with the stiffness ``stiffness``
    of ``coeff`` when it is given: the energy form, the integral of
    (grad w_i + e_i) . C (grad w_j + e_j) over the cell, which coincides
    with the divergence form by the corrector equation and is symmetric by
    construction."""
    areas = mesh.geometry[0]
    if coeff is None:
        coeff = np.tile(np.eye(2), (len(areas), 1, 1))
    w = solve_cell_problem(mesh, coeff, stiffness=stiffness)
    # fields[t, :, i] = grad w_i + e_i and fluxes[t, :, i] = C fields[t, :, i]
    # on element t
    fields = (mesh.gradient @ w).reshape(-1, 2, 2)
    fields += np.eye(2)
    fluxes = coeff @ fields
    # the element energies fields_i . fluxes_j laid out (2, 2, nt), so that
    # the sum over the elements is numpy's pairwise sum along a contiguous axis
    f, q = (np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (fields, fluxes))
    energies = f[0, :, None] * q[0, None] + f[1, :, None] * q[1, None]
    a_hom = np.sum(areas * energies, axis=-1)
    return 0.5 * (a_hom + a_hom.T)


# ---------------------------------------------------------------------------
# Radius-parametrized table
# ---------------------------------------------------------------------------

@dataclass
class EffectiveTensorTable:
    """Sorted radius grid with the effective tensor at every radius, as its
    entries (A11, A12, A22): the tensors are symmetric, so these determine
    them.

    Tensor lookup interpolates entrywise piecewise-linearly, which preserves
    the monotonicity and bound properties of the tabulated values.  The
    porosity is a function of the radius (:func:`porosity`), not table data.
    """

    radii: np.ndarray
    entries: np.ndarray      # (m, 3): A11, A12, A22 at each radius

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.entries = np.asarray(self.entries, dtype=float)
        m = self.radii.size
        if (self.radii.shape, self.entries.shape) != ((m,), (m, 3)):
            raise ValueError(
                f"table shapes radii {self.radii.shape} and entries {self.entries.shape} "
                f"are not (m,) and (m, 3) for m radii")
        if not (np.all(np.isfinite(self.radii)) and np.all(np.isfinite(self.entries))):
            raise ValueError("table holds non-finite radii or entries")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("table radii must be strictly increasing")

    def components(self, r) -> np.ndarray:
        """(A11, A12, A22) (``r.shape + (3,)``) at the radii ``r``, each
        interpolated piecewise-linearly by ``np.interp``.

        Beyond the grid ``np.interp`` holds the end values, so a finite
        radius outside it reads the tensor of the nearest grid end, the same
        bits as clamping the radius first.  The CLI rejects a grid that does
        not cover the radius box, so a run never reads there.
        """
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape + (3,))
        for c in range(3):
            out[..., c] = np.interp(r, self.radii, self.entries[:, c])
        return out

    def to_csv(self) -> str:
        return csv_table(_CSV_HEADER, self.radii, *self.entries.T)

    @classmethod
    def from_csv(cls, text: str) -> "EffectiveTensorTable":
        """The table of :meth:`to_csv`'s text: the header, then at least one
        row of four numbers; a row of any other length, or with a field that
        is not a number, names its line."""
        lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].strip() != _CSV_HEADER:
            raise ValueError(f"tensor table header is not {_CSV_HEADER}")
        if len(lines) == 1:
            raise ValueError("tensor table has no rows")
        rows = []
        for k, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 4:
                raise ValueError(f"line {k} has {len(fields)} fields, not 4")
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
        rows = np.array(rows)
        return cls(rows[:, 0], rows[:, 1:])


def tabulate(cell: ReferenceCell, r_grid: np.ndarray) -> EffectiveTensorTable:
    """Unit-diffusion tensor table over ``r_grid`` on the reference ``cell``,
    with the coefficient ``b I + (1/b - b) u u^T`` of the cell's frame, from
    its scalar b and unit directions u.  The frame writes [b; 1/b - b] at
    every radius at once (:meth:`RadialFrame.tensor_scalars`), and every
    radius' stiffness is one column of one product with ``cell.system``;
    each radius' cell problems are then solved and their energy formed as
    :func:`effective_tensor` does.

    A single discretization shared across radii makes the tabulated tensors a
    smooth, monotone function of the radius: the geometric error of the
    polygonal hole cancels in radius comparisons.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 5:
        raise ValueError("tensor table needs at least 5 radii")
    if not np.all((r_grid >= cell.params.r_min) & (r_grid <= cell.params.r_max)):
        raise ValueError("table radii must lie in [r_min, r_max]")
    if np.any(np.diff(r_grid) <= 0):
        raise ValueError("table radii must be strictly increasing")
    m = len(cell.mesh.triangles)
    # [b; 1/b - b] (2 element, radius)
    scalars = cell.frame.tensor_scalars(r_grid.reshape(-1, 1), np.empty((2 * m, r_grid.size)))
    stiffness = np.ascontiguousarray((cell.system @ scalars).T)
    u = cell.frame.directions()
    radial = u[:, :, None] * u[:, None, :]
    entries = np.empty((r_grid.size, 3))
    for k, r in enumerate(r_grid):
        coeff = scalars[:m, k, None, None] * np.eye(2) + scalars[m:, k, None, None] * radial
        try:
            t = effective_tensor(cell.mesh, coeff, stiffness=stiffness[k])
        except NumericalError as exc:
            raise NumericalError(f"tensor tabulation failed at r={r}: {exc}") from exc
        entries[k] = t[0, 0], t[0, 1], t[1, 1]
    return EffectiveTensorTable(r_grid, entries)


def table_checks(table: EffectiveTensorTable) -> dict[str, bool]:
    """Named invariant checks used by the table command and its tests, from
    the entries: a 2 x 2 symmetric tensor is positive definite exactly when
    A11 > 0, A22 > 0 and |A12| < sqrt(A11) sqrt(A22)."""
    a11, a12, a22 = table.entries.T
    diagonal = (a11 > 0.0) & (a22 > 0.0)
    # the square roots of the diagonal, not their product, so no entry of a
    # finite table overflows
    bound = np.sqrt(np.where(diagonal, a11, 0.0)) * np.sqrt(np.where(diagonal, a22, 0.0))
    return {
        "positive_definite": bool(np.all(diagonal & (np.abs(a12) < bound))),
        "offdiag_1e-6": float(np.max(np.abs(a12))) <= 1e-6,
        "voigt_bound": bool(np.all(a11 <= porosity(table.radii) + 1e-12)),
        "A11_strictly_decreasing": bool(np.all(np.diff(a11) < 0)),
    }
