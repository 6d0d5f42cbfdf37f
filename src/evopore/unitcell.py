"""Perforated reference cell: mesh, periodic cell problems, effective tensors.

The cell Y = (0,1)^2 minus a centered polygonal hole is meshed by blended
rings between the hole polygon and the square boundary.  Directions and ring
nodes are generated octant-symmetrically, so the mesh is bitwise invariant
under the dihedral symmetries of the square and opposite boundary faces carry
identical node traces; periodic pairing and conforming tiling are then exact.

A cell problem takes its element coefficient: the unit tensor on a cell
meshed at the requested radius, or the pulled-back tensor on the reference
mesh.  The two routes discretize the same tensor and serve as mutual oracles.
Both directions of a cell problem share one periodic stiffness matrix, which
is factored once by a sparse LU with one dof pinned; the nodal mean is then
subtracted (:func:`solve_cell_problem`).  A scalar diffusion D multiplies the
whole problem, so the tensors here are of unit diffusion and the steppers
apply D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MeshQualityError, NumericalError
from .fem import (StiffnessPattern, centroids, csv_table, element_stiffness, symmetric_lu,
                  triangle_geometry)
from .transform import RadialFrame, TransformParams

_PAIR_DECIMALS = 12
_CSV_HEADER = "r,A11,A12,A22,theta"


def ball_volume(r):
    """Area pi r^2 of the disc of radius r (the package meshes only 2-D)."""
    return np.pi * np.asarray(r, dtype=float)**2


def porosity(r):
    """Pore volume fraction 1 - pi r^2 of the two-dimensional cell."""
    return 1.0 - ball_volume(r)


# ---------------------------------------------------------------------------
# Mesh construction
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
    def geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """Element areas and basis gradients (:func:`triangle_geometry`),
        shared by every cell problem on this mesh."""
        return triangle_geometry(self.vertices, self.triangles)

    @cached_property
    def stiffness_pattern(self) -> StiffnessPattern:
        """Sparsity of the periodic stiffness matrices, shared by every cell
        problem on this mesh."""
        dof, n_dof = self.dof_map
        return StiffnessPattern(dof[self.triangles], n_dof)


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


# ---------------------------------------------------------------------------
# Cell problems and the effective tensor
# ---------------------------------------------------------------------------

def solve_cell_problem(mesh: PeriodicMesh, coeff: np.ndarray) -> np.ndarray:
    """Nodal correctors (n_nodes, 2) of the periodic cell problems of the
    element coefficient ``coeff`` (nt, 2, 2) on ``mesh``: column i solves
    -div C (grad w_i + e_i) = 0, periodic pairs equal, zero nodal mean.

    The periodic stiffness K is singular by the constants only, and both
    loads sum to zero, so pinning dof 0 drops an equation that holds anyway:
    one sparse LU factor of ``K[1:, 1:]``, symmetric positive definite,
    solves both directions, and subtracting the nodal mean picks the
    zero-mean corrector.  A singular factor raises :class:`NumericalError`.
    """
    areas, grads = mesh.geometry
    dof, n_dof = mesh.dof_map
    stiffness = mesh.stiffness_pattern.assemble(element_stiffness(areas, grads, coeff))
    # element loads -|T| grad phi_i . C e_d, (nt, 3, 2), summed into (n_dof, 2)
    loads = -(grads @ coeff) * areas[:, None, None]
    element_dofs = dof[mesh.triangles].ravel()
    b = np.stack([np.bincount(element_dofs, loads[:, :, d].ravel(), minlength=n_dof)
                  for d in range(2)], axis=1)
    try:
        # converted, not read as CSC: K is not known to be bitwise symmetric
        lu = symmetric_lu(stiffness[1:, 1:].tocsc())
    except RuntimeError as exc:
        raise NumericalError(f"cell problem: {exc}") from None
    w_dof = np.zeros((n_dof, 2))
    w_dof[1:] = lu.solve(b[1:])
    w = w_dof[dof]
    w -= w.mean(axis=0)
    return w


def effective_tensor(mesh: PeriodicMesh, coeff: np.ndarray | None = None) -> np.ndarray:
    """Effective tensor of the :func:`solve_cell_problem` of ``coeff``, by
    default the unit tensor, on ``mesh``: the energy form, the integral of
    (grad w_i + e_i) . C (grad w_j + e_j) over the cell, which coincides
    with the divergence form by the corrector equation and is symmetric by
    construction."""
    areas, grads = mesh.geometry
    if coeff is None:
        coeff = np.tile(np.eye(2), (len(areas), 1, 1))
    w = solve_cell_problem(mesh, coeff)
    # fields[t, i] = grad w_i + e_i on element t
    fields = np.einsum("tki,tka->tia", w[mesh.triangles], grads)
    fields += np.eye(2)
    # the element energies laid out (2, 2, nt), so that the sum over the
    # elements is numpy's pairwise sum along a contiguous axis
    energies = np.einsum("tia,tab,tjb->ijt", fields, coeff, fields, order="C")
    a_hom = np.sum(areas * energies, axis=-1)
    return 0.5 * (a_hom + a_hom.T)


# ---------------------------------------------------------------------------
# Radius-parametrized table
# ---------------------------------------------------------------------------

@dataclass
class EffectiveTensorTable:
    """Sorted radius grid with per-radius effective tensors and porosity.

    Tensor lookup interpolates entrywise piecewise-linearly, which preserves
    the monotonicity and bound properties of the tabulated values.  The
    tensors must be exactly symmetric, so A11, A12 and A22 determine them.
    """

    radii: np.ndarray
    tensors: np.ndarray      # (m, 2, 2)
    theta: np.ndarray

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.tensors = np.asarray(self.tensors, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if not np.all(np.isfinite(self.radii)):
            raise ValueError("table radii must be finite")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("table radii must be strictly increasing")
        if not np.array_equal(self.tensors[:, 0, 1], self.tensors[:, 1, 0], equal_nan=True):
            raise ValueError("table tensors must be symmetric")

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
        for c, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
            out[..., c] = np.interp(r, self.radii, self.tensors[:, i, j])
        return out

    def to_csv(self) -> str:
        return csv_table(_CSV_HEADER, self.radii, self.tensors[:, 0, 0], self.tensors[:, 0, 1],
                         self.tensors[:, 1, 1], self.theta)

    @classmethod
    def from_csv(cls, text: str) -> "EffectiveTensorTable":
        """The table of :meth:`to_csv`'s text: the header, then at least one
        row of five numbers; a row of any other length, or with a field that
        is not a number, names its line."""
        lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines or lines[0][1].strip() != _CSV_HEADER:
            raise ValueError("unexpected tensor table header")
        if len(lines) == 1:
            raise ValueError("tensor table has no rows")
        rows = []
        for k, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 5:
                raise ValueError(f"line {k} has {len(fields)} fields, not 5")
            try:
                rows.append(tuple(float(v) for v in fields))
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
        radii = np.array([row[0] for row in rows])
        tensors = np.array([[[row[1], row[2]], [row[2], row[3]]] for row in rows])
        theta = np.array([row[4] for row in rows])
        return cls(radii, tensors, theta)


def tabulate(params: TransformParams, r_grid: np.ndarray, n_boundary: int = 64,
             target_h: float = 0.05) -> EffectiveTensorTable:
    """Unit-diffusion tensor table over ``r_grid`` on one reference mesh,
    with the coefficient ``b I + (a - b) u u^T`` of one :class:`RadialFrame`
    on its midpoints, from the frame's scalars and unit directions u.

    A single discretization shared across radii makes the tabulated tensors a
    smooth, monotone function of the radius: the geometric error of the
    polygonal hole cancels in radius comparisons.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 5:
        raise ValueError("tensor table needs at least 5 radii")
    if np.any(r_grid < params.r_min) or np.any(r_grid > params.r_max):
        raise ValueError("table radii must lie in [r_min, r_max]")
    mesh = build_reference_mesh(params.r0, n_boundary, target_h)
    frame = RadialFrame(params, centroids(mesh.vertices, mesh.triangles))
    u = frame.directions()
    radial = u[:, :, None] * u[:, None, :]
    tensors = np.empty((r_grid.size, 2, 2))
    for k, r in enumerate(r_grid):
        sc = frame.scalars(float(r))
        coeff = sc.b[:, None, None] * np.eye(2) + (sc.a - sc.b)[:, None, None] * radial
        try:
            tensors[k] = effective_tensor(mesh, coeff)
        except NumericalError as exc:
            raise NumericalError(f"tensor tabulation failed at r={r}: {exc}") from exc
    return EffectiveTensorTable(r_grid, tensors, porosity(r_grid))


def table_checks(table: EffectiveTensorTable) -> dict[str, bool]:
    """Named invariant checks used by the table command and its tests."""
    sym = float(np.max(np.abs(table.tensors[:, 0, 1] - table.tensors[:, 1, 0])))
    eigmin = float(min(np.linalg.eigvalsh(t).min() for t in table.tensors))
    offdiag = float(np.max(np.abs(table.tensors[:, 0, 1])))
    voigt = bool(np.all(table.tensors[:, 0, 0] <= porosity(table.radii) + 1e-12))
    decreasing = bool(np.all(np.diff(table.tensors[:, 0, 0]) < 0))
    theta_dec = bool(np.all(np.diff(table.theta) < 0))
    return {
        "symmetric_1e-12": sym <= 1e-12,
        "positive_definite": eigmin > 0.0,
        "offdiag_1e-6": offdiag <= 1e-6,
        "voigt_bound": voigt,
        "A11_strictly_decreasing": decreasing,
        "theta_strictly_decreasing": theta_dec,
    }
