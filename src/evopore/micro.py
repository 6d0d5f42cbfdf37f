"""Resolved micro-scale solver on the fixed periodic perforated domain.

The evolving geometry is never meshed: the PDE lives on the reference
perforation (holes at radius r0) with pulled-back coefficients built from the
radius-parametrized cell transformation, one obstacle radius per cell evolving
by an explicit surface-averaged reaction balance.  The bulk step mirrors the
macro solver (lumped Jacobian-weighted mass, backward Euler diffusion); the
transformation's advective term and the surface reaction are explicit, which
both carry a factor epsilon and keep the system symmetric.

Every cell repeats the nodes and triangles of one
:class:`~evopore.unitcell.ReferenceCell`, so the micro mesh stores only its
nodes, the cell node map and that cell.  The radial map enters the weak form
through four scalars per element (:class:`MapScalars`) of the cell's one
frame, built on the reference midpoints with the mesh from the same r0; the
profile is affine in the radius, so a step evaluates no kernel.  A step holds
those scalars as (reference element x cell) arrays and applies the cell's
sparse operators to them, one product per quantity: the system entries, the
lumped mass, the element means and the drift loads of every cell at once.
The source is lumped like the mass, and its integral is the sum of its
loads.  The surface reaction is integrated on the reference hole ring in
every cell, its edges epsilon times the reference lengths.  Each result
reaches the global arrays by one scatter through the cell node map, and the
system's CSR pattern is the reference cell's pattern repeated through that
map.  No per-element tensor algebra and no per-element scatter.  A
product's result is C-contiguous with one column per cell, so the scatter
index (:attr:`MicroMesh.cell_nodes`) and the system's data slots are stored
once, as ``np.intp``, in that entry-major order: each scatter and assembly
reads its data and index in place.

A step whose radii did not move keeps its cell map and system for the next
step at the same radii and dt, and an exact double precision sparse LU factor
of that system (:class:`evopore.fem.Factor`), which preconditions the CG of
every step that reuses it: 1 iteration a step instead of 77 to 96 with CG's
default preconditioner.  So radii frozen at r0, which are inputs (a zero
rate law, every radius at r0), not a stepper mode, assemble once per dt and
factor when CG first applies the factor: never, when every start solves the
system.  A step whose radii moved keeps nothing and solves by CG's default
preconditioner, Jacobi plus an exact solve on the constant vector, which
the zero-flux stiffness annihilates (:mod:`evopore.sparse`), as a factor of
a system that serves once costs more than it saves (:mod:`evopore.fem`).

The unfolding comparator turns a micro state into per-cell pore averages
and measures their distance to a macro solution at the cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .fem import Factor, StiffnessPattern, backward_euler_step, csv_table, element_means, xy_text
from .kinetics import KineticsSpec, check_initial_state, eval_f, step_radius
from .transform import MapScalars
from .unitcell import ReferenceCell, ball_volume

ALLOWED_INV_EPS = (1, 2, 4, 8, 16)
# two-point Gauss on an edge: the weight of its first and second end (rows)
# at each of the two points (columns)
_EDGE_GAUSS = np.array([[0.5 + 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)],
                        [0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]])


@dataclass
class MicroMesh:
    """Conforming tiling of scaled reference cells over the unit square.

    ``vertices`` is read-only: the nodes of the fixed reference perforation,
    which every step and snapshot of a run shares.  Cell c's triangles are
    the triangles of the ``cell``'s mesh through ``node_map[c]``.
    """

    epsilon: float
    n_cells_side: int
    vertices: np.ndarray
    cell_index: np.ndarray          # (n_cells, 2) lattice coordinates
    node_map: np.ndarray            # (n_cells, n_ref) global node of every reference node
    cell: ReferenceCell = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return self.n_cells_side ** 2

    def cell_centers(self) -> np.ndarray:
        return self.epsilon * (self.cell_index + 0.5)

    @cached_property
    def cell_nodes(self) -> np.ndarray:
        """``node_map`` transposed (n_ref, n_cells), C-contiguous ``np.intp``:
        the index of the gathers and scatters of (n_ref, n_cells) arrays, laid
        out as they are, so ``np.bincount`` neither casts nor copies it."""
        return np.ascontiguousarray(self.node_map.T, dtype=np.intp)

    @cached_property
    def coordinate_text(self) -> np.ndarray:
        """The ``x1,x2,`` text block of the nodes (:func:`evopore.fem.xy_text`),
        formatted on first use: the first snapshot of a run builds it, and
        every later one reuses it."""
        return xy_text(self.vertices)

    @cached_property
    def lattice_text(self) -> np.ndarray:
        """The ``k1,k2,`` text block of the cell lattice coordinates
        (:func:`evopore.fem.xy_text`), formatted on first use: the first
        cells file of a run builds it, and every later one reuses it."""
        return xy_text(self.cell_index)

    def scatter(self, per_cell: np.ndarray) -> np.ndarray:
        """Sum of per-cell nodal values (n_ref, n_cells) at the global nodes,
        in their memory order: reference node by reference node, and within
        one in cell index order.  C-contiguous values are read in place."""
        return np.bincount(self.cell_nodes.ravel(), per_cell.ravel(), minlength=self.n_nodes)


def cells_per_side(epsilon: float) -> int:
    """1/epsilon, which must be one of :data:`ALLOWED_INV_EPS`."""
    inv = round(1.0 / epsilon) if epsilon > 0 else 0
    if inv not in ALLOWED_INV_EPS or abs(inv * epsilon - 1.0) > 1e-12:
        raise ValueError(f"1/epsilon must be one of {ALLOWED_INV_EPS}")
    return inv


def build_micro_mesh(cell: ReferenceCell, epsilon: float) -> MicroMesh:
    """Tile the reference ``cell``; shared-face nodes merge by coordinate keys.

    Works because opposite boundary traces of the reference mesh are bitwise
    identical and the cells are translated by exact binary offsets, so
    coincident nodes carry identical coordinates; the 1e-12 rounding in the
    key is pure safety.

    A node's key is the pair of ranks of its rounded x and y among all
    distinct rounded x and y values, merged as the one integer
    ``x_rank * n_y + y_rank``.  A rank keeps the order of the values it
    ranks, so the merged nodes come out sorted by (x, y), as a lexicographic
    sort of the coordinate rows would order them, by three one-dimensional
    sorts.

    The merge must leave one node per periodic dof of every cell, plus the
    nodes on the right and top faces of the unit square, whose periodic
    partners lie in no cell: ``n_dof n^2 + (n_left + n_bottom - 2) n + 1``
    nodes, with ``n_left`` and ``n_bottom`` the reference nodes on x = 0 and
    y = 0, corners included.  Any other count, say from face nodes that miss
    their partner, is a :class:`NumericalError`.
    """
    n = cells_per_side(epsilon)
    reference = cell.mesh
    cells = np.array([(i, j) for i in range(n) for j in range(n)], dtype=int)
    coords = (epsilon * reference.vertices + epsilon * cells[:, None, :]).reshape(-1, 2)

    keys = np.round(coords, 12) + 0.0  # normalizes -0.0
    _, x_rank = np.unique(keys[:, 0], return_inverse=True)
    y_values, y_rank = np.unique(keys[:, 1], return_inverse=True)
    merged, inverse = np.unique(x_rank * len(y_values) + y_rank, return_inverse=True)
    rep = np.zeros(len(merged), dtype=int)
    rep[inverse] = np.arange(len(coords))
    vertices = coords[rep]
    vertices.setflags(write=False)

    n_dof = reference.dof_map[1]
    n_left, n_bottom = np.count_nonzero(reference.vertices == 0.0, axis=0)
    expected = n_dof * n * n + (n_left + n_bottom - 2) * n + 1
    if len(vertices) != expected:
        raise NumericalError(f"micro mesh merge mismatch: {len(vertices)} nodes, "
                             f"expected {expected}")

    return MicroMesh(epsilon, n, vertices, cells, inverse.reshape(len(cells), -1), cell)


@dataclass
class MicroState:
    t: float
    u_hat: np.ndarray
    radii: np.ndarray          # (n, n)
    radii_rate: np.ndarray
    mass: np.ndarray           # nodal lumped Jacobian-weighted mass
    fluid_mass: float
    solid_mass: float
    flux_step: float = 0.0
    source_step: float = 0.0
    defect: float = 0.0
    radius_flux_gap: float = 0.0
    cg_iterations: int = 0
    previous: np.ndarray | None = None   # the u_hat array of the state one step earlier


@dataclass
class UnfoldingError:
    epsilon: float
    u_l2_error: float
    r_l2_error: float


class MicroSimulator:
    """Stepper for the transformed substitute problem, with the map of the mesh's cell."""

    def __init__(self, mesh: MicroMesh, spec: KineticsSpec, *, source=None,
                 diffusion: float = 1.0, cg_tol: float = 1e-10):
        self.mesh = mesh
        self.spec = spec
        self.source = source
        self.diffusion = diffusion
        self.cg_tol = cg_tol
        box = mesh.cell.params
        if not (box.r_min <= spec.r_min and spec.r_max <= box.r_max):
            raise ValueError(f"kinetics radius box [{spec.r_min:g}, {spec.r_max:g}] is not inside "
                             f"the cell map's [{box.r_min:g}, {box.r_max:g}]")
        self._pattern = StiffnessPattern(mesh.node_map, mesh.n_nodes, mesh.cell.local,
                                         entry_major=True)
        # (radii, dt, map, system, factor) of a step whose radii did not move
        self._kept = None
        self.cg_iterations = 0    # CG iterations of the solves
        self.factorizations = 0   # sparse LU factorizations of the kept systems

    # -- construction --------------------------------------------------------

    def init(self, u0_field, r0_field) -> MicroState:
        """State at t = 0: u0 at the nodes, r0 at the cell centers."""
        m = self.mesh
        u = np.asarray(u0_field(m.vertices), dtype=float)
        radii = np.asarray(r0_field(m.cell_centers()), dtype=float).reshape(
            m.n_cells_side, m.n_cells_side)
        check_initial_state(self.spec, u, radii)
        mass = self._lumped(self._cell_map(radii).det)
        state = MicroState(0.0, u, radii, np.zeros_like(radii), mass, 0.0, 0.0)
        state.fluid_mass = float(mass @ u)
        state.solid_mass = self._solid_mass(radii)
        return state

    def _cell_map(self, radii: np.ndarray) -> MapScalars:
        """The cell map on every element, at one radius per cell."""
        return self.mesh.cell.frame.scalars(radii.reshape(-1, 1))

    def _per_cell(self, values: np.ndarray) -> np.ndarray:
        """Element values (c*m,), cell by cell, as an (m, c) array."""
        return values.reshape(self.mesh.n_cells, -1).T

    def _lumped(self, weight: np.ndarray) -> np.ndarray:
        """Row-sum lumped mass (n,) of the element weight ``weight`` (c*m,)."""
        m = self.mesh
        return m.epsilon**2 * m.scatter(m.cell.mass @ self._per_cell(weight))

    def _system(self, sc: MapScalars, diagonal: np.ndarray):
        """The implicit system: the pulled-back stiffness of ``sc`` plus
        ``diagonal``."""
        x = np.vstack([self._per_cell(self.diffusion * sc.b),
                       self._per_cell(self.diffusion * (sc.a - sc.b))])
        return self._pattern.assemble(self.mesh.cell.system @ x, diagonal)

    def _drift(self, sc: MapScalars, rate: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Nodal loads of the drift ``(J Psi^{-1} dPsi/dt u_hat, grad phi)``
        for radius rates ``rate`` (c,), with u_hat at its element means."""
        u_mean = self.mesh.cell.means @ u[self.mesh.cell_nodes]
        weight = self._per_cell(self.mesh.epsilon**2 * sc.det * sc.s) * u_mean
        weight *= rate
        return self.mesh.scatter(self.mesh.cell.drift @ weight)

    def _solid_mass(self, radii: np.ndarray) -> float:
        return float(self.spec.c_s * self.mesh.epsilon**2 * np.sum(ball_volume(radii)))

    def _surface_integrals(self, u: np.ndarray, radii: np.ndarray):
        """Per-cell boundary integral of f(u, r), the nodal loads of
        (scale * f, phi_i) and their total, by two-point Gauss on every
        cell's copy of the reference hole ring; ``scale`` is the surface
        Jacobian of the radial map times the epsilon of the weak form."""
        m, ref = self.mesh, self.mesh.cell.mesh
        ends = m.cell_nodes[ref.hole_boundary_facets.T]   # (2, nb, nc): every cell's edge ends
        r_cell = radii.reshape(-1)
        scale = m.epsilon * r_cell / m.cell.params.r0
        # f at the two Gauss points of every edge (2, nb, nc), each of which
        # weighs half the edge, epsilon times its reference length
        f = eval_f(self.spec, np.tensordot(_EDGE_GAUSS.T, u[ends], 1), r_cell)
        contrib = 0.5 * m.epsilon * ref.hole_edge_lengths[:, None] * f
        loads = np.tensordot(_EDGE_GAUSS, contrib * scale, 1)   # the ends' shares
        integral = contrib.sum(axis=(0, 1))
        return (integral, np.bincount(ends.ravel(), loads.ravel(), minlength=m.n_nodes),
                float((scale * integral).sum()))

    # -- time stepping ---------------------------------------------------------

    def step(self, state: MicroState, dt: float) -> MicroState:
        m = self.mesh
        eps = m.epsilon
        t_new = state.t + dt

        # (1) explicit radius update from the surface-averaged rate at the
        # old concentration and old radii
        f_int, loads, flux_total = self._surface_integrals(state.u_hat, state.radii)
        f_avg = f_int / (eps * m.cell.mesh.hole_edge_lengths.sum())
        radii_new = step_radius(self.spec, state.radii, f_avg.reshape(state.radii.shape), dt)
        rate = (radii_new - state.radii) / dt
        still = np.array_equal(radii_new, state.radii)

        # (2) the cell map at the new radii: J, the lumped mass and the system
        # of the pulled-back tensor.  Radii that did not move keep J and so the
        # mass, and a map and system kept at the same radii (and dt) serve
        # again.  A kept system is factored, once, and its factor preconditions
        # every solve with it; a system of moving radii serves once, by CG's
        # default preconditioner
        kept = self._kept
        if not (still and kept and np.array_equal(kept[0], radii_new)):
            kept = None
        sc = kept[2] if kept else self._cell_map(radii_new)
        mass_new = state.mass if still else self._lumped(sc.det)
        if kept and kept[1] == dt:
            system, factor = kept[3:]
        else:
            system = self._system(sc, mass_new / dt)
            factor = Factor(np.float64) if still else None
        self._kept = (radii_new, dt, sc, system, factor) if still else None

        # (3) backward-Euler bulk solve
        b = state.mass * state.u_hat / dt

        source_step = 0.0
        if self.source is not None:
            # every cell's element midpoints, mapped, scaled and shifted by eps k
            pts = (np.repeat(eps * m.cell_index, len(m.cell.mesh.triangles), axis=0)
                   + eps * m.cell.frame.image(sc.radius))
            fp = np.asarray(self.source(t_new, pts), dtype=float)
            if not np.all(np.isfinite(fp)):
                raise NumericalError(f"source produced non-finite values at t={t_new}")
            source_loads = self._lumped(sc.det * fp)
            b += source_loads
            source_step = float(dt * source_loads.sum())

        # the explicit transformation drift (B u, grad phi), which vanishes
        # with the radius rate, and the explicit surface reaction at (old u,
        # new radii) move to the rhs; radii that did not move keep step (1)'s
        if not still:
            b -= self._drift(sc, rate.reshape(-1), state.u_hat)
            _, loads, flux_total = self._surface_integrals(state.u_hat, radii_new)
        b -= loads

        u_new, iterations, factorizations = backward_euler_step(
            system, b, state.u_hat, state.previous, self.cg_tol, "micro", t_new, factor)
        self.cg_iterations += iterations
        self.factorizations += factorizations

        fluid = float(mass_new @ u_new)
        solid = self._solid_mass(radii_new)
        flux_step = dt * flux_total
        defect = abs(fluid - state.fluid_mass + flux_step - source_step)
        radius_flux_gap = abs((solid - state.solid_mass) - flux_step)
        return MicroState(t_new, u_new, radii_new, rate, mass_new, fluid, solid,
                          flux_step, source_step, defect, radius_flux_gap, iterations,
                          state.u_hat)


# ---------------------------------------------------------------------------
# Unfolding comparator
# ---------------------------------------------------------------------------

def cell_pore_means(mesh: MicroMesh, u: np.ndarray) -> np.ndarray:
    """Mean of a nodal field over every cell's *reference* perforation: the
    element means weighted by their reference areas, not by J.  A physical
    pore mean would weight by J; the two agree as epsilon -> 0.  Every cell
    has the reference areas times epsilon^2, and the epsilon^2 cancels."""
    ref = mesh.cell.mesh
    areas = ref.geometry[0]
    return areas @ element_means(ref.triangles, u[mesh.cell_nodes]) / areas.sum()


def unfold_compare(mesh: MicroMesh, state: MicroState, macro_grid, macro_state) -> UnfoldingError:
    """Cell-averaged micro fields against the macro solution at cell centers.

    Errors are scaled L2 norms over the cell lattice, the natural discrete
    form of the averaged two-scale distance.
    """
    eps = mesh.epsilon
    centers = mesh.cell_centers()
    means = cell_pore_means(mesh, state.u_hat)
    u_macro = macro_grid.interpolate(macro_state.u, centers)
    u_err = float(np.sqrt(np.sum(eps**2 * (means - u_macro) ** 2)))
    r_macro = macro_state.r[macro_grid.element_of_point(centers)]
    r_err = float(np.sqrt(np.sum(eps**2 * (state.radii.reshape(-1) - r_macro) ** 2)))
    return UnfoldingError(eps, u_err, r_err)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def micro_snapshot_csv(mesh: MicroMesh, state: MicroState) -> str:
    """One row per node of the fixed reference perforation: x1, x2 (the same
    in every snapshot of a run), u_hat."""
    return csv_table("x1,x2,u_hat", mesh.coordinate_text, state.u_hat)


def cell_series_csv(mesh: MicroMesh, state: MicroState) -> str:
    """One row per cell: its lattice coordinates k1, k2 (the same in every
    cells file of a run), then its radius and radius rate."""
    i, j = mesh.cell_index.T
    return csv_table("k1,k2,r,r_rate", mesh.lattice_text, state.radii[i, j],
                     state.radii_rate[i, j])
