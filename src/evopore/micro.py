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
through the cell's one frame, built on the reference midpoints with the
mesh from the same r0; the profile is affine in the radius, so a step
evaluates no kernel.  A step of moving radii does per-element work only for
its stiffness: the pulled-back tensor has determinant 1, so one scalar b
per element and cell carries it, and the frame writes [b; 1/b - b] at one
radius per cell into a (2 reference element x cell) buffer the simulator
keeps (:meth:`evopore.transform.RadialFrame.tensor_scalars`); one product
with the cell's ``system`` operator gives the upper half of every cell's
system entries.  J is exactly quadratic and the drift
weight J s exactly affine in the shift d = r - r0
(:meth:`evopore.transform.RadialFrame.shift_polynomials`), so the lumped
mass is the cell's mass coefficients applied to (1, d, d^2) of every cell,
and the drift loads are the cell's nodal drift operator applied to every
cell's nodal values U, ``eps^2 q (B0 U + d B1 U)`` for the radius rate q:
per-cell work, with no J or s per element.  Only a source forms J per
element, for its loads, from the same polynomial, and maps its points to
the radius rho + d G; its loads are lumped like the mass, and its integral
is the sum of its loads.  The surface reaction is integrated on the reference
hole ring in every cell, its edges epsilon times the reference lengths.
Each result reaches the global arrays by one scatter through the cell node
map, and the system's CSR pattern is the reference cell's pattern repeated
through that map.  No per-element tensor algebra and no per-element
scatter.  A product's result is C-contiguous with one column per cell, so
the scatter index (:attr:`MicroMesh.cell_nodes`) is stored once, as
``np.intp``, in that entry-major order, and the system's slot map is built
for it: each scatter and assembly reads its data in place.

A step whose radii did not move keeps its system for the next step at the
same radii and dt, and an exact double precision sparse LU factor
of that system (:class:`evopore.fem.Factor`), which preconditions the CG of
every step that reuses it: 1 iteration a step instead of 77 to 96 with CG's
default preconditioner.  So radii frozen at r0, which are inputs (a zero
rate law, every radius at r0), not a stepper mode, assemble once per dt and
factor when CG first applies the factor: never, when every start solves the
system.  A step whose radii moved keeps nothing, as its system serves one
step, and solves by CG's default preconditioner, Jacobi plus an exact solve
on the constant vector, which the zero-flux stiffness annihilates
(:mod:`evopore.sparse`).

Such a step first corrects its extrapolated start on the eps-periodic
functions, those that repeat one set of values, one per periodic dof of
the reference cell, in every cell (:attr:`MicroMesh.periodic_dof`): the
Galerkin projection of the start's error onto them.  Their system ``R A
R^T`` needs no product with the micro system: the cell's ``system``
operator applied to the cells' scalars summed over the cells, assembled
on the reference mesh's periodic pattern
(:attr:`evopore.unitcell.PeriodicMesh.periodic`, the one the cell problems
are solved on), plus the lumped mass summed there.  That system moves
by O(dt) a step, so CG solves it preconditioned by one exact factor
(:class:`evopore.fem.Factor`), the banded Cholesky of the reference cell's
periodic pattern (:meth:`evopore.fem.StiffnessPattern.factorize`), that
the simulator keeps across steps and rebuilds after a solve that applies
it more than :data:`evopore.fem.REFACTOR_ITERATIONS` times.  On the
default cell's 671 unknowns the canonical study's coarse solves take about
5 iterations a step, where Jacobi CG took 48 to 69, with 11 or 12
factorizations in its 100 steps at each level, each about 1.0 ms inside a
step (1.9 ms for the sparse LU it replaced) and a band of 68 x 671 values
(0.37 MB, 29,094 of them nonzero), and about 55 us a solve, as the LU's
(one thread, medians over the study's 34 factorizations and 1,546
solves).  A fresh factor every step would take about 0.6 ms, half of the
1.2 ms of the Jacobi CG it replaces (56 iterations at 1/eps = 4), and more
than the kept factor's few iterations.  The simulator counts them as
``coarse_factorizations``, apart from the kept systems' ``factorizations``.
The start takes the correction only when it removes more error energy than
Jacobi's estimate of the whole start's, D read from the system's diagonal
slots; otherwise it stays, bit for bit.
With spatially constant fields, as in the canonical study, the solution is
eps-periodic and the corrected start solves the step in 0 iterations; a
cosine u0 of amplitude 0.3 (ROADMAP.md's gradient scenario) declines every
correction.

The unfolding comparator turns a micro state into per-cell pore averages
and measures their distance to a macro solution at the cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .fem import (Factor, StiffnessPattern, backward_euler_step, csv_table, element_means,
                  extrapolated_start, xy_text)
from .kinetics import KineticsSpec, check_initial_state, eval_f, step_radius
from .sparse import solve_cg
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
    def periodic_dof(self) -> np.ndarray:
        """The periodic dof (:attr:`PeriodicMesh.dof_map`) of every node's
        reference node (n_nodes,), ``np.intp``: R, which sums nodal values
        onto the dofs of the eps-periodic functions, and whose transpose
        spreads such a function to the nodes by a gather.  A node shared by
        neighbouring cells is a periodic pair of the reference cell, so every
        cell gives it the same dof."""
        dof = np.empty(self.n_nodes, dtype=np.intp)
        dof[self.node_map] = self.cell.mesh.dof_map[0]
        return dof

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
        self._pattern = StiffnessPattern(mesh.node_map, mesh.n_nodes, mesh.cell.mesh.node_entries,
                                         entry_major=True)
        # (radii, dt, system, factor) of a step whose radii did not move
        self._kept = None
        # the exact factor of the eps-periodic start's system, kept from step
        # to step: that system moves by O(dt) a step
        self._coarse = Factor(np.float64, mesh.cell.mesh.periodic.factorize)
        # [D b; D (1/b - b)] (2m, c) of the latest assembly, written in place
        self._scalars = np.empty((2 * len(mesh.cell.mesh.triangles), mesh.n_cells))
        self.cg_iterations = 0    # CG iterations of the solves
        self.factorizations = 0   # sparse LU factorizations of the kept systems
        self.coarse_iterations = 0   # CG iterations of the eps-periodic start corrections
        self.coarse_factorizations = 0   # factorizations of their systems
        self.periodic_starts = 0     # steps whose CG started from a corrected start

    # -- construction --------------------------------------------------------

    def init(self, u0_field, r0_field) -> MicroState:
        """State at t = 0: u0 at the nodes, r0 at the cell centers."""
        m = self.mesh
        u = np.asarray(u0_field(m.vertices), dtype=float)
        radii = np.asarray(r0_field(m.cell_centers()), dtype=float).reshape(
            m.n_cells_side, m.n_cells_side)
        check_initial_state(self.spec, u, radii)
        mass = self._mass(radii)
        state = MicroState(0.0, u, radii, np.zeros_like(radii), mass, 0.0, 0.0)
        state.fluid_mass = float(mass @ u)
        state.solid_mass = self._solid_mass(radii)
        return state

    def _lumped(self, weight: np.ndarray) -> np.ndarray:
        """Row-sum lumped mass (n,) of the element weight ``weight`` (m, c)."""
        m = self.mesh
        return m.epsilon**2 * m.scatter(m.cell.mass @ weight)

    def _shifts(self, radii: np.ndarray) -> np.ndarray:
        """``(1, d, d^2)`` (3, c) of every cell's shift d = r - r0."""
        d = radii.reshape(-1) - self.mesh.cell.params.r0
        return np.stack([np.ones_like(d), d, d * d])

    def _mass(self, radii: np.ndarray) -> np.ndarray:
        """Row-sum lumped mass (n,) of J at one radius per cell, from the
        cell's mass coefficients: no J per element."""
        m = self.mesh
        return m.epsilon**2 * m.scatter(m.cell.mass_coefficients @ self._shifts(radii))

    def _system(self, radii: np.ndarray, diagonal: np.ndarray):
        """The implicit system: the pulled-back stiffness at one radius per
        cell plus ``diagonal``.  The frame writes its scalars [b; 1/b - b]
        (:meth:`evopore.transform.RadialFrame.tensor_scalars`) into the array
        the simulator keeps, so that no step maps fresh pages for them, and
        they are scaled by D there."""
        x = self.mesh.cell.frame.tensor_scalars(radii.reshape(-1, 1), self._scalars)
        x *= self.diffusion
        return self._pattern.assemble(self.mesh.cell.system @ x, diagonal)

    def _periodic_system(self, diagonal: np.ndarray):
        """``R A R^T`` for the system A that :meth:`_system` last assembled
        with ``diagonal``, R the sum onto the periodic dofs
        (:attr:`MicroMesh.periodic_dof`): the system of the eps-periodic
        functions.  Its stiffness is the cell's ``system`` applied to the
        scalars summed over the cells, merged on the periodic dofs
        (:attr:`PeriodicMesh.periodic`, which also assembles the cell
        problems), and its diagonal the sum of ``diagonal`` there."""
        m = self.mesh
        return m.cell.mesh.periodic.assemble(m.cell.system @ self._scalars.sum(axis=1),
                                             np.bincount(m.periodic_dof, diagonal))

    def _periodic_start(self, system, b: np.ndarray, x0: np.ndarray,
                        diagonal: np.ndarray) -> np.ndarray:
        """``x0`` corrected by the Galerkin projection of its error onto the
        eps-periodic functions, for the ``system`` that :meth:`_system` just
        assembled with ``diagonal``; or ``x0`` itself.

        The solve y of ``R A R^T y = R r0`` (:meth:`_periodic_system`), by
        CG preconditioned by the kept coarse factor, removes the error
        energy ``y^T R r0``.  The start takes it only when that exceeds
        ``r0^T D^-1 r0``, Jacobi's estimate of the whole start's, so
        a start whose error is not mostly periodic stays as it is, bit for
        bit; so does a start within the tolerance, which needs nothing.
        """
        r = b - system @ x0
        if np.linalg.norm(r) <= self.cg_tol * np.linalg.norm(b):
            return x0
        dof = self.mesh.periodic_dof
        r_coarse = np.bincount(dof, r)
        coarse = self._periodic_system(diagonal)
        y, report = solve_cg(coarse, r_coarse, tol=self.cg_tol,
                             precondition=self._coarse.preconditioner(coarse))
        self.coarse_iterations += report.iterations
        self.coarse_factorizations += self._coarse.factored
        # D from the system's diagonal slots: the entries of system.diagonal(),
        # in a third of its time
        jacobi = r @ (r / system.data[self._pattern.slots().diagonal])
        if not (report.converged and y @ r_coarse > jacobi):
            return x0
        self.periodic_starts += 1
        return x0 + y[dof]

    def _drift(self, radii: np.ndarray, rate: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Nodal loads of the drift ``(J Psi^{-1} dPsi/dt u_hat, grad phi)``
        at one radius per cell, for radius rates ``rate`` (c,), with u_hat
        at its element means: the cell's drift operator applied to every
        cell's nodal values, ``eps^2 q (B0 U + d B1 U)``."""
        m = self.mesh
        n_ref = m.cell.mesh.n_nodes
        stacked = m.cell.drift @ u[m.cell_nodes]   # [B0 U; B1 U]
        loads = stacked[:n_ref]
        loads += self._shifts(radii)[1] * stacked[n_ref:]
        loads *= m.epsilon**2 * rate
        return m.scatter(loads)

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

        # (2) the lumped mass of J at the new radii and the system of the
        # pulled-back tensor.  Radii that did not move keep the mass, and a
        # system kept at the same radii and dt serves again.  A kept system is
        # factored, once, and its factor preconditions every solve with it; a
        # system of moving radii serves once, by CG's default preconditioner
        kept = self._kept
        mass_new = state.mass if still else self._mass(radii_new)
        if still and kept and kept[1] == dt and np.array_equal(kept[0], radii_new):
            system, factor = kept[2:]
        else:
            diagonal = mass_new / dt
            system = self._system(radii_new, diagonal)
            factor = Factor(np.float64) if still else None
        self._kept = (radii_new, dt, system, factor) if still else None

        # (3) backward-Euler bulk solve
        b = state.mass * state.u_hat / dt

        source_step = 0.0
        if self.source is not None:
            # every cell's element midpoints (element, cell), mapped to the
            # radius R = rho + d G, scaled and shifted by eps k, and J there,
            # both from the frame's polynomials in d (G is the constant
            # coefficient of J s)
            frame = m.cell.frame
            det, drift = frame.shift_polynomials()
            shifts = self._shifts(radii_new)
            radius = frame.distance[:, None] + drift[:, :1] * shifts[1]
            pts = eps * m.cell_index + eps * frame.image(radius)
            fp = np.asarray(self.source(t_new, pts.reshape(-1, 2)),
                            dtype=float).reshape(radius.shape)
            if not np.all(np.isfinite(fp)):
                raise NumericalError(f"source produced non-finite values at t={t_new}")
            source_loads = self._lumped((det @ shifts) * fp)
            b += source_loads
            source_step = float(dt * source_loads.sum())

        # the explicit transformation drift (B u, grad phi), which vanishes
        # with the radius rate, and the explicit surface reaction at (old u,
        # new radii) move to the rhs; radii that did not move keep step (1)'s
        if not still:
            b -= self._drift(radii_new, rate.reshape(-1), state.u_hat)
            _, loads, flux_total = self._surface_integrals(state.u_hat, radii_new)
        b -= loads

        # CG starts from the extrapolated field; on moving radii, whose
        # system (2) just assembled with ``diagonal``, corrected on the
        # eps-periodic functions first when that pays
        x0 = extrapolated_start(state.u_hat, state.previous)
        if factor is None:
            try:
                x0 = self._periodic_start(system, b, x0, diagonal)
            except RuntimeError as exc:   # from the coarse factor's first application
                raise NumericalError(
                    f"micro coarse factorization failed at t={t_new}: {exc}") from None
        u_new, iterations, factorizations = backward_euler_step(
            system, b, x0, self.cg_tol, "micro", t_new, factor)
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
