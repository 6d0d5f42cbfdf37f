"""Macroscopic limit system on the unit square.

A porosity-weighted parabolic equation for the concentration, coupled
pointwise to an ODE for the local obstacle radius.  Discretization: P1 nodes
for the concentration on a structured triangulation, piecewise-constant
radius per element, operator splitting with the radius explicit and the
diffusion backward-Euler implicit.  The porosity-weighted mass matrix is
lumped, which makes the discrete mass identity

    (theta u, 1) + c_s (V(r), 1)  changes by  dt (theta f_p, 1)

exact up to the linear-solver residual at every step.  A state carries the
ball volume of its radii, from which its porosity is derived, and the lumped
mass of that porosity, which the next step reads as its old volume and mass,
and the u array of the state before it, from which the next step
extrapolates its CG start.

The grid's squares are split along one diagonal, so its elements have two
shapes.  The tabulated tensor is symmetric, so an element matrix is A11,
A12 and A22 times three fixed matrices of its shape; :class:`MacroGrid`
builds those once, with the element midpoints, and a step's element
matrices are one batched product of the looked-up components with them.
The grid also holds its lumping operator, the node-element incidence as a
sparse matrix, as the reference cell holds its ``mass``: every lumped
quantity of the stepper (the porosity mass, the source loads and the solid
exchange loads) is one product with it (:meth:`MacroGrid.lump`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .fem import (UPPER3, Factor, StiffnessPattern, backward_euler_step, centroids,
                  csv_table, element_means, element_stiffness, extrapolated_start,
                  triangle_geometry, xy_text)
from .kinetics import KineticsSpec, check_initial_state, eval_f, step_radius
from .unitcell import EffectiveTensorTable, ball_volume


# The symmetric tensors whose coefficients are A11, A12 and A22.
_UNIT_TENSORS = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                          [[0.0, 0.0], [0.0, 1.0]]])


@dataclass(frozen=True)
class MacroGrid:
    """Uniform triangulation of [0,1]^2: n x n squares, each split along the
    main diagonal (the split direction is invariant under the x/y swap).

    Element 2 k is the lower and element 2 k + 1 the upper triangle of square
    k, so the grid has two element shapes.  ``operator`` (2 shapes, 3, 6)
    holds each shape's stiffness operator: row c is the upper half
    (:data:`evopore.fem.UPPER3`), row by row, of the element matrix
    ``|T| G E_c G^T`` of the symmetric tensor E_c whose coefficient is
    component c of (A11, A12, A22), taken from the first triangle of the
    shape.  ``centers`` holds the element centroids, where the radius, the
    source and every snapshot's ``x1,x2`` live.
    """

    n: int
    nodes: np.ndarray
    elements: np.ndarray
    areas: np.ndarray = field(repr=False)
    grads: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    operator: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, n: int) -> "MacroGrid":
        if n < 2:
            raise ValueError("macro grid needs n >= 2")
        xs = np.linspace(0.0, 1.0, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        nodes = np.stack([gx.ravel(), gy.ravel()], axis=1)

        # square k = ix n + iy has the corners a = (ix, iy), b = (ix + 1, iy),
        # c = (ix + 1, iy + 1) and d = (ix, iy + 1); node (ix, iy) is ix (n + 1) + iy
        ix, iy = np.divmod(np.arange(n * n), n)
        a = ix * (n + 1) + iy
        b = a + (n + 1)
        # the lower triangle (below the diagonal), then the upper one
        elems = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(2 * n * n, 3)
        areas, grads = triangle_geometry(nodes, elems)
        shapes = [element_stiffness(areas[:2], grads[:2], np.broadcast_to(e, (2, 2, 2)))
                  for e in _UNIT_TENSORS]
        operator = np.stack([k[:, UPPER3[0], UPPER3[1]] for k in shapes], axis=1)
        centers = centroids(nodes, elems)
        for array in (centers, operator):
            array.setflags(write=False)
        return cls(n, nodes, elems, areas, grads, centers, operator)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def coordinate_text(self) -> np.ndarray:
        """The ``x1,x2,`` text block of the element centroids
        (:func:`evopore.fem.xy_text`), formatted on first use: the first
        snapshot of a run builds it, and every later one reuses it."""
        return xy_text(self.centers)

    @cached_property
    def lumping(self) -> sp.csr_matrix:
        """The node-element incidence (n_nodes, n_elements), every entry 1.0:
        the transpose of the element-vertex matrix, built on first use.  Each
        row lists its elements in increasing order."""
        m = self.n_elements
        incidence = sp.csr_matrix((np.ones(3 * m), self.elements.ravel(),
                                   np.arange(0, 3 * m + 1, 3)), shape=(m, self.n_nodes))
        return incidence.T.tocsr()

    def lump(self, weight: np.ndarray) -> np.ndarray:
        """Row-sum lumped mass (n_nodes,) of the element weight ``weight``
        (nt,): each node sums |T| weight / 3 over its elements, in element
        order, so the same bits as one ``np.bincount`` over the vertices."""
        return self.lumping @ (weight * self.areas / 3.0)

    def element_matrices(self, components: np.ndarray) -> np.ndarray:
        """Upper halves (nt, 6) of the element stiffness matrices, row by
        row (:data:`evopore.fem.UPPER3`), of the symmetric tensors with
        per-element components ``components`` (nt, 3) = (A11, A12, A22): one
        batched product with :attr:`operator`."""
        n2 = self.n * self.n
        k_el = np.empty((n2, 2, 6))
        # (shape, square, component) @ (shape, component, entry), written in element order
        np.matmul(components.reshape(n2, 2, 3).transpose(1, 0, 2), self.operator,
                  out=k_el.transpose(1, 0, 2))
        return k_el.reshape(2 * n2, 6)

    def element_of_point(self, pts: np.ndarray) -> np.ndarray:
        """Element index containing each point (points on the diagonal and on
        upper-face edges resolve deterministically toward the lower element)."""
        pts = np.atleast_2d(pts)
        ix = np.minimum((pts[:, 0] * self.n).astype(int), self.n - 1)
        iy = np.minimum((pts[:, 1] * self.n).astype(int), self.n - 1)
        s = pts[:, 0] * self.n - ix
        t = pts[:, 1] * self.n - iy
        lower = s >= t
        return 2 * (ix * self.n + iy) + np.where(lower, 0, 1)

    def interpolate(self, nodal: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """P1 interpolation of a nodal field."""
        pts = np.atleast_2d(pts)
        el = self.element_of_point(pts)
        tri = self.elements[el]
        p0 = self.nodes[tri[:, 0]]
        g = self.grads[el]
        vals = nodal[tri]
        # value at p0 plus gradient times offset; exact for P1
        grad_field = np.einsum("ti,tia->ta", vals, g)
        return vals[:, 0] + np.einsum("ta,ta->t", grad_field, pts - p0)


@dataclass
class MacroState:
    t: float
    u: np.ndarray
    r: np.ndarray
    volume: np.ndarray         # ball volume of r, which the next step reads as its old one
    mass: np.ndarray           # nodal lumped porosity-weighted mass at theta
    fluid_mass: float
    solid_mass: float
    source_step: float = 0.0
    defect: float = 0.0
    cg_iterations: int = 0
    previous: np.ndarray | None = None   # the u array of the state one step earlier

    @property
    def theta(self) -> np.ndarray:
        """The porosity 1 - V(r), the bits of :func:`evopore.unitcell.porosity`."""
        return 1.0 - self.volume


class MassRecord(NamedTuple):
    """The scalars of a step's state that :func:`mass_balance` and
    :func:`ledger_csv` read, without its fields.  Both steppers' states
    carry them: ``defect`` is the step's gap in its own discrete mass
    identity (the macro fluid + solid balance, the micro fluid balance
    against its surface flux) and ``source_step`` its source integral."""

    t: float
    fluid_mass: float
    solid_mass: float
    source_step: float
    defect: float

    @classmethod
    def of(cls, state) -> "MassRecord":
        """The record of a :class:`MacroState` or a ``MicroState``."""
        return cls(state.t, state.fluid_mass, state.solid_mass, state.source_step, state.defect)


class MacroSolver:
    """Time stepper for the coupled concentration/radius system."""

    def __init__(self, grid: MacroGrid, table: EffectiveTensorTable, spec: KineticsSpec,
                 source=None, diffusion: float = 1.0, cg_tol: float = 1e-10):
        self.grid = grid
        self.table = table
        self.spec = spec
        self.source = source
        self.diffusion = diffusion
        self.cg_tol = cg_tol
        self._pattern = StiffnessPattern(grid.elements, grid.n_nodes)
        self._factor = Factor(np.float32)
        self.cg_iterations = 0    # CG iterations of the solves
        self.factorizations = 0   # sparse LU factorizations of the systems

    # -- state construction -------------------------------------------------

    def init(self, u0_field, r0_field) -> MacroState:
        """State at t = 0 from nodal u0 and element-midpoint r0."""
        g = self.grid
        u = np.asarray(u0_field(g.nodes), dtype=float)
        r = np.asarray(r0_field(g.centers), dtype=float)
        if u.shape != (g.n_nodes,) or r.shape != (g.n_elements,):
            raise ValueError("initial fields have wrong shape")
        check_initial_state(self.spec, u, r)
        volume = ball_volume(r)
        mass = g.lump(1.0 - volume)
        return MacroState(0.0, u, r, volume, mass, float(mass @ u), self._solid_mass(volume))

    def _solid_mass(self, volume: np.ndarray) -> float:
        """c_s times the solid volume of the element ball volumes ``volume``."""
        return float(self.spec.c_s * np.sum(self.grid.areas * volume))

    # -- time stepping -------------------------------------------------------

    def step(self, state: MacroState, dt: float) -> MacroState:
        g = self.grid
        t_new = state.t + dt

        # (1) explicit radius update from the element-mean concentration
        u_bar = element_means(g.elements, state.u)
        rates = eval_f(self.spec, u_bar, state.r)
        r_new = step_radius(self.spec, state.r, rates, dt)
        volume = ball_volume(r_new)
        theta_new = 1.0 - volume

        # (2) implicit porosity-weighted diffusion with tensor lookup
        m_new = g.lump(theta_new)
        b = state.mass * state.u / dt

        source_step = 0.0
        if self.source is not None:
            fp = np.asarray(self.source(t_new, g.centers), dtype=float)
            if not np.all(np.isfinite(fp)):
                raise NumericalError(f"source produced non-finite values at t={t_new}")
            source_loads = g.lump(theta_new * fp)
            b += source_loads
            source_step = float(dt * source_loads.sum())

        dv = self.spec.c_s * (volume - state.volume) / dt
        b -= g.lump(dv)

        components = self.table.components(r_new)
        components *= self.diffusion
        k_el = g.element_matrices(components)
        system = self._pattern.assemble(k_el, diagonal=m_new / dt)
        u_new, iterations, factorizations = backward_euler_step(
            system, b, extrapolated_start(state.u, state.previous), self.cg_tol, "macro", t_new,
            self._factor)
        self.cg_iterations += iterations
        self.factorizations += factorizations

        fluid = float(m_new @ u_new)
        solid = self._solid_mass(volume)
        defect = abs((fluid + solid) - (state.fluid_mass + state.solid_mass) - source_step)
        return MacroState(t_new, u_new, r_new, volume, m_new, fluid, solid,
                          source_step, defect, iterations, state.u)


def mass_balance(states: list[MassRecord]) -> float:
    """Largest defect of the discrete conservation identity along a sequence
    of records, or of states, which carry the same fields.

    Uses the per-step records, so it is exact regardless of snapshot cadence
    as long as consecutive stored states are consecutive steps.
    """
    if len(states) < 2:
        raise ValueError("mass balance needs at least two states")
    # np.max, not max: a NaN defect reads as the largest
    return float(np.max([s.defect for s in states[1:]]))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def snapshot_csv(grid: MacroGrid, state: MacroState) -> str:
    """One row per element: its centroid x1, x2 (the same in every snapshot
    of a run), then u, r and theta there."""
    u_el = element_means(grid.elements, state.u)
    return csv_table("x1,x2,u,r,theta", grid.coordinate_text, u_el, state.r, state.theta)


def ledger_csv(states: list[MassRecord]) -> str:
    """The mass ledger of either stepper: one row per record (or state), the
    initial one first, with the total, the source integral accumulated to
    each row and the step's defect."""
    source_integral = list(accumulate((s.source_step for s in states), initial=0.0))[1:]
    return csv_table("t,total_mass,solid_mass,fluid_mass,source_integral,defect",
                     [s.t for s in states], [s.fluid_mass + s.solid_mass for s in states],
                     [s.solid_mass for s in states], [s.fluid_mass for s in states],
                     source_integral, [s.defect for s in states])
