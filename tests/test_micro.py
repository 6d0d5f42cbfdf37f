import copy
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from _oracles import (cell_of_element, hole_rings, periodic_restriction, physical_heat_step,
                      pulled_back, radial_image, ring_edge_lengths, row_unique_micro_mesh,
                      surface_integrals, tiled_triangles)

from evopore import fem
from evopore.config import CG_TOL_FLOOR, DEFAULT_CONFIG, parse_config
from evopore.errors import NumericalError
from evopore.fem import centroids, element_means, element_stiffness, triangle_geometry, xy_text
from evopore.kinetics import eval_f, step_radius
from evopore.macro import MacroGrid, MacroSolver, snapshot_csv
from evopore.micro import (
    MicroSimulator,
    build_micro_mesh,
    cell_pore_means,
    cells_per_side,
    cell_series_csv,
    micro_snapshot_csv,
    unfold_compare,
)
from evopore.registry import build_field, build_source
from evopore.sparse import solve_cg
from evopore.unitcell import ReferenceCell, build_reference_mesh, porosity
from evopore.validate import patterned_radii


def constant_field(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


# an initial field whose error after a step is mostly not eps-periodic: the
# u0 of the gradient scenario (ROADMAP item 5)
GRADIENT_U0 = build_field("cosine_product", {"offset": 0.6, "amplitude": 0.3})


@pytest.fixture(scope="module")
def micro_mesh_half(reference_cell):
    return build_micro_mesh(reference_cell, 0.5)


@pytest.fixture(scope="module")
def no_reaction(spec):
    """The rate law that is zero everywhere: radii at r0 then never move, and
    the run is a plain perforated-domain heat problem."""
    return replace(spec, rate_slope=0.0)


def assert_same_state(got, want):
    for name in ("t", "u_hat", "radii", "radii_rate", "mass", "fluid_mass", "solid_mass",
                 "flux_step", "source_step", "defect", "radius_flux_gap", "cg_iterations",
                 "previous"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def count_assemblies(sim):
    """The number of system assemblies ``sim`` has made, as a callable."""
    calls = []
    assemble = sim._system
    sim._system = lambda *a, **k: calls.append(1) or assemble(*a, **k)
    return lambda: len(calls)


def test_mesh_counts(reference_cell, micro_mesh_half):
    m = micro_mesh_half
    assert m.n_cells == 4
    assert hole_rings(m).shape[0] == 4
    n_ref = reference_cell.mesh.n_nodes
    trace = np.sum(np.abs(reference_cell.mesh.vertices[:, 0]) < 1e-12)
    # interior cross: two seam lines of 2*trace-1 nodes each appear twice,
    # their common center four times
    assert m.n_nodes == 4 * n_ref - (4 * trace - 1)
    assert m.node_map.shape == (4, n_ref)
    assert len(tiled_triangles(m)) == 4 * len(reference_cell.mesh.triangles)


def test_mesh_is_conforming(micro_mesh_half):
    # every edge is shared by two triangles except on the outer square
    # boundary and the hole rings
    m = micro_mesh_half
    edges = {}
    for tri in tiled_triangles(m):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edges[key] = edges.get(key, 0) + 1
    counts = np.array(list(edges.values()))
    assert set(counts.tolist()) == {1, 2}
    gamma = {tuple(sorted(e)) for cell in hole_rings(m) for e in cell.tolist()}
    v = m.vertices
    for (a, b), c in edges.items():
        if c == 1:
            coords = v[[a, b]]
            on_outer = np.all((np.abs(coords) < 1e-12) | (np.abs(coords - 1.0) < 1e-12),
                              axis=0).any()
            assert on_outer or (a, b) in gamma


def test_mesh_pore_area_preserved(reference_cell, micro_mesh_half):
    ref = reference_cell.mesh
    ref_area = triangle_geometry(ref.vertices, ref.triangles)[0].sum()
    m = micro_mesh_half
    areas = triangle_geometry(m.vertices, tiled_triangles(m))[0]
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(ref_area, abs=1e-12)


@pytest.mark.parametrize("n_boundary, target_h, inv, n_nodes", [
    (64, 0.05, 1, 704), (64, 0.05, 2, 2749), (64, 0.05, 4, 10865), (64, 0.05, 8, 43201),
    (128, 0.025, 2, 10109)])
def test_mesh_merge_matches_the_row_unique_oracle(params, n_boundary, target_h, inv, n_nodes):
    reference = ReferenceCell(params, n_boundary, target_h)
    got = build_micro_mesh(reference, 1.0 / inv)
    want = row_unique_micro_mesh(reference, 1.0 / inv)
    for name in ("vertices", "node_map", "cell_nodes"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(hole_rings(got), hole_rings(want))
    assert got.n_nodes == n_nodes


def test_mesh_merge_counts_unpartnered_face_nodes(reference_cell):
    v = reference_cell.mesh.vertices.copy()
    right = np.flatnonzero((v[:, 0] == 1.0) & (v[:, 1] > 0.0) & (v[:, 1] < 1.0))
    v[right[0], 1] += 1e-9
    moved = copy.copy(reference_cell)
    moved.mesh = replace(reference_cell.mesh, vertices=v)
    # in each of the 12 cells with a neighbour to the right, the moved node
    # misses its partner on that neighbour's left face: 12 nodes too many
    with pytest.raises(NumericalError, match="10877 nodes, expected 10865"):
        build_micro_mesh(moved, 0.25)


def test_a_mesh_and_a_map_of_different_r0_cannot_be_paired(params, spec):
    """The stepper takes its map from its mesh's reference cell, whose hole
    is meshed at that map's own r0: the 0.2 hole comes only with a map of
    r0 = 0.2, and a map given beside a micro mesh is a TypeError.  A 0.2
    mesh stepped with the map of r0 = 0.25 used to run without a word: 5
    steps from u = 0.9 at r = 0.25 ended with a radius-flux gap of 6.2e-4,
    against 4.6e-6 on either matched cell."""
    assert params.r0 == 0.25
    mesh = build_reference_mesh(0.2, 64, 0.05)
    cell = ReferenceCell(replace(params, r0=0.2))
    assert cell.mesh.hole_radius == cell.frame.params.r0 == 0.2
    assert np.array_equal(cell.mesh.vertices, mesh.vertices)
    micro = build_micro_mesh(cell, 0.5)
    with pytest.raises(TypeError):
        MicroSimulator(micro, params, spec)
    sim = MicroSimulator(micro, spec)
    state = sim.init(constant_field(0.9), constant_field(0.25))
    for _ in range(5):
        state = sim.step(state, 0.005)
    assert state.radius_flux_gap < 1e-5


def test_mesh_rejects_bad_epsilon(reference_cell):
    with pytest.raises(ValueError):
        build_micro_mesh(reference_cell, 1.0 / 3.0)


@pytest.mark.parametrize("epsilon", [0.0, -0.0, float("nan")])
def test_cells_per_side_rejects_an_epsilon_without_an_inverse(epsilon):
    """An epsilon of zero, or not a number, is a ValueError naming the
    allowed inverses, not a ZeroDivisionError."""
    with pytest.raises(ValueError, match="1/epsilon must be one of"):
        cells_per_side(epsilon)


def test_simulator_rejects_a_kinetics_box_the_map_cannot_follow(micro_mesh_half, spec):
    """Radii may move only inside the cell map's box: a kinetics box that
    reaches past it is rejected when the stepper is built, naming both
    boxes, not at the step whose radius first leaves the map's box."""
    with pytest.raises(ValueError, match=r"\[0\.15, 0\.45\].*\[0\.15, 0\.35\]"):
        MicroSimulator(micro_mesh_half, replace(spec, r_max=0.45))
    with pytest.raises(ValueError, match=r"\[0\.1, 0\.35\].*\[0\.15, 0\.35\]"):
        MicroSimulator(micro_mesh_half, replace(spec, r_min=0.1))
    MicroSimulator(micro_mesh_half, replace(spec, r_min=0.2))


def test_gamma_perimeter_scales(reference_cell, micro_mesh_half):
    ids = reference_cell.mesh.hole_boundary_facets
    e = reference_cell.mesh.vertices[ids[:, 1]] - reference_cell.mesh.vertices[ids[:, 0]]
    ref_per = np.sum(np.hypot(e[:, 0], e[:, 1]))
    for c in range(4):
        assert ring_edge_lengths(micro_mesh_half)[c].sum() == pytest.approx(0.5 * ref_per, rel=1e-12)


def test_pinned_mode_matches_plain_heat_solver(micro_mesh_half, params, no_reaction):
    m = micro_mesh_half
    sim = MicroSimulator(m, no_reaction, cg_tol=1e-12)
    rng = np.random.default_rng(0)
    u0 = rng.uniform(0.2, 0.8, m.n_nodes)
    state = sim.init(lambda x: u0, constant_field(params.r0))
    out = sim.step(state, 0.01)

    # reference: plain perforated-domain heat step.  Every cell is a scaled
    # translate of the reference cell, so its element matrices are the
    # reference cell's own, by batched matmul, and its lumped mass is eps^2
    # times the reference cell's.  Every entry is summed in the micro
    # assembly's order: within a cell element by element, row by row, then
    # over the cells entry by entry of the cell's sparsity (node by node for
    # the lumped mass), cells in order within one, the lumped mass on the
    # diagonal last.  Radii that do not move keep their system and make an
    # exact float64 factor of it, so the step's CG is preconditioned by the
    # factor of this same system
    dt = 0.01
    ref = m.cell.mesh
    n_ref, n = ref.n_nodes, m.n_nodes
    ref_areas, ref_grads = triangle_geometry(ref.vertices, ref.triangles)
    eye = np.broadcast_to(np.eye(2), (len(ref.triangles), 2, 2)).copy()
    k_ref = ref_grads @ (eye @ ref_grads.transpose(0, 2, 1))
    k_ref *= ref_areas[:, None, None]
    idx = np.arange(n_ref)
    rows = np.concatenate([np.repeat(ref.triangles, 3, axis=1).ravel(), idx])
    cols = np.concatenate([np.tile(ref.triangles, (1, 3)).ravel(), idx])
    local, entry = np.unique(rows * n_ref + cols, return_inverse=True)
    cell = np.zeros(len(local))
    np.add.at(cell, entry[:k_ref.size], k_ref.ravel())
    cell_lum = np.zeros(n_ref)
    np.add.at(cell_lum, ref.triangles, (ref_areas / 3.0)[:, None] * np.ones((1, 3)))

    nodes = m.node_map
    keys, slot = np.unique(nodes[:, local // n_ref] * n + nodes[:, local % n_ref],
                           return_inverse=True)
    data = np.zeros(len(keys))
    np.add.at(data, slot.T.ravel(), np.repeat(cell, m.n_cells))
    lum = np.zeros(n)
    np.add.at(lum, nodes.T.ravel(), np.repeat(cell_lum, m.n_cells))
    lum *= m.epsilon**2
    data[np.searchsorted(keys, np.arange(n) * (n + 1))] += lum / dt
    system = sp.csr_matrix((data, (keys // n, keys % n)), shape=(n, n))
    u_ref, _ = solve_cg(system, lum * u0 / dt, tol=1e-12, x0=u0,
                        precondition=fem.Factor(np.float64).preconditioner(system))
    assert np.array_equal(out.u_hat, u_ref)
    assert np.array_equal(out.radii, state.radii)


def test_pinned_source_at_physical_points(micro_mesh_half, params, no_reaction):
    """A run at r0 without reaction evaluates the source at the physical
    element centroids, element by element and within one cell by cell, not
    at the in-cell reference coordinates every cell shares."""
    m = micro_mesh_half
    f = build_source("decaying_cosine", {"amplitude": 2.0, "rate": 0.5})
    rng = np.random.default_rng(3)
    u0 = rng.uniform(0.2, 0.8, m.n_nodes)
    physical = m.vertices[tiled_triangles(m)].mean(axis=1)   # cell by cell
    physical = physical.reshape(m.n_cells, -1, 2).transpose(1, 0, 2).reshape(-1, 2)
    dt = 0.01

    def run(source):
        sim = MicroSimulator(m, no_reaction, source=source, cg_tol=1e-12)
        return sim.step(sim.init(lambda x: u0, constant_field(params.r0)), dt)

    out = run(f)
    want = run(lambda t, x: f(t, physical))
    assert np.allclose(out.u_hat, want.u_hat, rtol=1e-12, atol=1e-14)
    assert abs(out.source_step - want.source_step) <= 1e-15
    # the reference-point source differs visibly, so the check above has teeth
    mids = centroids(m.cell.mesh.vertices, m.cell.mesh.triangles)
    at_reference = run(lambda t, x: f(t, np.repeat(mids, m.n_cells, axis=0)))
    assert np.abs(at_reference.u_hat - out.u_hat).max() > 1e-3


@pytest.mark.parametrize("inv", (2, 4))
def test_source_step_is_the_source_integral(reference_cell, params, spec, inv):
    """With growing radii and a source, a step books dt times the integral
    of J f over the micro elements (areas from their own scaled vertices, J
    from the inverse-Jacobian oracle, f at the mapped physical midpoints),
    and its ledger defect stays at rounding."""
    m = build_micro_mesh(reference_cell, 1.0 / inv)

    def f(t, x):
        return (1.0 + t) * (1.0 + np.asarray(x)[:, 0] ** 2 + 0.5 * np.asarray(x)[:, 1])

    sim = MicroSimulator(m, spec, source=f, cg_tol=1e-12)
    dt = 0.01
    out = sim.step(sim.init(constant_field(0.9), constant_field(0.2)), dt)
    assert np.all(out.radii > 0.2)

    tri, el = tiled_triangles(m), cell_of_element(m)
    in_cell = np.tile(centroids(m.cell.mesh.vertices, m.cell.mesh.triangles), (m.n_cells, 1))
    r_el = out.radii.reshape(-1)[el]
    det = pulled_back(params, in_cell, r_el)[0]
    points = m.epsilon * (m.cell_index[el] + radial_image(params, in_cell, r_el)[0])
    want = dt * np.sum(triangle_geometry(m.vertices, tri)[0] * det * f(out.t, points))
    assert out.source_step == pytest.approx(want, rel=1e-12, abs=0.0)
    assert out.source_step > 0.005 and out.defect < 1e-12


def test_pulled_back_step_converges_to_the_physical_mesh_step(params, spec):
    """One implicit step (K + M / dt) u = M g / dt of the pulled-back system
    on the reference perforation, at 1/eps = 2, dt 0.005 and four radii off
    r0, against the same step as plain P1 on the physical mesh, the micro
    nodes mapped by psi_eps at each cell's radius (:func:`physical_heat_step`),
    for a g smooth in physical coordinates.  Their difference in the
    physical-mass L2 norm, relative to that of u - g, falls by at least 3 at
    each halving of the mesh size from n_boundary 16 to 128 (measured 3.36,
    3.76 and 3.68: O(h^2)).  The pull-back with J frozen at r0, and with a
    and b swapped, does not fall: each refinement leaves its difference
    within 20% (measured ratios 0.997 to 1.09), above 0.07 and 0.25
    (measured 0.077 to 0.088 and 0.28)."""
    radii = np.array([[0.18, 0.32], [0.29, 0.21]])
    dt = 0.005

    def g(x):
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * x[:, 0]) * np.sin(2.0 * np.pi * x[:, 1])

    def pulled_back_step(sim, r, x, swapped=False):
        mass = sim._mass(r)
        A = sim._system(r, mass / dt)
        if swapped:   # the scalars [1/b; b - 1/b] in place of [b; 1/b - b]
            b = sim._scalars[:len(sim._scalars) // 2].copy()
            sim._scalars[:len(b)], sim._scalars[len(b):] = 1.0 / b, b - 1.0 / b
            A = sim._pattern.assemble(sim.mesh.cell.system @ sim._scalars, mass / dt)
        return spsolve(A.tocsc(), mass * g(x) / dt)

    errors = []
    for n_boundary, target_h in ((16, 0.2), (32, 0.1), (64, 0.05), (128, 0.025)):
        m = build_micro_mesh(ReferenceCell(params, n_boundary, target_h), 0.5)
        sim = MicroSimulator(m, spec)
        u, x, M = physical_heat_step(m, radii, g, dt)
        steps = (pulled_back_step(sim, radii, x),
                 pulled_back_step(sim, np.full_like(radii, params.r0), x),
                 pulled_back_step(sim, radii, x, swapped=True))
        errors.append([np.sqrt(M @ (v - u) ** 2 / (M @ (u - g(x)) ** 2)) for v in steps])
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all(ratios[:, 0] >= 3.0), ratios[:, 0]
    assert np.all(ratios[:, 1:] <= 1.2), ratios[:, 1:]
    assert np.all(errors[:, 1:] > [0.07, 0.25]), errors


def test_reference_bases_match_pulled_back_assembly(reference_cell, params, spec):
    """The system, lumped mass, element means and drift loads of the
    cell-batched reference operators equal a per-element assembly on the
    micro mesh's own geometry at 1/eps = 2 and 4: the pulled-back tensor
    J Psi^{-1} Psi^{-T} from the inverse of the frame's Jacobian by
    ``element_stiffness``, summed by ``np.add.at`` in element order."""
    for inv in (2, 4):
        check_cell_batched_step(build_micro_mesh(reference_cell, 1.0 / inv), params, spec,
                                np.random.default_rng(14 + inv))


def check_cell_batched_step(m, params, spec, rng):
    radii = rng.uniform(params.r_min, params.r_max, m.n_cells)
    rate = rng.uniform(-0.5, 0.5, m.n_cells)
    u = rng.uniform(0.2, 0.9, m.n_nodes)
    diagonal = rng.uniform(1.0, 2.0, m.n_nodes)
    sim = MicroSimulator(m, spec, diffusion=1.7)

    el = cell_of_element(m)
    tri = tiled_triangles(m)
    in_cell = np.tile(centroids(m.cell.mesh.vertices, m.cell.mesh.triangles), (m.n_cells, 1))
    det, psi_inv, tensor = pulled_back(params, in_cell, radii[el])
    dpsi_drg = radial_image(params, in_cell, radii[el])[1]
    areas, grads = triangle_geometry(m.vertices, tri)
    k_el = element_stiffness(areas, grads, 1.7 * tensor)
    u_mid = u[tri].mean(axis=1)
    assert np.array_equal(element_means(tri, u), u_mid)   # the same bits
    dt_psi = m.epsilon * dpsi_drg * rate[el][:, None]
    b_vec = det[:, None] * np.einsum("tab,tb->ta", psi_inv, dt_psi)
    drift_el = np.einsum("ta,tia->ti", b_vec, grads) * (areas * u_mid)[:, None]

    n = m.n_nodes
    keys = (np.repeat(tri, 3, axis=1) * n + np.tile(tri, (1, 3))).ravel()
    keys = np.concatenate([keys, np.arange(n) * (n + 1)])
    entries, slot = np.unique(keys, return_inverse=True)
    want_k = np.zeros(len(entries))
    np.add.at(want_k, slot, np.concatenate([k_el.ravel(), diagonal]))
    want_mass = np.zeros(n)
    np.add.at(want_mass, tri, (det * areas / 3.0)[:, None] * np.ones((1, 3)))
    want_drift = np.zeros(n)
    np.add.at(want_drift, tri, drift_el)

    system = sim._system(radii, diagonal)
    got_keys = np.repeat(np.arange(n), np.diff(system.indptr)) * n + system.indices
    assert np.array_equal(got_keys, entries)
    got_means = m.cell.means @ u[m.node_map.T]
    for got, want in ((system.data, want_k), (sim._mass(radii), want_mass),
                      (got_means.T.ravel(), u_mid), (sim._drift(radii, rate, u), want_drift)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    # the face nodes that several cells share are compared too
    shared = np.bincount(m.node_map.ravel(), minlength=n) > 1
    assert shared.sum() > 0 and np.abs(want_drift[shared]).max() > 0.0


@pytest.mark.parametrize("inv", (2, 4))
def test_micro_assembly_and_scatter_match_independent_oracles(reference_cell, params, spec, inv):
    """With patterned radii, the assembled system equals ``sp.coo_matrix`` of
    every cell's half entries at their global (row, col), those off the
    diagonal also at (col, row), plus the diagonal, and
    ``MicroMesh.scatter`` equals ``np.add.at``.  The slot map is C-contiguous
    intp and the scatter index is intp laid out like the data it indexes,
    so ``np.bincount`` reads both in place."""
    m = build_micro_mesh(reference_cell, 1.0 / inv)
    sim = MicroSimulator(m, spec, diffusion=1.7)
    radii = patterned_radii(params, inv)
    sc = m.cell.frame.scalars(radii.reshape(-1, 1))
    rng = np.random.default_rng(30 + inv)
    diagonal = rng.uniform(1.0, 2.0, m.n_nodes)
    x = np.vstack([1.7 * sc.b, 1.7 * (1 / sc.b - sc.b)])
    entries = m.cell.system @ x          # (s, n_cells): every cell's half entries
    rows, cols = m.cell.mesh.node_entries
    off = rows != cols
    n, diag = m.n_nodes, np.arange(m.n_nodes)
    want = sp.coo_matrix((np.concatenate([entries.T.ravel(), entries[off].T.ravel(), diagonal]),
                          (np.concatenate([m.node_map[:, rows].ravel(),
                                           m.node_map[:, cols[off]].ravel(), diag]),
                           np.concatenate([m.node_map[:, cols].ravel(),
                                           m.node_map[:, rows[off]].ravel(), diag]))),
                         shape=(n, n)).tocsr()
    got = sim._system(radii, diagonal)
    assert got.nnz == want.nnz
    assert abs(got - want).max() <= 1e-15 * abs(want).max()

    values = rng.uniform(-1.0, 1.0, (m.cell.mesh.n_nodes, m.n_cells))
    want_nodal = np.zeros(n)
    np.add.at(want_nodal, m.node_map.T, values)
    assert np.abs(m.scatter(values) - want_nodal).max() <= 1e-15 * np.abs(want_nodal).max()

    assert entries.flags.c_contiguous and values.flags.c_contiguous
    for index in sim._pattern.slots()[2:] + (m.cell_nodes,):
        assert index.dtype == np.intp and index.flags.c_contiguous
    assert m.cell_nodes.shape == values.shape
    assert np.array_equal(m.cell_nodes, m.node_map.T)


@pytest.mark.parametrize("inv", (2, 4))
def test_surface_pass_matches_the_per_cell_edge_oracle(reference_cell, params, spec, inv):
    """The surface pass on the reference hole ring, epsilon times its edge
    lengths, gives every cell's integral, the nodal loads and their total of
    the pass on every cell's own ring, its lengths from the merged micro
    nodes, to 1e-12 relative, at patterned radii and a random u."""
    m = build_micro_mesh(reference_cell, 1.0 / inv)
    radii = patterned_radii(params, inv)
    u = np.random.default_rng(40 + inv).uniform(0.0, 1.0, m.n_nodes)
    got = MicroSimulator(m, spec)._surface_integrals(u, radii)
    want = surface_integrals(m, spec, u, radii)
    for g, w in zip(got[:2], want[:2]):
        assert np.abs(w).max() > 0.0
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0.0)
    assert want[2] != 0.0


def moving_radii_system(reference_cell, params, spec):
    """A micro step's implicit system K + diag(m / dt) at 1/eps = 4,
    patterned radii and dt 0.005, with its mesh: the kind of system a step
    of moving radii solves by ``solve_cg``'s default preconditioner."""
    m = build_micro_mesh(reference_cell, 0.25)
    sim = MicroSimulator(m, spec)
    radii = patterned_radii(params, 4)
    return sim._system(radii, sim._mass(radii) / 0.005), m


def test_a_start_off_by_a_constant_solves_without_iterating(reference_cell, params, spec):
    """The zero-flux stiffness annihilates constants, so only the lumped
    mass holds the constant vector and Jacobi sees it at a small eigenvalue.
    The default preconditioner solves it exactly, and corrects the start on
    it before iterating: a start that differs from the solution by a
    constant is the solution to rounding, after 0 CG iterations."""
    A, _ = moving_radii_system(reference_cell, params, spec)
    u = np.random.default_rng(5).uniform(0.2, 0.8, A.shape[0])
    b = A @ u
    for shift in (-0.3, 0.05, 1.0):
        x, report = solve_cg(A, b, tol=1e-12, x0=u + shift)
        assert report.converged and report.iterations == 0
        assert np.abs(x - u).max() <= 1e-14


@pytest.mark.parametrize("inv", (2, 4))
def test_periodic_system_is_the_restricted_system(reference_cell, params, spec, inv):
    """The system of the eps-periodic functions, formed from the cells'
    scalars summed, equals ``R A R^T`` of the assembled micro system to
    rounding, R from the nodes' coordinates (:func:`periodic_restriction`),
    at patterned radii and a random diagonal."""
    m = build_micro_mesh(reference_cell, 1.0 / inv)
    sim = MicroSimulator(m, spec, diffusion=1.3)
    radii = patterned_radii(params, inv)
    diagonal = np.random.default_rng(50 + inv).uniform(1.0, 2.0, m.n_nodes)
    A = sim._system(radii, diagonal)
    R = periodic_restriction(m)
    want = (R @ A @ R.T).tocsr()
    got = sim._periodic_system(diagonal)
    assert got.shape == want.shape == (reference_cell.mesh.dof_map[1],) * 2
    assert abs(got - want).max() <= 1e-14 * abs(want).max()
    assert np.array_equal(R.T @ np.arange(R.shape[0]), m.periodic_dof)


def test_periodic_correction_never_raises_the_error_energy(reference_cell, params, spec):
    """The Galerkin correction on the eps-periodic functions removes the
    start error's energy along them, so a random start's A-norm error never
    grows, whether the step takes it or not; a start that takes it is the
    start plus the correction, and a declined one stays as it is.  The
    coarse matrix is the same on every pass, so the simulator's kept factor,
    rebuilt or not, preconditions as a fresh one does, bit for bit."""
    m = build_micro_mesh(reference_cell, 0.25)
    sim = MicroSimulator(m, spec)
    radii = patterned_radii(params, 4)
    diagonal = sim._mass(radii) / 0.005
    A = sim._system(radii, diagonal)
    rng = np.random.default_rng(9)
    u = rng.uniform(0.2, 0.8, m.n_nodes)
    b = A @ u
    x, y = m.vertices.T

    def energy(v):
        e = v - u
        return float(e @ (A @ e))

    periodic = np.sin(2.0 * np.pi * x / m.epsilon) * np.cos(2.0 * np.pi * y / m.epsilon)
    smooth = np.sin(np.pi * x) * np.cos(np.pi * y)
    coarse = sim._periodic_system(diagonal)
    taken = 0
    for k in range(12):
        x0 = u + rng.normal(0.0, 0.02 * k, m.n_nodes) + rng.normal() * periodic + (
            rng.normal() * smooth + 0.1 * rng.normal())
        # the correction itself, taken or not
        correction, _ = solve_cg(coarse, np.bincount(m.periodic_dof, b - A @ x0), tol=1e-10,
                                 precondition=fem.Factor(np.float64, m.cell.mesh.periodic.factorize)
                                 .preconditioner(coarse))
        assert energy(x0 + correction[m.periodic_dof]) < energy(x0)
        start = sim._periodic_start(A, b, x0, diagonal)
        if start is x0:
            continue
        taken += 1
        assert np.array_equal(start, x0 + correction[m.periodic_dof])
        assert energy(start) < energy(x0)
    assert 0 < taken < 12 and sim.periodic_starts == taken


def test_periodic_input_steps_without_fine_iterations(reference_cell, spec, monkeypatch):
    """A ``DEFAULT_CONFIG`` micro step at 1/eps = 4 has a constant u and
    radii that move alike in every cell, so its solution is eps-periodic:
    the corrected start solves it in 0 fine CG iterations, and the field
    matches a solve of the same system to 1e-14 within the solver's
    tolerance."""
    cfg = parse_config(DEFAULT_CONFIG)
    m = build_micro_mesh(reference_cell, 0.25)
    sim = MicroSimulator(m, cfg.spec, diffusion=cfg.diffusion, cg_tol=cfg.cg_tol)
    state = sim.init(build_field(cfg.u_field, cfg.u_params),
                     build_field(cfg.r_field, cfg.r_params))
    systems = []
    solve = fem.solve_cg
    monkeypatch.setattr(fem, "solve_cg",
                        lambda A, b, **kw: systems.append((A, b)) or solve(A, b, **kw))
    for _ in range(3):
        state = sim.step(state, cfg.dt)
        assert state.cg_iterations == 0 and not np.all(state.radii_rate == 0.0)
        A, b = systems[-1]
        tight, report = solve(A, b, tol=1e-14)
        assert report.converged
        assert np.linalg.norm(A @ (state.u_hat - tight)) <= 2.0 * cfg.cg_tol * np.linalg.norm(b)
    assert sim.periodic_starts == 3 and sim.cg_iterations == 0


def test_declined_correction_leaves_the_step_bit_identical(micro_mesh_half, spec, monkeypatch):
    """On the gradient u0 every periodic correction is declined, so each
    step equals, bit for bit, the step with the correction patched out."""
    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(MicroSimulator, "_periodic_start",
                                lambda self, system, b, x0, diagonal: x0)
        sim = MicroSimulator(micro_mesh_half, spec)
        states = [sim.init(GRADIENT_U0, constant_field(0.2))]
        for _ in range(6):
            states.append(sim.step(states[-1], 0.005))
        runs.append((sim, states))
    (sim, states), (_, patched_states) = runs
    assert sim.periodic_starts == 0 and sim.coarse_iterations > 0
    for got, want in zip(states[1:], patched_states[1:]):
        assert_same_state(got, want)
        assert got.cg_iterations > 0


def test_coarse_solve_on_constants_beats_plain_jacobi(reference_cell, params, spec):
    """From a start of the solution plus a constant plus a small smooth
    error, the default preconditioner takes fewer CG iterations than the
    same loop preconditioned by plain Jacobi (182 against 257), and both
    reach the tolerance."""
    A, m = moving_radii_system(reference_cell, params, spec)
    u = np.random.default_rng(5).uniform(0.2, 0.8, A.shape[0])
    b = A @ u
    x, y = m.vertices.T
    x0 = u + 0.5 + 1e-3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    diagonal = A.diagonal()
    _, report = solve_cg(A, b, tol=1e-10, x0=x0)
    _, jacobi = solve_cg(A, b, tol=1e-10, x0=x0, precondition=lambda r: r / diagonal)
    assert report.converged and jacobi.converged
    assert report.iterations < jacobi.iterations


def test_pinned_constant_initial_stays_constant(micro_mesh_half, params, no_reaction):
    sim = MicroSimulator(micro_mesh_half, no_reaction)
    state = sim.init(constant_field(0.7), constant_field(params.r0))
    for _ in range(5):
        state = sim.step(state, 0.02)
    assert np.max(np.abs(state.u_hat - 0.7)) < 1e-12


def test_system_reused_while_radii_and_dt_unchanged(micro_mesh_half, params, no_reaction):
    """Radii at r0 without reaction never move, so the run assembles its
    system once per dt: every step, also after a change of dt, equals the
    step of a fresh simulator bit for bit."""
    rng = np.random.default_rng(4)
    u0 = rng.uniform(0.2, 0.8, micro_mesh_half.n_nodes)

    def fresh():
        sim = MicroSimulator(micro_mesh_half, no_reaction)
        return sim, sim.init(lambda x: u0, constant_field(params.r0))

    sim, state = fresh()
    assemblies = count_assemblies(sim)
    for dt in (0.01, 0.01, 0.005, 0.01):
        stepped = sim.step(state, dt)
        other, _ = fresh()
        assert_same_state(stepped, other.step(state, dt))
        state = stepped
    assert assemblies() == 3


def count_factorizations(monkeypatch):
    """The number of factorizations made so far, as a callable: the calls
    of ``splu`` and of ``cholesky_banded``, which factors the systems of the
    reference cell's periodic pattern."""
    calls = []
    for module, name in ((fem.spla, "splu"), (fem.sla, "cholesky_banded")):
        monkeypatch.setattr(module, name, lambda *a, factorize=getattr(module, name), **k:
                            calls.append(1) or factorize(*a, **k))
    return lambda: len(calls)


def test_pinned_run_factors_its_system_once(micro_mesh_half, params, no_reaction,
                                            monkeypatch):
    """Radii that never move keep one system, factored exactly on the first
    step: every later step is preconditioned by that factor and takes 1 CG
    iteration (Jacobi took 119-165 here, a single precision factor 2)."""
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.2, 0.8, micro_mesh_half.n_nodes)
    factorizations = count_factorizations(monkeypatch)
    sim = MicroSimulator(micro_mesh_half, no_reaction)
    state = sim.init(lambda x: u0, constant_field(params.r0))
    for step in range(8):
        state = sim.step(state, 0.01)
        assert factorizations() == 1 and sim.factorizations == 1
        assert step == 0 or state.cg_iterations == 1


def test_pinned_run_at_the_floor_tolerance_factors_once(micro_mesh_half, params, no_reaction,
                                                        monkeypatch):
    """At the tightest tolerance a config accepts the exact factor's first
    reuse takes 2 CG iterations and the later ones 1, far below the refactor
    rule's bound, so the kept system is still factored once."""
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0.2, 0.8, micro_mesh_half.n_nodes)
    factorizations = count_factorizations(monkeypatch)
    sim = MicroSimulator(micro_mesh_half, no_reaction, cg_tol=CG_TOL_FLOOR)
    state = sim.init(lambda x: u0, constant_field(params.r0))
    iterations = []
    for _ in range(8):
        state = sim.step(state, 0.01)
        assert factorizations() == 1 and sim.factorizations == 1
        iterations.append(state.cg_iterations)
    assert iterations[1:] == [2] + [1] * 6
    assert sim.cg_iterations == sum(iterations)


def test_change_of_dt_refactors(micro_mesh_half, params, no_reaction, monkeypatch):
    """A new dt assembles a new system, and a new system a new factor."""
    factorizations = count_factorizations(monkeypatch)
    sim = MicroSimulator(micro_mesh_half, no_reaction)
    state = sim.init(lambda x: 0.5 + 0.2 * np.cos(np.pi * x[:, 0]), constant_field(params.r0))
    for dt, total in ((0.01, 1), (0.01, 1), (0.005, 2), (0.005, 2), (0.01, 3)):
        state = sim.step(state, dt)
        assert factorizations() == total and sim.factorizations == total
        assert state.cg_iterations <= 3


def test_growing_run_never_factors(micro_mesh_half, monkeypatch):
    """``DEFAULT_CONFIG``'s radii grow on every step to t_end, so its system
    changes every step: each is solved by CG from its corrected start and
    none is factored, and no fine factor's fill adds to the convergence
    study's memory.  The only factors are those of the 671-dof eps-periodic
    system, kept across steps: 11 over the 100 steps here, each a banded
    Cholesky factor stored in a band of (kd + 1) x n = 68 x 671 = 45,628
    values (0.37 MB)."""
    cfg = parse_config(DEFAULT_CONFIG)
    factorizations = count_factorizations(monkeypatch)
    sim = MicroSimulator(micro_mesh_half, cfg.spec, diffusion=cfg.diffusion,
                         cg_tol=cfg.cg_tol)
    state = sim.init(build_field(cfg.u_field, cfg.u_params),
                     build_field(cfg.r_field, cfg.r_params))
    for _ in range(cfg.n_steps):
        new = sim.step(state, cfg.dt)
        assert not np.array_equal(new.radii, state.radii) and sim._kept is None
        state = new
    assert sim.factorizations == 0
    assert factorizations() == sim.coarse_factorizations and 0 < factorizations() <= 20
    reference = micro_mesh_half.cell.mesh
    upper = sim._coarse._lu.upper
    assert upper.shape == (reference.periodic.band.kd + 1, reference.dof_map[1])
    assert upper.size <= 46_000


def test_stale_coarse_factor_is_rebuilt(micro_mesh_half):
    """The eps-periodic start keeps its coarse factor from step to step by
    :class:`evopore.fem.Factor`'s rule: a step factors its coarse system
    exactly when it is the first or the step before applied the kept factor
    more than ``REFACTOR_ITERATIONS`` times, one application per coarse CG
    iteration."""
    cfg = parse_config(DEFAULT_CONFIG)
    sim = MicroSimulator(micro_mesh_half, cfg.spec, diffusion=cfg.diffusion,
                         cg_tol=cfg.cg_tol)
    state = sim.init(build_field(cfg.u_field, cfg.u_params),
                     build_field(cfg.r_field, cfg.r_params))
    iterations, factored = [], []
    for _ in range(cfg.n_steps):
        before = sim.coarse_iterations, sim.coarse_factorizations
        state = sim.step(state, cfg.dt)
        iterations.append(sim.coarse_iterations - before[0])
        factored.append(sim.coarse_factorizations - before[1])
    stale = [True] + [k > fem.REFACTOR_ITERATIONS for k in iterations[:-1]]
    assert factored == [int(s) for s in stale]
    assert 1 < sum(factored) < cfg.n_steps // 2


def test_change_of_dt_keeps_the_coarse_solve_exact(micro_mesh_half):
    """A step after a change of dt starts from a coarse correction
    preconditioned by the factor of the old dt's system, and still matches
    the step of a fresh simulator, whose factor is of its own system, to the
    solver's tolerance."""
    cfg = parse_config(DEFAULT_CONFIG)

    def simulator():
        return MicroSimulator(micro_mesh_half, cfg.spec, diffusion=cfg.diffusion,
                              cg_tol=cfg.cg_tol)

    sim = simulator()
    state = sim.init(build_field(cfg.u_field, cfg.u_params),
                     build_field(cfg.r_field, cfg.r_params))
    for _ in range(5):
        state = sim.step(state, cfg.dt)
    factored = []
    for dt in (cfg.dt / 4, cfg.dt / 4, 2 * cfg.dt):
        before = sim.coarse_factorizations
        kept = sim.step(state, dt)
        factored.append(sim.coarse_factorizations - before)
        fresh = simulator().step(state, dt)
        assert np.array_equal(kept.radii, fresh.radii)
        scale = np.abs(fresh.u_hat).max()
        assert np.abs(kept.u_hat - fresh.u_hat).max() <= 10 * cfg.cg_tol * scale
        state = kept
    # the first step at a new dt solves with the old dt's factor
    assert factored[0] == 0
    assert sim.periodic_starts == 8 and sim.cg_iterations == 0


def test_step_starts_from_the_extrapolated_field(micro_mesh_half, params, spec,
                                                 check_extrapolated_start, monkeypatch):
    """On moving radii and a u0 whose start errors are not mostly periodic,
    every step starts CG from the extrapolated field itself: the periodic
    correction is solved and declined.  From a constant u0 the start errors
    are eps-periodic, so every step starts from the extrapolated field plus
    an eps-periodic function, and solves in 0 iterations."""
    sims = []

    def simulator():
        sims.append(MicroSimulator(micro_mesh_half, spec))
        return sims[-1]

    extrapolated, plain = check_extrapolated_start(simulator, GRADIENT_U0, constant_field(0.2),
                                                   0.01, "u_hat")
    assert np.array_equal(extrapolated.radii, plain.radii)
    assert not np.all(extrapolated.radii_rate == 0.0)
    assert all(sim.periodic_starts == 0 and sim.coarse_iterations > 0 for sim in sims)

    starts = []
    solve = fem.solve_cg
    monkeypatch.setattr(fem, "solve_cg",
                        lambda A, b, **kw: starts.append(kw["x0"].copy()) or solve(A, b, **kw))
    sim = MicroSimulator(micro_mesh_half, spec)
    state = sim.init(constant_field(0.9), constant_field(0.2))
    dof = micro_mesh_half.periodic_dof
    for k in range(1, 4):
        new = sim.step(state, 0.01)
        shift = starts[-1] - (2.0 * state.u_hat - state.previous if k > 1 else state.u_hat)
        periodic = np.bincount(dof, shift) / np.bincount(dof)
        assert np.abs(shift - periodic[dof]).max() <= 1e-15 * np.abs(shift).max()
        assert np.abs(shift).max() > 0.0 and new.cg_iterations == 0
        state = new
    assert sim.periodic_starts == 3 and sim.cg_iterations == 0


def test_reacting_run_at_rest_reuses_its_system(micro_mesh_half, params, spec):
    """With u above u_eq every radius at r_max is held by the growth gate,
    which makes f exactly 0 there: the radii do not move, each step reuses
    the system and equals a fresh simulator's step bit for bit.  A step
    whose radii move keeps no system."""
    rng = np.random.default_rng(5)
    u0 = rng.uniform(0.6, 0.9, micro_mesh_half.n_nodes)
    f = build_source("decaying_cosine", {"amplitude": 0.5, "rate": 1.0})

    def fresh(radius):
        sim = MicroSimulator(micro_mesh_half, spec, source=f)
        return sim, sim.init(lambda x: u0, constant_field(radius))

    sim, state = fresh(spec.r_max)
    assemblies = count_assemblies(sim)
    for _ in range(4):
        stepped = sim.step(state, 0.01)
        other, _ = fresh(spec.r_max)
        assert_same_state(stepped, other.step(state, 0.01))
        assert np.all(stepped.radii == spec.r_max) and np.all(stepped.radii_rate == 0.0)
        assert stepped.flux_step == 0.0
        state = stepped
    assert assemblies() == 1

    growing, state = fresh(0.2)
    assert not np.array_equal(growing.step(state, 0.01).radii, state.radii)
    assert growing._kept is None


def euler_expansion_residual(reference, params, spec, inv, monkeypatch, dt=1e-3, seed=0):
    """Sum |R| / sum |dM/dt| over the nodes off Gamma for one micro step of
    u_hat = 1 at random radii in [0.18, 0.32] moving at prescribed random
    rates in [-0.5, 0.5].

    The discrete Euler expansion formula dJ/dt = div(J Psi^{-1} dpsi/dt)
    makes the step's own pieces cancel at a node whose hat function does not
    touch Gamma: R_i = (M(J(r_new)) - M(J(r_old)))_i / dt + drift_i ~ 0.  A
    constant is in the stiffness's kernel, so R is the residual ``A 1 - b``
    of the system the step hands to CG, with its drift as booked."""
    m = build_micro_mesh(reference, 1.0 / inv)
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.18, 0.32, m.n_cells)
    rates = rng.uniform(-0.5, 0.5, m.n_cells)
    solves = []
    solve = fem.solve_cg
    sim = MicroSimulator(m, spec)
    state = sim.init(lambda x: np.ones(len(x)), lambda x: radii)
    with monkeypatch.context() as patch:
        patch.setattr(fem, "solve_cg",
                      lambda A, b, **kw: solves.append((A, b)) or solve(A, b, **kw))
        patch.setattr("evopore.micro.step_radius",
                      lambda spec, r, f, dt: r + dt * rates.reshape(r.shape))
        new = sim.step(state, dt)
    (A, b), = solves
    off = np.ones(m.n_nodes, dtype=bool)
    off[hole_rings(m).ravel()] = False
    residual = A @ np.ones(m.n_nodes) - b
    change = (new.mass - state.mass) / dt
    return np.abs(residual[off]).sum() / np.abs(change[off]).sum()


def test_drift_balances_the_jacobian_change(reference_cell, params, spec, monkeypatch):
    """The step's drift term cancels the change of the lumped J-mass up to
    discretization error: measured 0.029 and 0.032 at 1/eps = 1 and 2 on
    the default mesh, where the step without the drift gives 1.00 and with
    its sign flipped 2.01.  That error falls by at least 2x per halving of
    target_h (measured 3.0x and 3.3x at 1/eps = 2)."""
    assert euler_expansion_residual(reference_cell, params, spec, 1, monkeypatch) <= 0.1
    meshes = (reference_cell, ReferenceCell(params, 128, 0.025), ReferenceCell(params, 256, 0.0125))
    ratios = [euler_expansion_residual(mesh, params, spec, 2, monkeypatch) for mesh in meshes]
    assert ratios[0] <= 0.1
    assert ratios[1] <= ratios[0] / 2 and ratios[2] <= ratios[1] / 2, ratios


def test_steady_state_exact(micro_mesh_half, params, spec):
    sim = MicroSimulator(micro_mesh_half, spec, cg_tol=1e-12)
    state = sim.init(constant_field(spec.u_eq), constant_field(params.r0))
    for _ in range(20):
        state = sim.step(state, 0.01)
    assert np.max(np.abs(state.u_hat - spec.u_eq)) < 1e-10
    assert np.max(np.abs(state.radii - params.r0)) < 1e-12


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_steppers_reject_a_step_that_is_not_forward(micro_mesh_half, params, spec,
                                                    tensor_table, dt):
    """Neither stepper takes a step of dt <= 0: the radius update raises
    ``ValueError`` before the step solves anything."""
    for solver in (MacroSolver(MacroGrid.create(4), tensor_table, spec),
                   MicroSimulator(micro_mesh_half, spec)):
        state = solver.init(constant_field(0.9), constant_field(0.2))
        with pytest.raises(ValueError, match="dt must be positive"):
            solver.step(state, dt)
        assert solver.cg_iterations == 0 and solver.factorizations == 0


def test_growth_run_ledger_and_rate_bound(micro_mesh_half, params, spec, run_steps):
    sim = MicroSimulator(micro_mesh_half, spec, cg_tol=1e-12)
    state = sim.init(constant_field(0.9), constant_field(0.2))
    dt = 0.005
    states = run_steps(sim, state, dt, 40)
    for s in states[1:]:
        assert s.defect < 1e-9
        assert np.max(np.abs(s.radii_rate)) <= spec.f_cap / spec.c_s + 1e-14
        # the V(r)-based bookkeeping matches the discrete flux to first order
        assert s.radius_flux_gap < 5.0 * dt * (dt + 1e-3)
    assert np.all(states[-1].radii > 0.2)
    assert states[-1].fluid_mass < states[0].fluid_mass


def test_epsilon_uniform_norm_bounds(reference_cell, params, spec):
    # discrete analogue of the uniform a priori bound: max-in-time L2 norm and
    # the space-time gradient norm stay comparable across epsilon; the fixed
    # scenario carries a macroscopic gradient so neither norm degenerates
    l2s, grads_norm = [], []
    dt = 0.01
    u0 = lambda x: 0.5 + 0.3 * np.cos(np.pi * np.atleast_2d(x)[:, 0])
    for inv in (2, 4, 8):
        mesh = build_micro_mesh(reference_cell, 1.0 / inv)
        sim = MicroSimulator(mesh, spec, cg_tol=1e-11)
        state = sim.init(u0, constant_field(0.2))
        tri = tiled_triangles(mesh)
        areas, grads = triangle_geometry(mesh.vertices, tri)
        lum = np.zeros(mesh.n_nodes)
        np.add.at(lum, tri, (areas / 3.0)[:, None] * np.ones((1, 3)))
        max_l2 = 0.0
        grad_sq = 0.0
        for _ in range(15):
            state = sim.step(state, dt)
            max_l2 = max(max_l2, float(np.sqrt(lum @ state.u_hat**2)))
            g = np.einsum("ti,tia->ta", state.u_hat[tri], grads)
            grad_sq += dt * float(np.sum(areas * np.sum(g * g, axis=1)))
        l2s.append(max_l2)
        grads_norm.append(np.sqrt(grad_sq))
    assert max(l2s) / min(l2s) < 1.2
    assert max(grads_norm) / min(grads_norm) < 1.2


def test_single_cell_matches_scalar_ode(reference_cell, params, spec):
    # epsilon = 1: the radius trajectory follows the well-mixed two-variable
    # oracle up to time discretization and in-cell spatial variation
    mesh = build_micro_mesh(reference_cell, 1.0)
    sim = MicroSimulator(mesh, spec, cg_tol=1e-11)
    dt, steps = 0.01, 25
    state = sim.init(constant_field(0.9), constant_field(0.2))
    variation = 0.0
    traj = [float(state.radii[0, 0])]
    for _ in range(steps):
        state = sim.step(state, dt)
        traj.append(float(state.radii[0, 0]))
        variation = max(variation, float(state.u_hat.max() - state.u_hat.min()))

    v, r = 0.9, 0.2
    oracle = [r]
    for _ in range(steps):
        f_old = float(eval_f(spec, v, r))
        r_new = float(step_radius(spec, r, f_old, dt))
        flux = 2 * np.pi * r_new * float(eval_f(spec, v, r_new))
        fluid = porosity(r) * v - dt * flux
        v = fluid / porosity(r_new)
        r = r_new
        oracle.append(r)
    gap = np.max(np.abs(np.array(traj) - np.array(oracle)))
    assert gap <= 2.0 * (dt + variation)


def test_unfold_compare_steady_state(micro_mesh_half, params, spec, tensor_table):
    grid = MacroGrid.create(8)
    macro = MacroSolver(grid, tensor_table, spec)
    macro_state = macro.init(constant_field(spec.u_eq), constant_field(params.r0))
    sim = MicroSimulator(micro_mesh_half, spec)
    micro_state = sim.init(constant_field(spec.u_eq), constant_field(params.r0))
    for _ in range(3):
        macro_state = macro.step(macro_state, 0.01)
        micro_state = sim.step(micro_state, 0.01)
    err = unfold_compare(micro_mesh_half, micro_state, grid, macro_state)
    assert err.u_l2_error < 1e-9
    assert err.r_l2_error < 1e-12


def test_unfolding_errors_decrease(reference_cell, params, spec, tensor_table):
    grid = MacroGrid.create(16)
    macro = MacroSolver(grid, tensor_table, spec, cg_tol=1e-12)
    macro_state = macro.init(constant_field(0.9), constant_field(0.2))
    dt, steps = 0.01, 12
    for _ in range(steps):
        macro_state = macro.step(macro_state, dt)
    errs = []
    for inv in (2, 4):
        mesh = build_micro_mesh(reference_cell, 1.0 / inv)
        sim = MicroSimulator(mesh, spec, cg_tol=1e-11)
        st = sim.init(constant_field(0.9), constant_field(0.2))
        for _ in range(steps):
            st = sim.step(st, dt)
        errs.append(unfold_compare(mesh, st, grid, macro_state))
    assert errs[1].u_l2_error < errs[0].u_l2_error
    assert errs[1].r_l2_error < errs[0].r_l2_error


def test_constant_macro_error_bounded_by_poincare(reference_cell, params, spec):
    # against a spatially constant macro field equal to the global pore mean,
    # the unfolded error is the cell-mean deviation, controlled by the
    # gradient norm through the Poincare inequality on the unit square
    mesh = build_micro_mesh(reference_cell, 0.25)
    sim = MicroSimulator(mesh, spec, cg_tol=1e-11)
    state = sim.init(constant_field(0.9), constant_field(0.2))
    for _ in range(10):
        state = sim.step(state, 0.01)
    means = cell_pore_means(mesh, state.u_hat)
    tri = tiled_triangles(mesh)
    areas, grads = triangle_geometry(mesh.vertices, tri)
    pore_area = np.zeros(mesh.n_cells)
    np.add.at(pore_area, cell_of_element(mesh), areas)
    global_mean = float(np.sum(means * pore_area) / pore_area.sum())
    err = np.sqrt(np.sum(mesh.epsilon**2 * (means - global_mean) ** 2))
    g = np.einsum("ti,tia->ta", state.u_hat[tri], grads)
    grad_norm = np.sqrt(np.sum(areas * np.sum(g * g, axis=1)))
    theta_min = porosity(spec.r_max)
    bound = grad_norm / (np.pi * np.sqrt(theta_min))
    assert err <= bound


def test_pore_means_of_linear_field(micro_mesh_half):
    u = 1.0 + micro_mesh_half.vertices[:, 0]
    means = cell_pore_means(micro_mesh_half, u)
    # by symmetry of the pore space the mean sits at the cell center abscissa
    centers = micro_mesh_half.cell_centers()
    assert means == pytest.approx(1.0 + centers[:, 0], abs=1e-12)


@pytest.mark.parametrize("inv", (2, 4))
def test_pore_means_match_a_per_element_oracle(reference_cell, inv):
    """On a random nodal field, the pore means equal the area-weighted
    element means summed by ``np.add.at`` cell by cell, with every micro
    element's area from its own scaled vertex coordinates."""
    mesh = build_micro_mesh(reference_cell, 1.0 / inv)
    u = np.random.default_rng(20 + inv).uniform(-1.0, 2.0, mesh.n_nodes)
    tri = tiled_triangles(mesh)
    areas = triangle_geometry(mesh.vertices, tri)[0]
    sums, pore = np.zeros(mesh.n_cells), np.zeros(mesh.n_cells)
    np.add.at(sums, cell_of_element(mesh), areas * u[tri].mean(axis=1))
    np.add.at(pore, cell_of_element(mesh), areas)
    want = sums / pore
    assert np.ptp(want) > 0.01   # the cells differ, so a swapped cell would show
    assert np.allclose(cell_pore_means(mesh, u), want, rtol=1e-13, atol=0.0)


def test_snapshot_formats_every_value_by_percent_17g(reference_cell, params, spec,
                                                    check_snapshot):
    """After init and after 3 steps with moving radii, a snapshot is every
    column formatted by ``%.17g``; the node text is built once per mesh."""
    mesh = build_micro_mesh(reference_cell, 0.5)
    sim = MicroSimulator(mesh, spec)
    state = sim.init(lambda x: 0.6 + 0.3 * np.cos(np.pi * np.atleast_2d(x)[:, 0]),
                     constant_field(0.2))
    for k in range(4):
        if k:
            state = sim.step(state, 0.01)
        check_snapshot(micro_snapshot_csv(mesh, state), "x1,x2,u_hat",
                       [mesh.vertices[:, 0], mesh.vertices[:, 1], state.u_hat])
        if k == 0:
            text = mesh.coordinate_text
    assert np.all(state.radii != 0.2)  # every radius moved
    assert mesh.coordinate_text is text
    # a second mesh formats its own nodes
    other = build_micro_mesh(reference_cell, 0.25)
    state = MicroSimulator(other, spec).init(constant_field(0.9), constant_field(0.2))
    check_snapshot(micro_snapshot_csv(other, state), "x1,x2,u_hat",
                   [other.vertices[:, 0], other.vertices[:, 1], state.u_hat])
    assert other.coordinate_text is not text


def test_cells_file_formats_the_lattice_once_per_mesh(reference_cell, spec, check_snapshot):
    """After init and after 3 steps with moving radii, a cells file is every
    column formatted by ``%.17g``; the lattice text is built once per mesh
    and a second mesh formats its own."""
    mesh = build_micro_mesh(reference_cell, 0.5)
    sim = MicroSimulator(mesh, spec)
    state = sim.init(lambda x: 0.6 + 0.3 * np.cos(np.pi * np.atleast_2d(x)[:, 0]),
                     constant_field(0.2))
    i, j = mesh.cell_index.T
    assert "lattice_text" not in vars(mesh)
    for k in range(4):
        if k:
            state = sim.step(state, 0.01)
        check_snapshot(cell_series_csv(mesh, state), "k1,k2,r,r_rate",
                       [i, j, state.radii[i, j], state.radii_rate[i, j]])
        if k == 0:
            text = mesh.lattice_text
    assert np.all(state.radii != 0.2)  # every radius moved
    assert mesh.lattice_text is text
    other = build_micro_mesh(reference_cell, 0.25)
    state = MicroSimulator(other, spec).init(constant_field(0.9), constant_field(0.2))
    k1, k2 = other.cell_index.T
    check_snapshot(cell_series_csv(other, state), "k1,k2,r,r_rate",
                   [k1, k2, state.radii[k1, k2], state.radii_rate[k1, k2]])
    assert other.lattice_text is not text


def test_only_the_first_snapshot_formats_the_coordinates(reference_cell, params, spec,
                                                         tensor_table, monkeypatch):
    """Building the micro mesh or the macro grid, and initializing and
    stepping their solvers, formats no coordinate text: the first snapshot
    does, through any name an evopore module holds, and later ones reuse it."""
    calls = []

    def recorded(points):
        calls.append(len(points))
        return xy_text(points)

    for module in [m for name, m in sys.modules.items()
                   if m is not None and (name == "evopore" or name.startswith("evopore."))]:
        for key, value in list(vars(module).items()):
            if value is xy_text:
                monkeypatch.setattr(module, key, recorded)
    mesh = build_micro_mesh(reference_cell, 0.5)
    grid = MacroGrid.create(8)
    sim = MicroSimulator(mesh, spec)
    solver = MacroSolver(grid, tensor_table, spec)
    micro_state = sim.init(constant_field(0.9), constant_field(0.2))
    macro_state = solver.init(constant_field(0.9), constant_field(0.2))
    for _ in range(2):
        micro_state = sim.step(micro_state, 0.01)
        macro_state = solver.step(macro_state, 0.01)
    assert calls == []
    assert "coordinate_text" not in vars(mesh) and "coordinate_text" not in vars(grid)
    for _ in range(2):
        micro_snapshot_csv(mesh, micro_state)
        snapshot_csv(grid, macro_state)
    assert calls == [mesh.n_nodes, grid.n_elements]
    # the name was replaced: a call through the module is seen
    fem.xy_text(grid.nodes)
    assert calls[-1] == grid.n_nodes


def test_mesh_vertices_are_read_only(micro_mesh_half):
    with pytest.raises(ValueError):
        micro_mesh_half.vertices[0, 0] = 0.5


def test_csv_outputs(micro_mesh_half, params, spec):
    sim = MicroSimulator(micro_mesh_half, spec)
    state = sim.init(constant_field(0.9), constant_field(0.2))
    state = sim.step(state, 0.01)
    snap = micro_snapshot_csv(micro_mesh_half, state)
    assert snap.splitlines()[0] == "x1,x2,u_hat"
    assert len(snap.strip().splitlines()) == micro_mesh_half.n_nodes + 1
    cells = cell_series_csv(micro_mesh_half, state)
    assert cells.splitlines()[0] == "k1,k2,r,r_rate"
    assert len(cells.strip().splitlines()) == 5
