import _oracles
import numpy as np
import pytest

from evopore.config import DEFAULT_CONFIG, parse_config
from evopore.errors import MeshQualityError, NumericalError
from evopore import unitcell
from evopore.fem import centroids, triangle_geometry
from evopore.unitcell import (
    EffectiveTensorTable,
    ReferenceCell,
    ball_volume,
    build_reference_mesh,
    effective_tensor,
    porosity,
    solve_cell_problem,
    tabulate,
    table_checks,
)

# frozen oracle: unit coefficient on a mesh at the radius, n_boundary=256, target_h=0.01
A11_FINE_ORACLE = 0.6717112762
# the (row, column) indices of a 2 x 2 tensor's table entries A11, A12, A22
UPPER = ([0, 0, 1], [0, 1, 1])


def square_array_ratio(r):
    """A/D of a square array of insulating discs of radius ``r`` in the unit
    cell, f = pi r^2: the formula of Perrins, McKenzie & McPhedran (Proc. R.
    Soc. A 369 (1979) 207-225) by Rayleigh's method, whose leading term is
    Maxwell Garnett's (1 - f) / (1 + f)."""
    f = np.pi * np.asarray(r) ** 2
    return 1.0 - 2.0 * f / (1.0 + f - 0.305827 * f**4 / (1.0 - 1.402958 * f**8)
                            - 0.013362 * f**8)


def pulled_back(mesh, params, r):
    """The pulled-back coefficient J Psi^{-1} Psi^{-T} of radius ``r`` on the
    reference ``mesh``, from the inverse of the map's Jacobian."""
    return _oracles.pulled_back(params, centroids(mesh.vertices, mesh.triangles), r)[2]


def test_mesh_quality_and_orientation(reference_cell):
    areas, _ = triangle_geometry(reference_cell.mesh.vertices, reference_cell.mesh.triangles)
    assert np.all(areas > 0)
    assert reference_cell.mesh.min_angle >= 20.0


def test_mesh_area_matches_polygon_complement(reference_cell):
    areas, _ = triangle_geometry(reference_cell.mesh.vertices, reference_cell.mesh.triangles)
    r = reference_cell.mesh.hole_radius
    n = reference_cell.mesh.n_boundary
    exact = 1.0 - (n / 2.0) * r * r * np.sin(2 * np.pi / n)
    assert areas.sum() == pytest.approx(exact, abs=1e-13)


def test_mesh_polygon_area_converges_quadratically():
    r = 0.25
    errs = []
    for n in (32, 64):
        mesh = build_reference_mesh(r, n, 0.05)
        areas, _ = triangle_geometry(mesh.vertices, mesh.triangles)
        errs.append(abs(areas.sum() - (1.0 - np.pi * r * r)))
    assert errs[1] < errs[0]
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_periodic_pairing_is_exact(reference_cell):
    v = reference_cell.mesh.vertices
    partner = reference_cell.mesh.periodic_partner
    on_top = np.abs(v[:, 1] - 1.0) < 1e-12
    right = np.where((np.abs(v[:, 0] - 1.0) < 1e-12) & ~on_top)[0]
    assert len(right) > 0
    for i in right:
        j = partner[i]
        assert abs(v[j, 0]) < 1e-12
        assert v[j, 1] == v[i, 1]
    for i in np.where(on_top)[0]:
        j = partner[i]
        assert abs(v[j, 1]) < 1e-12
        assert v[j, 0] == v[i, 0]
    # the involution closes: the top-right corner chains to the origin
    master = partner[partner[partner]]
    corner = np.where((np.abs(v[:, 0] - 1.0) < 1e-12) & on_top)[0][0]
    assert np.max(np.abs(v[master[corner]])) < 1e-12


def test_mesh_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_reference_mesh(0.25, 12, 0.05)
    with pytest.raises(ValueError):
        build_reference_mesh(0.25, 64, 0.3)
    with pytest.raises(ValueError):
        build_reference_mesh(0.6, 64, 0.05)


def test_mesh_quality_error_for_degenerate_combo():
    # extremely fine rings on a very coarse polygon produce slivers
    with pytest.raises(MeshQualityError):
        build_reference_mesh(0.45, 16, 0.004)


def dof_values(mesh, w):
    """The values (n_dof, ...) of the nodal field ``w`` at the merged dofs."""
    return w[np.unique(mesh.dof_map[0], return_index=True)[1]]


def test_cell_solution_mean_zero_and_periodic(reference_cell, params):
    coeff = pulled_back(reference_cell.mesh, params, 0.3)
    w = solve_cell_problem(reference_cell.mesh, coeff)
    assert w.shape == (reference_cell.mesh.n_nodes, 2)
    assert np.max(np.abs(w.mean(axis=0))) < 1e-12
    partner = reference_cell.mesh.periodic_partner
    slaves = np.where(partner != np.arange(len(partner)))[0]
    assert np.max(np.abs(w[slaves] - w[partner[slaves]])) == 0.0
    K, b = _oracles.periodic_system(reference_cell.mesh, coeff)
    assert np.linalg.norm(K @ dof_values(reference_cell.mesh, w) - b) <= 1e-12 * np.linalg.norm(b)


def test_correctors_and_tensor_match_the_min_norm_oracle(reference_cell, params):
    """On the default reference mesh, the pinned sparse factor gives the
    correctors of the dense minimum-norm solve to 1e-11 of their size, and
    the effective tensor of those correctors to 1e-13 relative, for the unit
    and a pulled-back coefficient."""
    unit = np.tile(np.eye(2), (len(reference_cell.mesh.triangles), 1, 1))
    for coeff in (unit, pulled_back(reference_cell.mesh, params, 0.3)):
        want = _oracles.cell_correctors(reference_cell.mesh, coeff)
        w = solve_cell_problem(reference_cell.mesh, coeff)
        assert np.max(np.abs(w - want)) <= 1e-11 * np.max(np.abs(want))
        a_want = _oracles.cell_tensor(reference_cell.mesh, coeff, want)
        a_hom = effective_tensor(reference_cell.mesh, coeff)
        assert np.max(np.abs(a_hom - a_want)) <= 1e-13 * np.max(np.abs(a_want))


def test_cell_problem_transformed_at_r0_equals_direct(reference_cell, params):
    unit = np.tile(np.eye(2), (len(reference_cell.mesh.triangles), 1, 1))
    a, b = (solve_cell_problem(reference_cell.mesh, coeff)
            for coeff in (pulled_back(reference_cell.mesh, params, params.r0), unit))
    assert np.max(np.abs(a - b)) < 1e-9


def test_cell_problem_dihedral_swap_symmetry(reference_cell, params):
    w = solve_cell_problem(reference_cell.mesh, pulled_back(reference_cell.mesh, params, 0.3))
    v = reference_cell.mesh.vertices
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, v))}
    swap = np.array([lookup[(y, x)] for (x, y) in map(tuple, v)])
    assert np.max(np.abs(w[:, 1] - w[swap, 0])) < 1e-8


def test_cell_problem_residual_orthogonality(reference_cell, params):
    coeff = pulled_back(reference_cell.mesh, params, 0.32)
    w = solve_cell_problem(reference_cell.mesh, coeff)
    K, b = _oracles.periodic_system(reference_cell.mesh, coeff)
    residual = K @ dof_values(reference_cell.mesh, w) - b
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.standard_normal(len(b))
        phi /= np.linalg.norm(phi)
        assert np.max(np.abs(phi @ residual)) < 1e-9


def test_singular_cell_problem_is_numerical_error(params):
    # a zero coefficient has a zero stiffness matrix: its factor is singular
    cell = ReferenceCell(params, 16, 0.1)
    mesh = cell.mesh
    with pytest.raises(NumericalError, match="cell problem"):
        solve_cell_problem(mesh, np.zeros((len(mesh.triangles), 2, 2)))
    # so are the tabulated ones when the cell's operators are zero
    cell.system = 0.0 * cell.system
    with pytest.raises(NumericalError, match=r"r=0\.15: cell problem"):
        tabulate(cell, np.linspace(params.r_min, params.r_max, 5))


def test_effective_tensor_symmetry_and_isotropy(reference_cell, params):
    A = effective_tensor(reference_cell.mesh, pulled_back(reference_cell.mesh, params, 0.3))
    assert abs(A[0, 1] - A[1, 0]) < 1e-12
    assert abs(A[0, 1]) < 1e-6
    assert abs(A[0, 0] - A[1, 1]) < 1e-8


def test_effective_tensor_voigt_bound(tensor_table):
    assert np.all(tensor_table.entries[:, 0] <= porosity(tensor_table.radii))


def test_effective_tensor_fine_oracle(params):
    mesh = build_reference_mesh(0.25, 64, 0.03)
    A = effective_tensor(mesh)
    assert abs(A[0, 0] - A11_FINE_ORACLE) / A11_FINE_ORACLE < 0.01
    At = effective_tensor(mesh, pulled_back(mesh, params, 0.25))
    assert abs(At[0, 0] - A[0, 0]) / A[0, 0] < 0.005


def test_direct_vs_transformed_agreement(params):
    ref = build_reference_mesh(params.r0, 64, 0.03)
    for r in (0.15, 0.25, 0.35):
        direct_mesh = build_reference_mesh(r, 64, 0.03)
        Ad = effective_tensor(direct_mesh)
        At = effective_tensor(ref, pulled_back(ref, params, r))
        rel = np.linalg.norm(Ad - At) / np.linalg.norm(Ad)
        assert rel <= 0.005


def test_mesh_refinement_order(params):
    vals = []
    for n, h in ((32, 0.08), (64, 0.04), (128, 0.02)):
        mesh = build_reference_mesh(0.25, n, h)
        vals.append(effective_tensor(mesh)[0, 0])
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert d2 < d1
    assert np.log2(d1 / d2) >= 1.5


def test_tabulate_checks_pass(tensor_table):
    checks = table_checks(tensor_table)
    assert all(checks.values()), checks


def test_every_table_check_can_fail():
    """Each check ``table_checks`` reports has a table that fails it and
    passes the other three, so none holds by construction."""
    radii = np.linspace(0.15, 0.35, 5)
    a11 = np.linspace(0.6, 0.4, 5)
    good = np.stack([a11, np.zeros(5), a11], axis=1)
    assert all(table_checks(EffectiveTensorTable(radii, good)).values())
    indefinite, offdiag, above, flat = (good.copy() for _ in range(4))
    indefinite[2, 2] = -0.1          # A22 < 0 beside A11 > 0
    offdiag[2, 1] = 1e-3             # still definite: A11 A22 = 0.25 >> 1e-6
    above[0] = [0.95, 0.0, 0.95]     # above the porosity 0.929 of r = 0.15
    flat[3, 0] = flat[2, 0]          # A11 repeats a value
    witnesses = {"positive_definite": indefinite, "offdiag_1e-6": offdiag,
                 "voigt_bound": above, "A11_strictly_decreasing": flat}
    for name, entries in witnesses.items():
        checks = table_checks(EffectiveTensorTable(radii, entries))
        assert set(checks) == set(witnesses)
        assert {k for k, ok in checks.items() if not ok} == {name}


def test_positive_definite_check_matches_the_eigenvalues(tensor_table):
    """The check on the entries, A11 > 0 and A11 A22 - A12^2 > 0, agrees
    with the smallest eigenvalue of the 2 x 2 tensor on the tabulated table
    and, one radius at a time, on random triples: definite, indefinite and
    with A11 <= 0."""
    def tensor(e):
        return np.array([[e[0], e[1]], [e[1], e[2]]])

    def definite(entries):
        table = EffectiveTensorTable(np.linspace(0.15, 0.35, len(entries)), entries)
        return table_checks(table)["positive_definite"]

    assert definite(tensor_table.entries)
    assert all(np.linalg.eigvalsh(tensor(e)).min() > 0 for e in tensor_table.entries)
    rng = np.random.default_rng(34)
    triples = rng.uniform(-1.0, 1.0, (1200, 3))
    triples[:400, 0] = np.abs(triples[:400, 0])
    triples[:400, 2] = np.abs(triples[:400, 2])
    triples[400:600, 0] = -np.abs(triples[400:600, 0])
    triples[600, 0] = 0.0
    eig = np.array([np.linalg.eigvalsh(tensor(e)).min() > 0 for e in triples])
    assert 100 < eig.sum() < 1100 and not eig[400:601].any()
    assert [definite(e[None]) for e in triples] == list(eig)


def test_positive_definite_check_does_not_overflow():
    """Entries near the largest double, whose product A11 A22 overflows,
    are checked through their square roots: no RuntimeWarning, and the
    tensor 1e200 [[1, 0.5], [0.5, 1]] is definite while 1e200 [[1, 2], [2, 1]]
    is not."""
    radii = np.linspace(0.15, 0.35, 5)
    for off, definite in ((5e199, True), (2e200, False), (1e300, False)):
        entries = np.tile([1e200, off, 1e200], (5, 1))
        assert table_checks(EffectiveTensorTable(radii, entries))["positive_definite"] == definite
    entries = np.tile([1.7e308, 1.6e308, 1.7e308], (5, 1))
    assert table_checks(EffectiveTensorTable(radii, entries))["positive_definite"]


def test_mass_and_drift_polynomials_match_the_per_element_formulas(reference_cell, params):
    """At random radii, the cell's mass coefficients applied to (1, d, d^2),
    d = r - r0, give the lumped mass of the frame's J, and its drift
    operator applied to nodal values U as ``B0 U + d B1 U`` gives the
    per-element drift loads ``|T| J s mean(U) w`` summed at the vertices,
    both to 1e-14 relative.  Summed over the nodes, the mass coefficients
    are the pore area ``areas @ J`` at 9 radii to 1e-13: a quadratic in d."""
    cell, mesh = reference_cell, reference_cell.mesh
    rng = np.random.default_rng(35)
    radii = rng.uniform(params.r_min, params.r_max, 12)
    powers = np.vander(radii - params.r0, 3, increasing=True).T
    sc = cell.frame.scalars(radii.reshape(-1, 1))      # (element, radius)
    want = cell.mass @ sc.det
    got = cell.mass_coefficients @ powers
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    areas, grads = mesh.geometry
    w = (grads @ cell.frame.directions()[:, :, None])[:, :, 0]
    U = rng.uniform(0.2, 0.9, (mesh.n_nodes, len(radii)))
    weight = sc.det * sc.s * U[mesh.triangles].mean(axis=1)
    want = np.zeros_like(U)
    for a in range(3):
        np.add.at(want, mesh.triangles[:, a], (areas * w[:, a])[:, None] * weight)
    loads = cell.drift @ U
    got = loads[:mesh.n_nodes] + powers[1] * loads[mesh.n_nodes:]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    radii = np.linspace(params.r_min, params.r_max, 9)
    want = areas @ cell.frame.scalars(radii.reshape(-1, 1)).det
    got = cell.mass_coefficients.sum(axis=0) @ np.vander(radii - params.r0, 3, increasing=True).T
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_tabulate_matches_the_inverse_jacobian_tensor(reference_cell, params, tensor_table):
    """The table's pulled-back coefficient b I + (a - b) u u^T gives the
    tensors of J Psi^{-1} Psi^{-T} formed from the inverse Jacobian, on the
    same mesh, up to rounding."""
    for k in (0, 4, 10):
        want = effective_tensor(reference_cell.mesh,
                                pulled_back(reference_cell.mesh, params, tensor_table.radii[k]))
        assert np.allclose(tensor_table.entries[k], want[UPPER], rtol=1e-9, atol=1e-9)


def test_tabulate_matches_the_element_route_and_the_dense_oracle(reference_cell, params,
                                                                  tensor_table):
    """The table's stiffness, one product of the cell's operators for all
    radii, gives the tensors of the element route, ``effective_tensor`` of
    the coefficient b I + (a - b) u u^T, to 1e-13 relative at every radius
    of the default table, and those of the dense minimum-norm oracle at
    r_min, r0 and r_max."""
    mesh = reference_cell.mesh
    assert np.array_equal(tensor_table.radii, parse_config(DEFAULT_CONFIG).table_radii)
    assert tensor_table.radii[[0, 5, 10]] == pytest.approx([params.r_min, params.r0, params.r_max])
    u = reference_cell.frame.directions()
    for k, r in enumerate(tensor_table.radii):
        sc = reference_cell.frame.scalars(r)
        coeff = (sc.b[:, None, None] * np.eye(2)
                 + (1 / sc.b - sc.b)[:, None, None] * u[:, :, None] * u[:, None, :])
        wants = [effective_tensor(mesh, coeff)]
        if k in (0, 5, 10):
            wants.append(_oracles.cell_tensor(mesh, coeff, _oracles.cell_correctors(mesh, coeff)))
        for want in wants:
            assert (np.max(np.abs(tensor_table.entries[k] - want[UPPER]))
                    <= 1e-13 * np.max(np.abs(want)))


def test_tabulate_converges_to_the_square_array_formula(params, tensor_table):
    """The table's A11 and A22 approach the closed form at second order in
    the mesh size: the max relative gap over the table radii was 6.8e-3,
    1.7e-3 and 4.1e-4 on the three meshes."""
    gaps = []
    for table in (tensor_table, tabulate(ReferenceCell(params, 128, 0.025), tensor_table.radii),
                  tabulate(ReferenceCell(params, 256, 0.0125), tensor_table.radii)):
        diagonal = table.entries[:, [0, 2]]
        gaps.append(np.max(np.abs(diagonal / square_array_ratio(table.radii)[:, None] - 1.0)))
    assert gaps[0] <= 0.01
    assert gaps[0] >= 3.0 * gaps[1] and gaps[1] >= 3.0 * gaps[2], gaps


def test_tabulate_requires_enough_points(reference_cell):
    with pytest.raises(ValueError):
        tabulate(reference_cell, np.array([0.25]))


def test_tabulate_rejects_radii_outside_the_box(reference_cell, params):
    """A radius outside [r_min, r_max], or not a number, fails the range
    check before any cell problem is assembled."""
    grid = np.linspace(params.r_min, params.r_max, 5)
    for bad in (params.r_max + 0.01, np.nan):
        with pytest.raises(ValueError, match=r"table radii must lie in \[r_min, r_max\]"):
            tabulate(reference_cell, np.append(grid[:-1], bad))


@pytest.mark.parametrize("order", ["repeated", "decreasing"])
def test_tabulate_rejects_radii_out_of_order_before_solving(params, monkeypatch, order):
    """A grid that is not strictly increasing fails with the table's own
    message before any cell problem is solved, and before the cell builds
    its operators."""
    grid = np.linspace(params.r_min, params.r_max, 5)
    grid = np.append(grid, grid[-1]) if order == "repeated" else grid[::-1]
    monkeypatch.setattr(unitcell, "effective_tensor", lambda *a, **k: pytest.fail("solved"))
    cell = ReferenceCell(params, 16, 0.1)
    with pytest.raises(ValueError, match="table radii must be strictly increasing"):
        tabulate(cell, grid)
    assert "system" not in vars(cell)


def test_closed_form_geometry_quantities():
    assert porosity(0.25) == pytest.approx(1.0 - np.pi / 16.0, abs=1e-15)
    assert ball_volume(0.25) == pytest.approx(np.pi / 16.0, abs=1e-15)


def test_lookup_at_nodes_and_midpoints(tensor_table):
    """``components`` reads (A11, A12, A22) at a grid radius exactly, halfway
    between two at their mean, and one triple per radius of an array, in the
    array's shape: the bits of ``np.interp`` of each entry."""
    k = 3
    r = tensor_table.radii[k]
    A = tensor_table.components(r)
    assert np.array_equal(A, tensor_table.entries[k])
    mid = 0.5 * (tensor_table.radii[k] + tensor_table.radii[k + 1])
    Amid = tensor_table.components(mid)
    expect = 0.5 * (tensor_table.entries[k] + tensor_table.entries[k + 1])
    assert Amid == pytest.approx(expect, abs=1e-12)
    rs = np.array([[r, mid], [mid, r]])
    many = tensor_table.components(rs)
    assert many.shape == (2, 2, 3)
    assert np.array_equal(many[0, 0], A) and np.array_equal(many[1, 0], Amid)
    r = np.random.default_rng(3).uniform(tensor_table.radii[0], tensor_table.radii[-1], (50, 4))
    for c in range(3):
        want = np.interp(r, tensor_table.radii, tensor_table.entries[:, c])
        assert np.array_equal(tensor_table.components(r)[..., c], want)


def test_lookup_clamps_out_of_range(tensor_table):
    # np.interp holds the end tensors: the same bits as clamping the radius
    lo, hi = tensor_table.radii[0], tensor_table.radii[-1]
    A = tensor_table.components(np.array([lo - 0.05, hi + 0.05]))
    assert np.array_equal(A[0], tensor_table.entries[0])
    assert np.array_equal(A[1], tensor_table.entries[-1])
    assert np.array_equal(A, tensor_table.components(np.clip([lo - 0.05, hi + 0.05], lo, hi)))


def test_table_csv_roundtrip(tensor_table):
    text = tensor_table.to_csv()
    back = EffectiveTensorTable.from_csv(text)
    assert np.array_equal(back.radii, tensor_table.radii)
    assert np.array_equal(back.entries, tensor_table.entries)
    assert back.to_csv() == text


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_table_rejects_non_finite_radii(bad):
    radii = np.array([0.15, bad, 0.25, 0.3, 0.35])
    with pytest.raises(ValueError, match="finite"):
        EffectiveTensorTable(radii, np.tile([1.0, 0.0, 1.0], (5, 1)))


def test_table_rejects_non_finite_entries():
    """A non-finite A11, A12 or A22 fails on construction, so a loaded table
    needs no finiteness check of its own."""
    for bad in (np.nan, np.inf, -np.inf):
        for column in range(3):
            entries = np.tile([1.0, 0.0, 1.0], (5, 1))
            entries[2, column] = bad
            with pytest.raises(ValueError, match="non-finite"):
                EffectiveTensorTable([0.15, 0.2, 0.25, 0.3, 0.35], entries)


@pytest.mark.parametrize("entries, shapes", [
    (np.ones((4, 3)), r"\(5,\) and entries \(4, 3\)"),
    (np.tile(np.eye(3), (5, 1, 1)), r"\(5,\) and entries \(5, 3, 3\)"),
], ids=["lengths", "3x3"])
def test_table_rejects_mismatched_shapes(entries, shapes):
    """A table whose entries are not one (A11, A12, A22) per radius, as one
    3 x 3 tensor per radius is not, fails on construction and names the
    shapes, not later inside a lookup."""
    with pytest.raises(ValueError, match=shapes):
        EffectiveTensorTable([0.15, 0.2, 0.25, 0.3, 0.35], entries)
