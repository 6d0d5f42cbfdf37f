import _oracles
import numpy as np
import pytest

from evopore import unitcell
from evopore.errors import MeshQualityError, NumericalError
from evopore.fem import centroids, triangle_geometry
from evopore.unitcell import (
    EffectiveTensorTable,
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


def pulled_back(mesh, params, r):
    """The pulled-back coefficient J Psi^{-1} Psi^{-T} of radius ``r`` on the
    reference ``mesh``, from the inverse of the map's Jacobian."""
    return _oracles.pulled_back(params, centroids(mesh.vertices, mesh.triangles), r)[2]


def test_mesh_quality_and_orientation(reference_mesh):
    areas, _ = triangle_geometry(reference_mesh.vertices, reference_mesh.triangles)
    assert np.all(areas > 0)
    assert reference_mesh.min_angle >= 20.0


def test_mesh_area_matches_polygon_complement(reference_mesh):
    areas, _ = triangle_geometry(reference_mesh.vertices, reference_mesh.triangles)
    r = reference_mesh.hole_radius
    n = reference_mesh.n_boundary
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


def test_periodic_pairing_is_exact(reference_mesh):
    v = reference_mesh.vertices
    partner = reference_mesh.periodic_partner
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


def test_cell_solution_mean_zero_and_periodic(reference_mesh, params):
    coeff = pulled_back(reference_mesh, params, 0.3)
    w = solve_cell_problem(reference_mesh, coeff)
    assert w.shape == (reference_mesh.n_nodes, 2)
    assert np.max(np.abs(w.mean(axis=0))) < 1e-12
    partner = reference_mesh.periodic_partner
    slaves = np.where(partner != np.arange(len(partner)))[0]
    assert np.max(np.abs(w[slaves] - w[partner[slaves]])) == 0.0
    K, b = _oracles.periodic_system(reference_mesh, coeff)
    assert np.linalg.norm(K @ dof_values(reference_mesh, w) - b) <= 1e-12 * np.linalg.norm(b)


def test_correctors_and_tensor_match_the_min_norm_oracle(reference_mesh, params):
    """On the default reference mesh, the pinned sparse factor gives the
    correctors of the dense minimum-norm solve to 1e-11 of their size, and
    the effective tensor of those correctors to 1e-13 relative, for the unit
    and a pulled-back coefficient."""
    unit = np.tile(np.eye(2), (len(reference_mesh.triangles), 1, 1))
    for coeff in (unit, pulled_back(reference_mesh, params, 0.3)):
        want = _oracles.cell_correctors(reference_mesh, coeff)
        w = solve_cell_problem(reference_mesh, coeff)
        assert np.max(np.abs(w - want)) <= 1e-11 * np.max(np.abs(want))
        a_want = _oracles.cell_tensor(reference_mesh, coeff, want)
        a_hom = effective_tensor(reference_mesh, coeff)
        assert np.max(np.abs(a_hom - a_want)) <= 1e-13 * np.max(np.abs(a_want))


def test_cell_problem_transformed_at_r0_equals_direct(reference_mesh, params):
    unit = np.tile(np.eye(2), (len(reference_mesh.triangles), 1, 1))
    a, b = (solve_cell_problem(reference_mesh, coeff)
            for coeff in (pulled_back(reference_mesh, params, params.r0), unit))
    assert np.max(np.abs(a - b)) < 1e-9


def test_cell_problem_dihedral_swap_symmetry(reference_mesh, params):
    w = solve_cell_problem(reference_mesh, pulled_back(reference_mesh, params, 0.3))
    v = reference_mesh.vertices
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, v))}
    swap = np.array([lookup[(y, x)] for (x, y) in map(tuple, v)])
    assert np.max(np.abs(w[:, 1] - w[swap, 0])) < 1e-8


def test_cell_problem_residual_orthogonality(reference_mesh, params):
    coeff = pulled_back(reference_mesh, params, 0.32)
    w = solve_cell_problem(reference_mesh, coeff)
    K, b = _oracles.periodic_system(reference_mesh, coeff)
    residual = K @ dof_values(reference_mesh, w) - b
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.standard_normal(len(b))
        phi /= np.linalg.norm(phi)
        assert np.max(np.abs(phi @ residual)) < 1e-9


def test_singular_cell_problem_is_numerical_error(params, monkeypatch):
    # a zero coefficient has a zero stiffness matrix: its factor is singular
    mesh = build_reference_mesh(params.r0, 16, 0.1)
    with pytest.raises(NumericalError, match="cell problem"):
        solve_cell_problem(mesh, np.zeros((len(mesh.triangles), 2, 2)))
    monkeypatch.setattr(unitcell, "element_stiffness", lambda areas, grads, coeff: np.zeros(
        (len(areas), 3, 3)))
    with pytest.raises(NumericalError, match=r"r=0\.15: cell problem"):
        tabulate(params, np.linspace(params.r_min, params.r_max, 5), 16, 0.1)


def test_effective_tensor_symmetry_and_isotropy(reference_mesh, params):
    A = effective_tensor(reference_mesh, pulled_back(reference_mesh, params, 0.3))
    assert abs(A[0, 1] - A[1, 0]) < 1e-12
    assert abs(A[0, 1]) < 1e-6
    assert abs(A[0, 0] - A[1, 1]) < 1e-8


def test_effective_tensor_voigt_bound(tensor_table):
    assert np.all(tensor_table.tensors[:, 0, 0] <= porosity(tensor_table.radii))


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


def test_tabulate_matches_the_inverse_jacobian_tensor(reference_mesh, params, tensor_table):
    """The table's pulled-back coefficient b I + (a - b) u u^T gives the
    tensors of J Psi^{-1} Psi^{-T} formed from the inverse Jacobian, on the
    same mesh, up to rounding."""
    for k in (0, 4, 10):
        want = effective_tensor(reference_mesh,
                                pulled_back(reference_mesh, params, tensor_table.radii[k]))
        assert np.allclose(tensor_table.tensors[k], want, rtol=1e-9, atol=1e-9)


def test_tabulate_requires_enough_points(params):
    with pytest.raises(ValueError):
        tabulate(params, np.array([0.25]))


def test_closed_form_geometry_quantities():
    assert porosity(0.25) == pytest.approx(1.0 - np.pi / 16.0, abs=1e-15)
    assert ball_volume(0.25) == pytest.approx(np.pi / 16.0, abs=1e-15)


def test_lookup_at_nodes_and_midpoints(tensor_table):
    """``components`` reads (A11, A12, A22) at a grid radius exactly, halfway
    between two at their mean, and one triple per radius of an array, in the
    array's shape: the bits of ``np.interp`` of each entry."""
    upper = ([0, 0, 1], [0, 1, 1])
    k = 3
    r = tensor_table.radii[k]
    A = tensor_table.components(r)
    assert np.array_equal(A, tensor_table.tensors[k][upper])
    assert tensor_table.theta[k] == pytest.approx(porosity(r), abs=1e-15)
    mid = 0.5 * (tensor_table.radii[k] + tensor_table.radii[k + 1])
    Amid = tensor_table.components(mid)
    expect = 0.5 * (tensor_table.tensors[k] + tensor_table.tensors[k + 1])[upper]
    assert Amid == pytest.approx(expect, abs=1e-12)
    rs = np.array([[r, mid], [mid, r]])
    many = tensor_table.components(rs)
    assert many.shape == (2, 2, 3)
    assert np.array_equal(many[0, 0], A) and np.array_equal(many[1, 0], Amid)
    r = np.random.default_rng(3).uniform(tensor_table.radii[0], tensor_table.radii[-1], (50, 4))
    for c, (i, j) in enumerate(zip(*upper)):
        want = np.interp(r, tensor_table.radii, tensor_table.tensors[:, i, j])
        assert np.array_equal(tensor_table.components(r)[..., c], want)


def test_lookup_clamps_out_of_range(tensor_table):
    # np.interp holds the end tensors: the same bits as clamping the radius
    upper = ([0, 0, 1], [0, 1, 1])
    lo, hi = tensor_table.radii[0], tensor_table.radii[-1]
    A = tensor_table.components(np.array([lo - 0.05, hi + 0.05]))
    assert np.array_equal(A[0], tensor_table.tensors[0][upper])
    assert np.array_equal(A[1], tensor_table.tensors[-1][upper])
    assert np.array_equal(A, tensor_table.components(np.clip([lo - 0.05, hi + 0.05], lo, hi)))


def test_table_rejects_non_symmetric_tensors(tensor_table):
    tensors = tensor_table.tensors.copy()
    tensors[2, 1, 0] = np.nextafter(tensors[2, 0, 1], 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        EffectiveTensorTable(tensor_table.radii, tensors, tensor_table.theta)


def test_table_csv_roundtrip(tensor_table):
    text = tensor_table.to_csv()
    back = EffectiveTensorTable.from_csv(text)
    assert np.array_equal(back.radii, tensor_table.radii)
    assert np.array_equal(back.tensors, tensor_table.tensors)
    assert np.array_equal(back.theta, tensor_table.theta)
    assert back.to_csv() == text


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_table_rejects_non_finite_radii(bad):
    radii = np.array([0.15, bad, 0.25, 0.3, 0.35])
    with pytest.raises(ValueError, match="finite"):
        EffectiveTensorTable(radii, np.multiply.outer(np.ones(5), np.eye(2)), np.ones(5))
