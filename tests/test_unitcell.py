import numpy as np
import pytest

from evopore.errors import MeshQualityError, NumericalError
from evopore.fem import StiffnessPattern, centroids, element_stiffness, triangle_geometry
from evopore.transform import RadialFrame
from evopore.unitcell import (
    CellProblem,
    EffectiveTensorTable,
    ball_volume,
    build_reference_mesh,
    effective_tensor,
    porosity,
    tabulate,
    table_checks,
)

# frozen oracle: unit coefficient on a mesh at the radius, n_boundary=256, target_h=0.01
A11_FINE_ORACLE = 0.6717112762


def pulled_back(mesh, params, r):
    """The pulled-back coefficient of radius ``r`` on the reference ``mesh``."""
    return RadialFrame(params, centroids(mesh.vertices, mesh.triangles)).evaluate(r).coeff


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


def test_cell_solution_mean_zero_and_periodic(reference_mesh, params):
    problem = CellProblem(reference_mesh, pulled_back(reference_mesh, params, 0.3))
    w, report = problem.corrector(0, 1e-10)
    assert abs(w.mean()) < 1e-12
    partner = reference_mesh.periodic_partner
    slaves = np.where(partner != np.arange(len(partner)))[0]
    assert np.max(np.abs(w[slaves] - w[partner[slaves]])) == 0.0
    assert report.final_residual <= 1e-10


def test_cell_problem_transformed_at_r0_equals_direct(reference_mesh, params):
    a, b = (CellProblem(reference_mesh, coeff).corrector(0, 1e-10)[0]
            for coeff in (pulled_back(reference_mesh, params, params.r0), None))
    assert np.max(np.abs(a - b)) < 1e-9


def test_cell_problem_dihedral_swap_symmetry(reference_mesh, params):
    problem = CellProblem(reference_mesh, pulled_back(reference_mesh, params, 0.3))
    w1, w2 = (problem.corrector(j, 1e-10)[0] for j in (0, 1))
    v = reference_mesh.vertices
    lookup = {(x, y): i for i, (x, y) in enumerate(map(tuple, v))}
    swap = np.array([lookup[(y, x)] for (x, y) in map(tuple, v)])
    assert np.max(np.abs(w2 - w1[swap])) < 1e-8


def test_cell_problem_residual_orthogonality(reference_mesh, params):
    from evopore.fem import scatter_element_loads

    r = 0.32
    w = CellProblem(reference_mesh, pulled_back(reference_mesh, params, r)).corrector(0, 1e-11)[0]
    areas, grads = triangle_geometry(reference_mesh.vertices, reference_mesh.triangles)
    mids = centroids(reference_mesh.vertices, reference_mesh.triangles)
    coeff = RadialFrame(params, mids).evaluate(r).coeff
    dof, n_dof = reference_mesh.dof_map
    K = StiffnessPattern(dof[reference_mesh.triangles], n_dof).assemble(
        element_stiffness(areas, grads, coeff))
    loads = -np.einsum("tia,ta->ti", grads, coeff[:, :, 0]) * areas[:, None]
    b = scatter_element_loads(reference_mesh.triangles, loads, dof, n_dof)
    firsts = np.unique(dof, return_index=True)[1]
    residual = K @ w[firsts] - b
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.standard_normal(n_dof)
        phi /= np.linalg.norm(phi)
        assert abs(phi @ residual) < 1e-9


def test_unconverged_cell_problem_is_numerical_error(params):
    # a tolerance no float64 solve reaches: CG runs to its iteration limit
    mesh = build_reference_mesh(params.r0, 16, 0.1)
    problem = CellProblem(mesh, pulled_back(mesh, params, 0.3))
    with pytest.raises(NumericalError, match="direction 1: CG stalled"):
        problem.corrector(1, 1e-300)
    with pytest.raises(NumericalError, match=r"r=0\.15: cell problem in direction 0"):
        tabulate(params, np.linspace(params.r_min, params.r_max, 5), 16, 0.1, tol=1e-300)


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


def test_tabulate_requires_enough_points(params):
    with pytest.raises(ValueError):
        tabulate(params, np.array([0.25]))


def test_closed_form_geometry_quantities():
    assert porosity(0.25) == pytest.approx(1.0 - np.pi / 16.0, abs=1e-15)
    assert ball_volume(0.25) == pytest.approx(np.pi / 16.0, abs=1e-15)


def test_lookup_at_nodes_and_midpoints(tensor_table):
    k = 3
    r = tensor_table.radii[k]
    A = tensor_table.lookup(r)
    assert np.array_equal(A, tensor_table.tensors[k])
    assert tensor_table.theta[k] == pytest.approx(porosity(r), abs=1e-15)
    mid = 0.5 * (tensor_table.radii[k] + tensor_table.radii[k + 1])
    Amid = tensor_table.lookup(mid)
    expect = 0.5 * (tensor_table.tensors[k] + tensor_table.tensors[k + 1])
    assert Amid == pytest.approx(expect, abs=1e-12)
    # an array of radii reads one tensor per radius, in the array's shape
    rs = np.array([[r, mid], [mid, r]])
    many = tensor_table.lookup(rs)
    assert many.shape == (2, 2, 2, 2)
    assert np.array_equal(many[0, 0], A) and np.array_equal(many[1, 0], Amid)


def test_lookup_clamps_out_of_range(tensor_table):
    # np.interp holds the end tensors: the same bits as clamping the radius
    lo, hi = tensor_table.radii[0], tensor_table.radii[-1]
    A = tensor_table.lookup(np.array([lo - 0.05, hi + 0.05]))
    assert np.array_equal(A[0], tensor_table.tensors[0])
    assert np.array_equal(A[1], tensor_table.tensors[-1])
    assert np.array_equal(A, tensor_table.lookup(np.clip([lo - 0.05, hi + 0.05], lo, hi)))


def test_lookup_mirrors_the_interpolated_a12(tensor_table):
    """Three interpolations, A12 mirrored into A21: the bits of interpolating
    all four entries, since the table is exactly symmetric."""
    r = np.random.default_rng(3).uniform(tensor_table.radii[0], tensor_table.radii[-1], (50, 4))
    four = np.empty(r.shape + (2, 2))
    for i in range(2):
        for j in range(2):
            four[..., i, j] = np.interp(r, tensor_table.radii, tensor_table.tensors[:, i, j])
    assert np.array_equal(tensor_table.lookup(r), four)
    assert np.array_equal(tensor_table.components(r), four[..., [0, 0, 1], [0, 1, 1]])


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
