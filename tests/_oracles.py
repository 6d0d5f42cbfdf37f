"""Independent oracles of the cell map and the micro mesh's elements.

The package reads the radial map through the scalars of its frame and the
micro mesh's elements through the reference cell.  These helpers rebuild
the full quantities by other routes, for the tests to compare against:

- the pulled-back tensor J Psi^{-1} Psi^{-T} from ``np.linalg.inv`` and
  ``np.linalg.det`` of the frame's Jacobian;
- the image x_M + R u and the radius sensitivity dpsi/dr_gamma = (dR/dr_gamma) u
  from :func:`evopore.transform.profile` at each point's distance to the
  center;
- every micro element as the reference triangle through the cell node map,
  and every cell's hole ring as the reference ring through it;
- the micro step's surface pass on every cell's own hole ring, its edge
  lengths from the merged micro nodes, scattered by ``np.add.at``, instead
  of epsilon times the reference ring's lengths;
- the micro mesh's node merge as one ``np.unique`` of the rounded
  coordinate rows, sorted lexicographically, instead of merged rank keys;
- one implicit heat step of the pulled-back micro system on the reference
  perforation as the same step assembled as plain P1 on the physical mesh,
  the micro nodes mapped cell by cell by psi_eps at each cell's radius
  through the radial profile, with no frame scalar;
- the periodic cell problems as one dense system, solved to its
  minimum-norm solution by ``np.linalg.lstsq`` instead of a pinned sparse
  factor;
- the CSV text row by row, one Python ``row_format % row`` per line,
  instead of the package's vectorised ``%.17g`` kernel;
- the kernel spline of the cell map as scipy's ``CubicHermiteSpline``
  instead of the package's numpy piecewise cubic;
- the row-sum lumped mass as one ``np.bincount`` of every element's
  repeated weight over its vertices, instead of the macro grid's sparse
  node-element operator;
- the restriction R of the micro nodes onto the eps-periodic functions as a
  sparse 0/1 matrix, each node's periodic dof found from its coordinates
  reduced modulo epsilon, instead of through the cell node map.
"""

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import CubicHermiteSpline
from scipy.sparse.linalg import spsolve

from evopore.kinetics import eval_f
from evopore.micro import MicroMesh, cells_per_side
from evopore.transform import X_CENTER, RadialFrame, profile


def pulled_back(params, y, r_gamma):
    """J (n,), Psi^{-1} (n, 2, 2) and J Psi^{-1} Psi^{-T} (n, 2, 2) at the
    points ``y`` (n, 2) for one radius or one radius per point."""
    jac = RadialFrame(params, y).jacobian(r_gamma)
    det = np.linalg.det(jac)
    inv = np.linalg.inv(jac)
    return det, inv, det[:, None, None] * (inv @ inv.transpose(0, 2, 1))


def radial_image(params, y, r_gamma):
    """Image psi (n, 2) and dpsi/dr_gamma (n, 2) at the points ``y`` (n, 2)
    from the radial profile, and the distance rho (n,): R and dR/dr_gamma at
    rho along the unit direction, which is zero at the center."""
    d = y - X_CENTER
    rho = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    u = np.divide(d, rho[:, None], out=np.zeros_like(d), where=rho[:, None] > 0.0)
    R, _, dRg = profile(params, r_gamma, rho)
    return X_CENTER + R[:, None] * u, dRg[:, None] * u, rho


def row_unique_micro_mesh(cell, epsilon):
    """The micro mesh of the reference ``cell`` at ``epsilon``, its coincident nodes
    merged by a row-wise unique of the coordinates rounded to 1e-12."""
    n = cells_per_side(epsilon)
    reference = cell.mesh
    cells = np.array([(i, j) for i in range(n) for j in range(n)], dtype=int)
    coords = (epsilon * reference.vertices + epsilon * cells[:, None, :]).reshape(-1, 2)
    keys = np.round(coords, 12) + 0.0  # normalizes -0.0
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    rep = np.zeros(len(uniq), dtype=int)
    rep[inverse] = np.arange(len(coords))
    return MicroMesh(epsilon, n, coords[rep], cells, inverse.reshape(len(cells), -1), cell)


def tiled_triangles(mesh):
    """The micro mesh's triangles (c*m, 3), cell by cell, each cell's in the
    reference order."""
    return mesh.node_map[:, mesh.cell.mesh.triangles].reshape(-1, 3)


def hole_rings(mesh):
    """Every cell's hole-ring edges (n_cells, n_boundary, 2) as global node
    ids: the reference ring through the cell node map."""
    return mesh.node_map[:, mesh.cell.mesh.hole_boundary_facets]


def ring_edge_lengths(mesh):
    """Length (n_cells, n_boundary) of every cell's hole-ring edges, from the
    micro mesh's own nodes."""
    edges = hole_rings(mesh)
    e = mesh.vertices[edges[..., 1]] - mesh.vertices[edges[..., 0]]
    return np.hypot(e[..., 0], e[..., 1])


def surface_integrals(mesh, spec, u, radii):
    """Per-cell boundary integral (n_cells,) of f(u, r) for the nodal values
    ``u`` and the radii ``radii`` (one per cell), the nodal loads of
    (scale * f, phi_i) and their total, by two-point Gauss on every cell's
    own hole-ring edges; ``scale`` is epsilon r / r0."""
    edges = hole_rings(mesh)
    lengths = ring_edge_lengths(mesh)
    r_cell = radii.reshape(-1, 1)
    scale = mesh.epsilon * r_cell / mesh.cell.params.r0
    integral = np.zeros(mesh.n_cells)
    loads = np.zeros(mesh.n_nodes)
    for q in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
        contrib = 0.5 * lengths * eval_f(spec, (1.0 - q) * u[edges[..., 0]]
                                         + q * u[edges[..., 1]], r_cell)
        integral += contrib.sum(axis=1)
        np.add.at(loads, edges[..., 0], (1.0 - q) * scale * contrib)
        np.add.at(loads, edges[..., 1], q * scale * contrib)
    return integral, loads, float((scale[:, 0] * integral).sum())


def cell_of_element(mesh):
    """The cell (c*m,) of every triangle of :func:`tiled_triangles`."""
    return np.repeat(np.arange(mesh.n_cells), len(mesh.cell.mesh.triangles))


def _p1_geometry(vertices, triangles):
    """Areas (nt,) and basis gradients (nt, 3, 2): the gradients of nodes 1
    and 2 are the columns of the inverse of the edge matrix, that of node 0
    completes the partition of unity."""
    v = vertices[triangles]
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=1)
    inv = np.linalg.inv(edges)
    grads = np.concatenate([-inv.sum(axis=2)[:, None, :], inv.transpose(0, 2, 1)], axis=1)
    return 0.5 * np.linalg.det(edges), grads


def physical_vertices(mesh, radii):
    """The micro ``mesh``'s nodes (n_nodes, 2) mapped cell by cell by
    psi_eps at the radii ``radii`` (n, n), one per cell:
    eps (k + psi(r_k, x / eps - k)) by :func:`radial_image`.  A node that
    neighbouring cells share lies outside every annulus, where psi is the
    identity to rounding, and takes the image of its last cell."""
    x = np.empty_like(mesh.vertices)
    for nodes, k, r in zip(mesh.node_map, mesh.cell_index, radii.reshape(-1)):
        y = mesh.vertices[nodes] / mesh.epsilon - k
        x[nodes] = mesh.epsilon * (k + radial_image(mesh.cell.params, y, r)[0])
    return x


def physical_heat_step(mesh, radii, g, dt):
    """The solution u (n_nodes,) of (K + M / dt) u = M g / dt on the
    physical mesh, the mapped nodes x (n_nodes, 2) and M (n_nodes,): plain
    P1 stiffness K and row-sum lumped mass M of the micro triangles on the
    nodes of :func:`physical_vertices`, the field ``g`` evaluated at them,
    solved by scipy's sparse LU."""
    x = physical_vertices(mesh, radii)
    tri = tiled_triangles(mesh)
    areas, grads = _p1_geometry(x, tri)
    local = areas[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    n = mesh.n_nodes
    K = sp.coo_matrix((local.ravel(), (np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, 3).ravel())),
                      shape=(n, n))
    M = lumped_mass(tri, areas, np.ones(len(tri)), n)
    return spsolve((K + sp.diags(M / dt)).tocsc(), M * g(x) / dt), x, M


def periodic_system(mesh, coeff):
    """Dense periodic stiffness K (n_dof, n_dof) and the two cell-problem
    loads b (n_dof, 2) of the element coefficient ``coeff`` (nt, 2, 2) on the
    periodic ``mesh``, added element by element into the merged dofs."""
    dof, n_dof = mesh.dof_map
    areas, grads = _p1_geometry(mesh.vertices, mesh.triangles)
    K = np.zeros((n_dof, n_dof))
    b = np.zeros((n_dof, 2))
    for t, elem in enumerate(dof[mesh.triangles]):
        flux = grads[t] @ coeff[t]
        K[np.ix_(elem, elem)] += areas[t] * flux @ grads[t].T
        np.add.at(b, elem, -areas[t] * flux)
    return K, b


def cell_correctors(mesh, coeff):
    """Nodal correctors (n_nodes, 2) of the cell problems of ``coeff`` on
    ``mesh``: the minimum-norm least-squares solution of the dense
    :func:`periodic_system`, spread to the nodes and shifted to zero nodal
    mean."""
    K, b = periodic_system(mesh, coeff)
    w = np.linalg.lstsq(K, b, rcond=None)[0][mesh.dof_map[0]]
    return w - w.mean(axis=0)


def cell_tensor(mesh, coeff, w):
    """The energy form A_ij = sum_T |T| (grad w_i + e_i) . C (grad w_j + e_j)
    of the nodal correctors ``w`` (n_nodes, 2), entry by entry."""
    areas, grads = _p1_geometry(mesh.vertices, mesh.triangles)
    fields = [np.einsum("tk,tka->ta", w[mesh.triangles, i], grads) + np.eye(2)[i]
              for i in range(2)]
    return np.array([[np.sum(areas * np.einsum("ta,tab,tb->t", fields[i], coeff, fields[j]))
                      for j in range(2)] for i in range(2)])


def row_csv(header, row_format, *columns):
    """CSV text: ``header``, then one ``row_format % row`` line per row of the
    equally long ``columns``; a column that is a list of text passes through
    as it is (:func:`xy_rows`)."""
    rows = zip(*(c if isinstance(c, list) else np.asarray(c).tolist() for c in columns))
    return "\n".join([header, *map(row_format.__mod__, rows)]) + "\n"


def xy_rows(points):
    """``"x1,x2,"`` of every point (n, 2), each coordinate by ``%.17g``."""
    return list(map("%.17g,%.17g,".__mod__, zip(*points.T.tolist())))


def hermite_spline(knots, y, dydx):
    """scipy's cubic Hermite interpolant of the values ``y`` and slopes
    ``dydx`` at ``knots``."""
    return CubicHermiteSpline(knots, y, dydx)


def lumped_mass(triangles, areas, weight, n):
    """Row-sum lumped mass (n,) of the element weight ``weight`` (nt,): each
    triangle's |T| weight / 3 added to its three vertices, element by
    element."""
    return np.bincount(triangles.ravel(), np.repeat(weight * areas / 3.0, 3), minlength=n)


def periodic_restriction(mesh):
    """R (n_dof, n_nodes) of the micro ``mesh``: 1 at (d, g) when node g
    lies at a point of the reference cell's periodic dof d.  A node's point
    is its coordinates times 1/epsilon modulo 1, and a reference node's its
    own coordinates modulo 1, so the nodes of each periodic pair meet; both
    are exact, as epsilon is a power of two."""
    inv = cells_per_side(mesh.epsilon)

    def keys(points):
        reduced = np.round(np.mod(points, 1.0), 12) % 1.0
        return [tuple(p) for p in reduced.tolist()]

    dof, n_dof = mesh.cell.mesh.dof_map
    dof_of = dict(zip(keys(mesh.cell.mesh.vertices), dof.tolist()))
    rows = [dof_of[k] for k in keys(mesh.vertices * inv)]
    return sp.csr_matrix((np.ones(mesh.n_nodes), (rows, np.arange(mesh.n_nodes))),
                         shape=(n_dof, mesh.n_nodes))
