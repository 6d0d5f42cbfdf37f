"""Independent oracles of the cell map and the micro mesh's elements.

The package reads the radial map through five scalars per point and the
micro mesh's elements through the reference cell.  These helpers rebuild
the full quantities by other routes, for the tests to compare against:

- the pulled-back tensor J Psi^{-1} Psi^{-T} from ``np.linalg.inv`` and
  ``np.linalg.det`` of the frame's Jacobian;
- the image x_M + R u and the radius sensitivity dpsi/dr_gamma = (dR/dr_gamma) u
  from :func:`evopore.transform.profile` at each point's distance to the
  center;
- every micro element as the reference triangle through the cell node map;
- the micro mesh's node merge as one ``np.unique`` of the rounded
  coordinate rows, sorted lexicographically, instead of merged rank keys;
- the periodic cell problems as one dense system, solved to its
  minimum-norm solution by ``np.linalg.lstsq`` instead of a pinned sparse
  factor;
- the CSV text row by row, one Python ``row_format % row`` per line,
  instead of the package's vectorised ``%.17g`` kernel.
"""

import numpy as np

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


def row_unique_micro_mesh(reference, epsilon):
    """The micro mesh of ``reference`` at ``epsilon``, its coincident nodes
    merged by a row-wise unique of the coordinates rounded to 1e-12."""
    n = cells_per_side(epsilon)
    cells = np.array([(i, j) for i in range(n) for j in range(n)], dtype=int)
    coords = (epsilon * reference.vertices + epsilon * cells[:, None, :]).reshape(-1, 2)
    keys = np.round(coords, 12) + 0.0  # normalizes -0.0
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    rep = np.zeros(len(uniq), dtype=int)
    rep[inverse] = np.arange(len(coords))
    node_map = inverse.reshape(len(cells), -1)
    gamma = node_map[:, reference.hole_boundary_facets.ravel()].reshape(len(cells), -1, 2)
    return MicroMesh(epsilon, n, coords[rep], cells, gamma, node_map, reference)


def tiled_triangles(mesh):
    """The micro mesh's triangles (c*m, 3), cell by cell, each cell's in the
    reference order."""
    return mesh.node_map[:, mesh.reference.triangles].reshape(-1, 3)


def cell_of_element(mesh):
    """The cell (c*m,) of every triangle of :func:`tiled_triangles`."""
    return np.repeat(np.arange(mesh.n_cells), len(mesh.reference.triangles))


def _p1_geometry(mesh):
    """Areas (nt,) and basis gradients (nt, 3, 2): the gradients of nodes 1
    and 2 are the columns of the inverse of the edge matrix, that of node 0
    completes the partition of unity."""
    v = mesh.vertices[mesh.triangles]
    edges = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=1)
    inv = np.linalg.inv(edges)
    grads = np.concatenate([-inv.sum(axis=2)[:, None, :], inv.transpose(0, 2, 1)], axis=1)
    return 0.5 * np.linalg.det(edges), grads


def periodic_system(mesh, coeff):
    """Dense periodic stiffness K (n_dof, n_dof) and the two cell-problem
    loads b (n_dof, 2) of the element coefficient ``coeff`` (nt, 2, 2) on the
    periodic ``mesh``, added element by element into the merged dofs."""
    dof, n_dof = mesh.dof_map
    areas, grads = _p1_geometry(mesh)
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
    areas, grads = _p1_geometry(mesh)
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
