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
- the periodic cell problems as one dense system, solved to its
  minimum-norm solution by ``np.linalg.lstsq`` instead of a pinned sparse
  factor.
"""

import numpy as np

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
