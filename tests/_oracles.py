"""Independent oracles of the cell map and the micro mesh's elements.

The package reads the radial map through five scalars per point and the
micro mesh's elements through the reference cell.  These helpers rebuild
the full quantities by other routes, for the tests to compare against:

- the pulled-back tensor J Psi^{-1} Psi^{-T} from ``np.linalg.inv`` and
  ``np.linalg.det`` of the frame's Jacobian;
- the image x_M + R u and the radius sensitivity dpsi/dr_gamma = (dR/dr_gamma) u
  from :func:`evopore.transform.profile` at each point's distance to the
  center;
- every micro element as the reference triangle through the cell node map.
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
