"""Shared P1 finite-element pieces for triangle meshes.

All solvers in the package use linear triangles with one-point (centroid)
quadrature for variable coefficients and row-sum lumped mass matrices.  The
macro and micro steppers share one implicit step, :func:`backward_euler_step`;
they differ only in the mass weight (porosity or Jacobian) and the tensor
(homogenized or pulled back).  :func:`csv_table` formats every CSV output of
the package.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .sparse import solve_cg


def triangle_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Areas and P1 basis gradients.

    Returns ``(areas, grads)`` with shapes (nt,) and (nt, 3, 2); triangles
    must be positively oriented.
    """
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    areas = 0.5 * det
    grads = np.empty((len(triangles), 3, 2))
    grads[:, 1, 0] = e2[:, 1] / det
    grads[:, 1, 1] = -e2[:, 0] / det
    grads[:, 2, 0] = -e1[:, 1] / det
    grads[:, 2, 1] = e1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return areas, grads


def centroids(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    return (vertices[triangles[:, 0]] + vertices[triangles[:, 1]] + vertices[triangles[:, 2]]) / 3.0


def assemble_stiffness(triangles: np.ndarray, areas: np.ndarray, grads: np.ndarray,
                       coeff: np.ndarray, dof_of_node: np.ndarray | None, n_dof: int,
                       diagonal: np.ndarray | None = None) -> sp.csr_matrix:
    """Stiffness matrix for coefficient ``coeff`` (nt, 2, 2) at centroids.

    ``dof_of_node`` merges nodes into shared degrees of freedom (periodic
    pairing); with ``None`` every node is its own dof.  ``diagonal`` (n_dof,)
    is added to the main diagonal.  Duplicate entries are summed in input
    order.
    """
    k_el = np.einsum("tia,tab,tjb->tij", grads, coeff, grads) * areas[:, None, None]
    dofs = triangles if dof_of_node is None else dof_of_node[triangles]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    vals = k_el.ravel()
    if diagonal is not None:
        idx = np.arange(n_dof)
        rows = np.concatenate([rows, idx])
        cols = np.concatenate([cols, idx])
        vals = np.concatenate([vals, diagonal])
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(n_dof, n_dof)).tocsr()
    if not np.all(np.isfinite(csr.data)):
        raise ValueError("sparse matrix contains non-finite values")
    return csr


def lumped_mass(triangles: np.ndarray, areas: np.ndarray, weight: np.ndarray,
                n: int) -> np.ndarray:
    """Row-sum lumped mass of the element weight ``weight`` (nt,) on n nodes."""
    return np.bincount(triangles.ravel(), np.repeat(weight * areas / 3.0, 3), minlength=n)


def backward_euler_step(triangles: np.ndarray, areas: np.ndarray, grads: np.ndarray,
                        coeff: np.ndarray, mass_new: np.ndarray, dt: float, b: np.ndarray,
                        x0: np.ndarray, tol: float, label: str, t_new: float):
    """Solve ``(K(coeff) + diag(mass_new / dt)) u = b`` by CG from ``x0``.

    Returns the new nodal field and the CG iteration count; a stalled solve
    or a non-finite result raises :class:`NumericalError` naming ``label``.
    """
    system = assemble_stiffness(triangles, areas, grads, coeff, None, len(mass_new),
                                diagonal=mass_new / dt)
    u_new, report = solve_cg(system, b, tol=tol, x0=x0)
    if not report.converged:
        raise NumericalError(
            f"{label} CG stalled at t={t_new}: residual {report.final_residual:.2e}")
    if not np.all(np.isfinite(u_new)):
        raise NumericalError(f"non-finite concentration at t={t_new}")
    return u_new, report.iterations


def scatter_element_loads(triangles: np.ndarray, loads: np.ndarray,
                          dof_of_node: np.ndarray, n_dof: int) -> np.ndarray:
    """Accumulate per-element nodal loads (nt, 3) into a dof vector."""
    return np.bincount(dof_of_node[triangles].ravel(), loads.ravel(), minlength=n_dof)


def element_means(triangles: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Centroid value of a P1 field on every element."""
    return nodal[triangles].mean(axis=1)


def csv_table(header: str, row_format: str, *columns) -> str:
    """CSV text: ``header``, then one ``row_format % row`` line per row of the
    equally long ``columns``."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "\n".join([header] + [row_format % row for row in rows]) + "\n"
