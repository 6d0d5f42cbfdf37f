"""Effective diffusion tensor of the perforated cell, as a function of the
obstacle radius.

Two independent discretizations of the same quantity, one cell-problem
solver: a cell meshed at each radius with the unit coefficient, and one
reference mesh with the coefficient pulled back by the radial map.  The
script tabulates the unit-diffusion tensor over a radius grid (a diffusion
coefficient D scales it by D), prints the derived porosity bound, and
cross-checks the two routes.
"""

import numpy as np

from evopore import (RadialFrame, TransformParams, build_reference_mesh, effective_tensor,
                     porosity, tabulate)
from evopore.fem import centroids

params = TransformParams()

# --- a quick look at one radius, both routes --------------------------------
mesh = build_reference_mesh(params.r0, n_boundary=64, target_h=0.05)
print(f"reference mesh: {mesh.n_nodes} nodes, {len(mesh.triangles)} triangles, "
      f"min angle {mesh.min_angle:.1f} deg")
# the map is radial, so its pulled-back unit tensor J Psi^-1 Psi^-T is
# b I + (a - b) u u^T, from the frame's scalars and unit directions u
frame = RadialFrame(params, centroids(mesh.vertices, mesh.triangles))
u = frame.directions()
radial = u[:, :, None] * u[:, None, :]

for r in (0.15, 0.25, 0.35):
    direct = effective_tensor(build_reference_mesh(r, 64, 0.05))
    sc = frame.scalars(r)
    coeff = sc.b[:, None, None] * np.eye(2) + (sc.a - sc.b)[:, None, None] * radial
    trans = effective_tensor(mesh, coeff)
    gap = np.linalg.norm(direct - trans) / np.linalg.norm(direct)
    print(f"r={r:.2f}: A11 meshed {direct[0, 0]:.6f}, pulled back {trans[0, 0]:.6f}, "
          f"relative gap {gap:.2%}, porosity bound {porosity(r):.4f}")
print()

# --- the radius-parametrized table ------------------------------------------
grid = np.linspace(params.r_min, params.r_max, 11)
table = tabulate(params, grid)
print("r      A11        theta      A11/theta")
for k, r in enumerate(table.radii):
    a = table.tensors[k, 0, 0]
    print(f"{r:.3f}  {a:.6f}  {table.theta[k]:.6f}  {a / table.theta[k]:.4f}")

a11, a12, a22 = table.components(0.3)
print(f"\ninterpolated at r=0.30: A11 = {a11:.6f}, theta = {porosity(0.3):.6f}, "
      f"dtheta/dr = -2 pi r = {-2 * np.pi * 0.3:.6f}")

csv_text = table.to_csv()
print("\nCSV export starts with:")
print("\n".join(csv_text.splitlines()[:3]))
