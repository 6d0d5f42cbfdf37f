"""Tour of the radius-parametrized cell transformation.

The map rescales distances to the cell center so that the obstacle boundary
at the reference radius lands on any requested radius, while leaving a core
around the center and a margin near the cell faces untouched.  Everything
here is exact or near machine precision by construction; run it to see the
numbers.
"""

import numpy as np

from evopore import RadialFrame, TransformParams, profile

params = TransformParams()
print("geometry:", params)
print()

# --- the smoothed radial profile -------------------------------------------
# R(rg, .) fixes the reference radius r0 onto rg and is the identity outside
# the transition annulus.
for rg in (params.r_min, 0.2, params.r_max):
    R_at_r0 = float(profile(params, rg, params.r0)[0])
    print(f"R({rg:.2f}, r0) = {R_at_r0:.15f}   (target {rg})")

r_outside = np.array([0.01, params.r_min - params.delta, params.r_max + params.delta, 0.7])
vals = profile(params, 0.3, r_outside)[0]
print("identity outside the annulus, max |R - r| =", np.abs(vals - r_outside).max())
print()

# --- the map and its Jacobian ------------------------------------------------
# A frame holds the radius-free part of the map on fixed points.  The map is
# radial, so its scalars at radii (one, or one per point) carry it: J, the
# mapped distance R, and the a, b, s of the pulled-back coefficient and drift.
# The image follows from R, the full Jacobian on request.
rng = np.random.default_rng(0)
y = rng.uniform(0, 1, (20000, 2))
rg = rng.uniform(params.r_min, params.r_max, 20000)
det = RadialFrame(params, y).scalars(rg).det
print(f"Jacobian determinant over {len(y)} samples: "
      f"min {det.min():.4f}, max {det.max():.4f}  (positive, away from zero)")

# circles through the reference radius land exactly on the requested radius
angles = np.linspace(0, 2 * np.pi, 9)
circle = 0.5 + params.r0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
frame = RadialFrame(params, circle)
mapped = frame.image(frame.scalars(0.32).radius)
radii = np.hypot(mapped[:, 0] - 0.5, mapped[:, 1] - 0.5)
print("obstacle boundary maps to radius 0.32:", radii.min(), "-", radii.max())
