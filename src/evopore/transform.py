"""Radius-parametrized radial cell transformation.

The map sends the reference cell Y = (0,1)^2 with a centered obstacle of
radius ``r0`` onto the same cell with obstacle radius ``r_gamma``, acting only
inside the annulus ``r_min - delta <= |y - x_M| <= r_max + delta``.  It is
built from a scalar radial profile: a five-branch piecewise-linear rescaling
of the distance to the center, smoothed by convolution with the standard
compactly supported bump kernel of width ``delta_tilde = delta/3``.

Evaluation strategy.  The piecewise-linear profile minus the identity is a
sum of four hinge functions ``kappa * (s - b)_+``, so its mollification is a
linear combination of one universal smooth function: the twice-integrated
bump.  That function and its derivative (the bump's CDF) are tabulated once
on a fine grid and evaluated through a single cubic Hermite spline, which
makes value and derivative polynomially consistent and costs O(1) per
point.  Both hinge slopes are proportional to r_gamma - r0, so the hinge sum
is one affine function of it: R = rho + (r_gamma - r0) G(rho) and
R' = 1 + (r_gamma - r0) F(rho), with G = dR/dr_gamma and F two radius-free
combinations of the kernel values at the four hinges.  At r_gamma = r0 the
profile is the identity bit for bit: R = rho and R' = 1.  The plateau value
R(r_gamma, r0) = r_gamma and the identity outside the annulus hold to
rounding only.  The tests bound |R(r_gamma, r0) - r_gamma| by 1e-12
(measured: exact at all 21 radii of that test), and outside the annulus
|R - rho|, |R' - 1| and |dR/dr_gamma| by 1e-14 (measured over r_gamma in
[r_min, r_max]: 2.2e-16, 0 and 1.8e-15).

:class:`RadialFrame` is the one evaluator of the map.  A caller builds it
once on its fixed points (the radius-free part: distances, directions, G
and F) and evaluates it at its radii by a few array operations, with no
kernel evaluation.  The map is radial, so five scalars per point
(:class:`MapScalars`) and the frame's unit directions u carry everything
the solvers read: J, the pulled-back unit tensor b I + (a - b) u u^T, the
drift J s u and, through :meth:`RadialFrame.image`, the image.  The full
Jacobian is formed only on request (:meth:`RadialFrame.jacobian`).  The
epsilon-scaled map of the paper,
psi_eps(t, x) = eps k + eps psi(r_k(t), x/eps - k), is a frame on in-cell
points evaluated at one radius per cell ``(c, 1)``, its image scaled by eps
and shifted by eps k; its time derivative is eps (dpsi/dr_gamma) dr_k/dt.
The unsmoothed five-branch profile is not evaluated here: the tests hold it
as the oracle that :func:`profile` matches the convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline


# ---------------------------------------------------------------------------
# Universal mollifier kernel: eta(z) ~ exp(-1/(1-z^2)) normalized to unit mass.
# G2 = second antiderivative with G2(-1) = G2'(-1) = 0, so G2'' = eta and
# G2' = Phi is the kernel CDF with Phi(1) = 1 exactly.
# ---------------------------------------------------------------------------

_KERNEL_INTERVALS = 4096


def _bump_raw(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] * t[m]))
    return out


def _build_kernel() -> tuple[CubicHermiteSpline, CubicHermiteSpline, float]:
    knots = np.linspace(-1.0, 1.0, _KERNEL_INTERVALS + 1)
    gx, gw = np.polynomial.legendre.leggauss(8)
    a, b = knots[:-1], knots[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    s = mid[:, None] + half[:, None] * gx[None, :]
    w = half[:, None] * gw[None, :]
    inc1 = np.sum(w * _bump_raw(s), axis=1)
    G1 = np.concatenate([[0.0], np.cumsum(inc1)])
    mass = G1[-1]
    # inner integral of eta from each interval start to each quadrature node
    inner = np.empty_like(s)
    for q in range(s.shape[1]):
        hh = 0.5 * (s[:, q] - a)
        mm = 0.5 * (s[:, q] + a)
        ss = mm[:, None] + hh[:, None] * gx[None, :]
        inner[:, q] = np.sum(hh[:, None] * gw[None, :] * _bump_raw(ss), axis=1)
    inc2 = np.sum(w * (G1[:-1][:, None] + inner), axis=1)
    G2 = np.concatenate([[0.0], np.cumsum(inc2)])
    g_knots = G2 / mass
    phi_knots = G1 / mass
    phi_knots[-1] = 1.0
    g_spline = CubicHermiteSpline(knots, g_knots, phi_knots)
    return g_spline, g_spline.derivative(), float(g_spline(1.0))


_G_SPLINE, _PHI_SPLINE, _G_AT_ONE = _build_kernel()
# total kernel mass after normalization; the linear tail of g and the CDF
# plateau both carry it, so the identity properties hold exactly iff it is one
_KERNEL_MASS = 1.0


def _kernel_g(z: np.ndarray) -> np.ndarray:
    """Twice-integrated unit-mass bump; g(z) = 0 for z <= -1, g' = Phi."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 1.0, (z - 1.0) * _KERNEL_MASS + _G_AT_ONE, 0.0)
    m = (z > -1.0) & (z < 1.0)
    if np.any(m):
        out[m] = _G_SPLINE(z[m])
    return out


def _kernel_cdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 1.0, _KERNEL_MASS, 0.0)
    m = (z > -1.0) & (z < 1.0)
    if np.any(m):
        out[m] = _PHI_SPLINE(z[m])
    return out


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

X_CENTER = np.array([0.5, 0.5])

# Least slope delta_tilde / (gap + delta_tilde) of the profile's ramps, gap
# the larger of r0 - r_min and r_max - r0.  Below it the mollified transition
# is too thin for the reference meshes: at n_boundary = 32 and target_h = 0.1
# the tensor at r_max breaks the table checks from a slope of 0.0066 on, and
# at about 1e-16 the ramp is flat in float64 and the Jacobian vanishes.
MIN_RAMP_SLOPE = 0.01


@dataclass(frozen=True)
class TransformParams:
    """Geometry constants of the radial map.

    ``delta`` is the half-width of the outer/inner identity margins and
    ``delta_tilde = delta/3`` the mollification radius.  The strict
    inequalities keep the obstacle inside the cell with room for the
    transition zone at every admissible radius.
    """

    r_min: float = 0.15
    r_max: float = 0.35
    r0: float = 0.25
    delta: float = 0.12

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r0 < self.r_max < 0.5):
            raise ValueError("need 0 < r_min < r0 < r_max < 0.5")
        if self.delta <= 0.0:
            raise ValueError("need delta > 0")
        slope = self.delta_tilde / (max(self.r0 - self.r_min, self.r_max - self.r0)
                                    + self.delta_tilde)
        if slope < MIN_RAMP_SLOPE:
            raise ValueError(f"delta too small: the map's ramps have slope {slope:.3g}, "
                             f"below {MIN_RAMP_SLOPE}")
        if self.r_min - self.delta <= 0.0:
            raise ValueError("need r_min - delta > 0")
        if self.r_max + self.delta >= 0.5:
            raise ValueError("need r_max + delta < 0.5")

    @property
    def delta_tilde(self) -> float:
        return self.delta / 3.0

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        dt = self.delta_tilde
        return (self.r_min - 2 * dt, self.r0 - dt, self.r0 + dt, self.r_max + 2 * dt)

    def check_radius(self, r_gamma) -> None:
        r_gamma = np.asarray(r_gamma, dtype=float)
        if np.any(r_gamma < self.r_min - 1e-14) or np.any(r_gamma > self.r_max + 1e-14):
            raise ValueError(f"obstacle radius outside [{self.r_min}, {self.r_max}]")


# ---------------------------------------------------------------------------
# Radial profile
# ---------------------------------------------------------------------------

def _radial_kernels(params: TransformParams, r: np.ndarray):
    """The radius-free functions G and F of the profile at distances ``r``.

    Both hinge slopes are proportional to r_gamma - r0, so the hinge sum is
    affine in it: R = r + (r_gamma - r0) G, dR/dr = 1 + (r_gamma - r0) F and
    dR/dr_gamma = G, with G = dt [(g0 - g1)/den1 - (g2 - g3)/den2] and
    F = (Phi0 - Phi1)/den1 - (Phi2 - Phi3)/den2 for the kernel values g_k
    and Phi_k at z_k = (r - b_k)/dt, dt = delta_tilde and den1, den2 the
    ramp widths.  Both are summed hinge by hinge, so G has the bits of
    dR/dr_gamma summed term by term over the four hinges.
    """
    dt = params.delta_tilde
    c1 = 1.0 / (params.r0 - params.r_min + dt)
    c2 = 1.0 / (params.r_max - params.r0 + dt)
    z = [(r - bk) / dt for bk in params.breakpoints]
    g = [_kernel_g(zk) for zk in z]
    phi = [_kernel_cdf(zk) for zk in z]
    w1, w2 = c1 * dt, c2 * dt
    return (((w1 * g[0] - w1 * g[1]) - w2 * g[2]) + w2 * g[3],
            ((c1 * phi[0] - c1 * phi[1]) - c2 * phi[2]) + c2 * phi[3])


def _affine_profile(shift, r: np.ndarray, G: np.ndarray, F: np.ndarray):
    """R, dR/dr and dR/dr_gamma at distances ``r`` from their kernels G and F
    of :func:`_radial_kernels`, for ``shift`` = r_gamma - r0."""
    R = r + shift * G
    return R, 1.0 + shift * F, np.broadcast_to(G, R.shape)


def profile(params: TransformParams, r_gamma, r):
    """Smoothed radial profile R and its derivatives.

    Returns ``(R, dR/dr, dR/dr_gamma)``; ``r_gamma`` and ``r`` broadcast
    against each other, and dR/dr_gamma is a read-only view.  R agrees with
    the convolution of the raw profile with the bump kernel of radius
    delta_tilde, written as one affine function of r_gamma - r0
    (:func:`_radial_kernels`).  At r_gamma = r0 the shift is zero, so
    R = r and dR/dr = 1 bit for bit.  The plateau value
    R(r_gamma, r0) = r_gamma and the identity outside the annulus hold to
    rounding, within the bounds the module docstring states.
    """
    params.check_radius(r_gamma)
    r = np.asarray(r, dtype=float)
    return _affine_profile(np.asarray(r_gamma, dtype=float) - params.r0, r,
                           *_radial_kernels(params, r))


# ---------------------------------------------------------------------------
# The cell map at fixed reference points
# ---------------------------------------------------------------------------

@dataclass
class MapScalars:
    """The radial map at n points through five scalars per point.

    With R the smoothed profile at the distance rho to the center, R' its
    rho-derivative and u the unit direction, Psi^{-1} = P/R' + (rho/R)(I - P)
    for P = u u^T, so the pulled-back tensor of diffusion D is
    A = J D Psi^{-1} Psi^{-T} = D (b I + (a - b) P) and, the radius
    sensitivity being radial, J Psi^{-1} dPsi/dr_gamma = J s u.  ``det`` is
    J = R' R / rho, ``a`` = R / (rho R'), ``b`` = rho R' / R,
    ``s`` = (dR/dr_gamma) / R' and ``radius`` = R.  In the identity core
    J = a = b = 1, s = 0 and R = rho.
    """

    det: np.ndarray
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    radius: np.ndarray


class RadialFrame:
    """The radius-independent part of the map at fixed points ``y`` (m, 2).

    For the points outside the identity core ``|y - x_M| <= r_min - delta``
    the frame holds the distance rho to the center, the unit direction u
    and the profile's two radius-free functions ``G`` and ``F`` of
    :func:`_radial_kernels`, the only kernel evaluations of the frame.
    :meth:`scalars` and :meth:`jacobian` combine them with the radii
    through the affine profile R = rho + (r_gamma - r0) G,
    R' = 1 + (r_gamma - r0) F, the same expressions as :func:`profile`, so
    the two agree bit for bit.  ``r_gamma`` is a scalar, one radius per
    point (m,), or one radius per cell (c, 1); the last gives c*m points,
    cell by cell.  Core points take an explicit identity branch, so the
    center needs no division.
    """

    def __init__(self, params: TransformParams, y: np.ndarray):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        d = y - X_CENTER
        rho = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
        active = rho > params.r_min - params.delta
        self.params = params
        self.points = y
        self.distance = rho
        # a plain slice when no point is in the core: views instead of copies
        self._active = slice(None) if active.all() else active
        self.rho = rho[active]
        self.unit = d[active] / self.rho[:, None]
        self.G, self.F = _radial_kernels(params, self.rho)

    def _profile(self, r_gamma):
        """Result shape, then R, dR/dr and dR/dr_gamma at the active points."""
        self.params.check_radius(r_gamma)
        shift = np.asarray(r_gamma, dtype=float) - self.params.r0
        shape = np.broadcast_shapes(shift.shape, (len(self.points),))
        if shift.ndim and shift.shape[-1] > 1:   # one radius per point
            shift = shift[..., self._active]
        return shape, _affine_profile(shift, self.rho, self.G, self.F)

    def _embed(self, shape, values: np.ndarray, core) -> np.ndarray:
        """``values`` at the active points, ``core`` at the core points."""
        if isinstance(self._active, slice):
            return values
        out = np.broadcast_to(core, shape + values.shape[len(shape):]).copy()
        out[(Ellipsis, self._active) + (slice(None),) * (values.ndim - len(shape))] = values
        return out

    def scalars(self, r_gamma) -> MapScalars:
        """The map at obstacle radius ``r_gamma`` as :class:`MapScalars`."""
        shape, (R, dR, dRg) = self._profile(r_gamma)
        q = R / self.rho
        n = int(np.prod(shape))
        return MapScalars(self._embed(shape, dR * q, 1.0).reshape(n),
                          self._embed(shape, q / dR, 1.0).reshape(n),
                          self._embed(shape, dR / q, 1.0).reshape(n),
                          self._embed(shape, dRg / dR, 0.0).reshape(n),
                          self._embed(shape, R, self.distance).reshape(n))

    def image(self, radius: np.ndarray) -> np.ndarray:
        """Image (n, 2) of the points whose distances map to ``radius`` (n,),
        the :attr:`MapScalars.radius` of the same frame."""
        R = radius.reshape(-1, len(self.points))
        mapped = X_CENTER + R[:, self._active, None] * self.unit
        return self._embed(R.shape, mapped, self.points).reshape(-1, 2)

    def directions(self) -> np.ndarray:
        """Unit direction u (m, 2) of every point from the center; zero in the
        identity core, where the map has no radial part."""
        return self._embed((len(self.points),), self.unit, 0.0)

    def jacobian(self, r_gamma) -> np.ndarray:
        """Jacobian (n, 2, 2) of the map at obstacle radius ``r_gamma``."""
        shape, (R, dR, _) = self._profile(r_gamma)
        proj = self.unit[:, :, None] * self.unit[:, None, :]
        jac = dR[..., None, None] * proj + (R / self.rho)[..., None, None] * (np.eye(2) - proj)
        return self._embed(shape, jac, np.eye(2)).reshape(-1, 2, 2)

