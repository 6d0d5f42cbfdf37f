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
point.  The spline is a numpy piecewise cubic (:class:`PiecewiseCubic`)
whose coefficients and evaluation are scipy's ``CubicHermiteSpline``'s
operation for operation, so the package imports no ``scipy.interpolate``.
Both hinge slopes are proportional to r_gamma - r0, so the hinge sum is one
affine function of it: R = rho + (r_gamma - r0) G(rho) and
R' = 1 + (r_gamma - r0) F(rho), with G = dR/dr_gamma and F two radius-free
combinations of the kernel values at the four hinges.  At r_gamma = r0 the
profile is the identity bit for bit: R = rho and R' = 1.  The plateau value
R(r_gamma, r0) = r_gamma and the identity outside the annulus hold to
rounding only.  The tests bound |R(r_gamma, r0) - r_gamma| by 1e-12
(measured: exact at all 21 radii of that test), and outside the annulus
|R - rho|, |R' - 1| and |dR/dr_gamma| by 1e-14 (measured over r_gamma in
[r_min, r_max]: 2.2e-16, 0 and 1.8e-15).

:class:`RadialFrame` is the one evaluator of the map.  A caller builds it
once on its fixed points (the radius-free part: distances, directions, G,
F and G/rho) and evaluates it at its radii by a few array operations, with
no kernel evaluation.  The map is radial and its pulled-back tensor has
determinant 1, so one scalar per point, b = rho R'/R, and the frame's unit
directions u carry that tensor, b I + (1/b - b) u u^T:
:meth:`RadialFrame.tensor_scalars` writes [b; 1/b - b] at one radius per
cell into a caller's buffer, the stiffness scalars of the micro step and
the table.  J and the drift weight J s are polynomials in r_gamma - r0, of
degree 2 and 1, whose coefficients the frame gives
(:meth:`RadialFrame.shift_polynomials`): the micro step forms its lumped
mass, drift and source loads from them.  :class:`MapScalars` holds J, b, s
and the image radius R per point for the other readers, and
:meth:`RadialFrame.image` maps R to the image.  The full
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


@dataclass(frozen=True)
class PiecewiseCubic:
    """Piecewise polynomial on ``knots`` (m + 1,) with the coefficients ``c``
    (k, m) of each interval, highest power first, in the offset s from the
    interval's left knot.

    The form, the coefficients and the evaluation are those of scipy's
    ``CubicHermiteSpline`` and ``PPoly``, operation for operation, so the
    values are the same bits: a point's interval is the last whose left
    knot is at most the point, clipped to the first and the last interval,
    and the polynomial is summed from the constant term up, the powers of s
    built by repeated products.
    """

    knots: np.ndarray
    c: np.ndarray

    @classmethod
    def hermite(cls, knots: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> "PiecewiseCubic":
        """The cubic Hermite interpolant of the values ``y`` and slopes
        ``dydx`` at ``knots``."""
        dx = np.diff(knots)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return cls(knots, np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])))

    def derivative(self) -> "PiecewiseCubic":
        """The piecewise polynomial of one degree less: each coefficient
        times its power."""
        powers = np.arange(len(self.c) - 1, 0, -1, dtype=float)
        return PiecewiseCubic(self.knots, self.c[:-1] * powers[:, None])

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        interval = np.clip(np.searchsorted(self.knots, z, "right") - 1, 0, len(self.knots) - 2)
        s = z - self.knots[interval]
        c = self.c[:, interval]
        value, power = c[-1], s
        for row in c[-2::-1]:
            value = value + row * power
            power = power * s
        return value


def _kernel_knots():
    """Knots on [-1, 1] and the values of g (the twice-integrated bump) and
    of its derivative Phi there, by Gauss-Legendre quadrature interval by
    interval."""
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
    return knots, g_knots, phi_knots


_G_SPLINE = PiecewiseCubic.hermite(*_kernel_knots())
_PHI_SPLINE = _G_SPLINE.derivative()
_G_AT_ONE = float(_G_SPLINE(1.0))


def _kernel_g(z: np.ndarray) -> np.ndarray:
    """Twice-integrated unit-mass bump; g(z) = 0 for z <= -1, g' = Phi."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 1.0, z - 1.0 + _G_AT_ONE, 0.0)
    m = (z > -1.0) & (z < 1.0)
    if np.any(m):
        out[m] = _G_SPLINE(z[m])
    return out


def _kernel_cdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 1.0, 1.0, 0.0)
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
        if not np.all((r_gamma >= self.r_min - 1e-14) & (r_gamma <= self.r_max + 1e-14)):
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


def _stretch(shift, F, g, out, scratch=None):
    """b = rho R' / R = (1 + shift F) / (1 + shift g) written into ``out``,
    for the kernels F and g = G / rho, with the denominator in ``scratch``
    (a new array when None); returns ``out``."""
    scratch = np.multiply(shift, g, out=scratch)
    scratch += 1.0
    np.multiply(shift, F, out=out)
    out += 1.0
    out /= scratch
    return out


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
    """The radial map at n points through four scalars per point.

    With R the smoothed profile at the distance rho to the center, R' its
    rho-derivative and u the unit direction, Psi^{-1} = P/R' + (rho/R)(I - P)
    for P = u u^T, so the pulled-back tensor of diffusion D is
    A = J D Psi^{-1} Psi^{-T} = D (b I + (1/b - b) P), of determinant D^2,
    and, the radius sensitivity being radial, J Psi^{-1} dPsi/dr_gamma =
    J s u.  ``det`` is J = R' R / rho, ``b`` = rho R' / R, evaluated as
    :meth:`RadialFrame.tensor_scalars` does, ``s`` = (dR/dr_gamma) / R' and
    ``radius`` = R.  In the identity core J = b = 1, s = 0 and R = rho.
    """

    det: np.ndarray
    b: np.ndarray
    s: np.ndarray
    radius: np.ndarray


class RadialFrame:
    """The radius-independent part of the map at fixed points ``y`` (m, 2).

    For the points outside the identity core ``|y - x_M| <= r_min - delta``
    the frame holds the distance rho to the center, the unit direction u
    and the profile's two radius-free functions ``G`` and ``F`` of
    :func:`_radial_kernels`, the only kernel evaluations of the frame, and
    ``G_over_rho`` = G / rho.  :meth:`scalars` and :meth:`jacobian` combine
    them with the radii through the affine profile R = rho + (r_gamma - r0) G,
    R' = 1 + (r_gamma - r0) F, the same expressions as :func:`profile`, so
    the two agree bit for bit; :meth:`scalars` and :meth:`tensor_scalars`
    form b by one expression, so they agree bit for bit too.  ``r_gamma`` is
    a scalar or one radius per point (m,), for one value per point, or one
    radius per cell (c, 1), for one per point and cell: C-contiguous (m, c)
    arrays, a column per cell, the layout the micro cell operators read.
    Core points take an explicit identity branch, so the center needs no
    division.
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
        self.G_over_rho = self.G / self.rho

    def _layout(self, r_gamma):
        """Result shape, the shift r_gamma - r0 and the active points' rho,
        G, F and G / rho, each laid out to broadcast to the result."""
        self.params.check_radius(r_gamma)
        shift = np.asarray(r_gamma, dtype=float) - self.params.r0
        kernels = self.rho, self.G, self.F, self.G_over_rho
        if shift.ndim == 2:   # one radius per cell: points down, cells across
            shift = shift.reshape(-1)
            return (len(self.points), len(shift)), shift, [k[:, None] for k in kernels]
        if shift.ndim:   # one radius per point
            shift = shift[self._active]
        return np.broadcast_shapes(np.shape(r_gamma), (len(self.points),)), shift, kernels

    def _embed(self, shape, values: np.ndarray, core) -> np.ndarray:
        """``values`` at the active points, ``core`` at the core points."""
        if isinstance(self._active, slice):
            return values
        out = np.broadcast_to(core, shape + values.shape[len(shape):]).copy()
        out[self._active] = values
        return out

    def _per_point(self, values: np.ndarray, ndim: int) -> np.ndarray:
        """Per-point ``values`` (k, ...) with ``ndim - 1`` unit axes after the
        first, to broadcast against a result of ``ndim`` leading axes."""
        return values.reshape(values.shape[:1] + (1,) * (ndim - 1) + values.shape[1:])

    def scalars(self, r_gamma) -> MapScalars:
        """The map at obstacle radius ``r_gamma`` as :class:`MapScalars`."""
        shape, shift, (rho, G, F, g) = self._layout(r_gamma)
        R, dR, dRg = _affine_profile(shift, rho, G, F)
        return MapScalars(self._embed(shape, dR * (R / rho), 1.0),
                          self._embed(shape, _stretch(shift, F, g, np.empty(R.shape)), 1.0),
                          self._embed(shape, dRg / dR, 0.0),
                          self._embed(shape, R, self._per_point(self.distance, len(shape))))

    def tensor_scalars(self, r_gamma: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``[b; 1/b - b]`` at one radius per cell ``r_gamma`` (c, 1), written
        into ``out`` (2m, c) and returned: the pulled-back unit tensor
        b I + (1/b - b) u u^T of every point and cell, whose determinant is
        1, with b = (1 + d F) / (1 + d G / rho) for the shift d = r_gamma - r0.
        Core points take [1; 0], as does d = 0, exactly."""
        shape, shift, (_, _, F, g) = self._layout(r_gamma)
        n = len(self.points)
        core = not isinstance(self._active, slice)
        # with core points the active rows are not a view: fill two arrays
        b, rest = np.empty((2, len(F), len(shift))) if core else (out[:n], out[n:])
        _stretch(shift, F, g, b, rest)
        np.divide(1.0, b, out=rest)
        rest -= b
        if core:
            out[:n] = self._embed(shape, b, 1.0)
            out[n:] = self._embed(shape, rest, 0.0)
        return out

    def shift_polynomials(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients in the shift d = r_gamma - r0 of J, (m, 3) for
        1, d and d^2, and of the drift weight J s, (m, 2) for 1 and d.

        R = rho + d G and R' = 1 + d F, so J = R' R / rho is
        1 + d (F + G / rho) + d^2 F G / rho and J s = R G / rho is
        G + d G^2 / rho, exactly; the core points take J = 1 and J s = 0,
        as :meth:`scalars` gives them there.  The constant coefficient of
        J s is G = dR/dr_gamma, so R = rho + d G follows from it too.
        """
        rho, G, F = self.rho, self.G, self.F
        n = len(self.points)
        det = self._embed((n,), np.stack([np.ones_like(rho), F + G / rho, F * G / rho], axis=1),
                          np.array([1.0, 0.0, 0.0]))
        drift = self._embed((n,), np.stack([G, G * G / rho], axis=1), 0.0)
        return det, drift

    def image(self, radius: np.ndarray) -> np.ndarray:
        """Image (m, 2) or (m, c, 2) of the points whose distances map to
        ``radius`` (m,) or (m, c), the :attr:`MapScalars.radius` of the same
        frame."""
        unit = self._per_point(self.unit, radius.ndim)
        mapped = X_CENTER + radius[self._active, ..., None] * unit
        return self._embed(radius.shape, mapped, self._per_point(self.points, radius.ndim))

    def directions(self) -> np.ndarray:
        """Unit direction u (m, 2) of every point from the center; zero in the
        identity core, where the map has no radial part."""
        return self._embed((len(self.points),), self.unit, 0.0)

    def jacobian(self, r_gamma) -> np.ndarray:
        """Jacobian of the map at obstacle radius ``r_gamma``: (m, 2, 2), or
        (m, c, 2, 2) at one radius per cell."""
        shape, shift, (rho, G, F, _) = self._layout(r_gamma)
        R, dR, _ = _affine_profile(shift, rho, G, F)
        unit = self._per_point(self.unit, len(shape))
        proj = unit[..., :, None] * unit[..., None, :]
        jac = dR[..., None, None] * proj + (R / rho)[..., None, None] * (np.eye(2) - proj)
        return self._embed(shape, jac, np.eye(2))
