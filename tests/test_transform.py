import numpy as np
import pytest

from _oracles import pulled_back, radial_image

from evopore import transform
from evopore.fem import centroids
from evopore.micro import build_micro_mesh
from evopore.transform import X_CENTER, RadialFrame, profile


def sample_radii_pattern(params, n):
    """Deterministic per-cell radii covering both extremes for every n."""
    palette = np.array([params.r_min, params.r_max, params.r0,
                        0.5 * (params.r_min + params.r_max)])
    k1, k2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return palette[(k1 + k2) % 4]


def psi_eps(params, eps, radii, x):
    """The epsilon-scaled map eps k + eps psi(r_k, x/eps - k) at points x of
    the unit square, points on the upper faces in the last cell.  Returns the
    image, the frame on the in-cell points and each point's radius."""
    k = np.minimum(np.floor(x / eps).astype(int), len(radii) - 1)
    frame = RadialFrame(params, x / eps - k)
    r = radii[k[:, 0], k[:, 1]]
    return eps * k + eps * image(frame, r), frame, r


def image(frame, r_gamma):
    """The frame's image at ``r_gamma``, one radius or one per point."""
    return frame.image(frame.scalars(r_gamma).radius)


# ---------------------------------------------------------------------------
# raw profile: the oracle of the convolution
# ---------------------------------------------------------------------------

def profile_raw(params, r_gamma, s):
    """Piecewise-linear radial rescaling before smoothing.

    Identity up to ``r_min - 2*delta_tilde``, linear ramp with slope c1 to the
    plateau branch of slope one through (r0, r_gamma), ramp with slope c2 back
    to the identity from ``r_max + 2*delta_tilde`` on.
    """
    s = np.asarray(s, dtype=float)
    b1, b2, b3, b4 = params.breakpoints
    # the displacement's slopes c1 - 1 and c2 - 1 on the two ramps
    k1 = (r_gamma - params.r0) / (params.r0 - params.r_min + params.delta_tilde)
    k3 = (params.r0 - r_gamma) / (params.r_max - params.r0 + params.delta_tilde)
    disp = np.select(
        [s <= b1, s <= b2, s <= b3, s <= b4],
        [0.0, k1 * (s - b1), r_gamma - params.r0, k3 * (s - b4)],
        default=0.0,
    )
    return s + disp


def test_profile_raw_fixed_point_at_r0(params):
    for rg in np.linspace(params.r_min, params.r_max, 17):
        assert profile_raw(params, rg, params.r0) == pytest.approx(rg, abs=1e-15)


def test_profile_raw_identity_when_rg_is_r0(params):
    s = np.linspace(0.0, 0.8, 300)
    assert np.max(np.abs(profile_raw(params, params.r0, s) - s)) < 1e-15


def test_profile_raw_continuity_at_breakpoints(params):
    eps = 1e-12
    for rg in np.linspace(params.r_min, params.r_max, 20):
        for b in params.breakpoints:
            left = profile_raw(params, rg, b - eps)
            right = profile_raw(params, rg, b + eps)
            assert abs(left - right) < 1e-11  # slope * eps plus roundoff
            # limits themselves agree much tighter
            assert abs(profile_raw(params, rg, b) - left) < 2e-12


def test_radius_outside_the_box_is_rejected(params):
    """``profile`` and ``RadialFrame.scalars`` reject a radius outside
    [r_min, r_max] beyond 1e-14, alone or among radii inside, and accept
    the box's ends."""
    frame = RadialFrame(params, np.array([[0.5, 0.8], [0.2, 0.5]]))
    for bad in (params.r_max + 0.01, params.r_min - 1e-13, [params.r0, params.r_max + 1e-13]):
        with pytest.raises(ValueError, match="obstacle radius outside"):
            profile(params, bad, 0.3)
        with pytest.raises(ValueError, match="obstacle radius outside"):
            frame.scalars(np.reshape(bad, (-1, 1)))
    for ok in (params.r_min, params.r_max):
        profile(params, ok, 0.3)
        frame.scalars(np.array([[ok]]))


# ---------------------------------------------------------------------------
# smoothed profile
# ---------------------------------------------------------------------------

def test_profile_plateau_value(params):
    for rg in np.linspace(params.r_min, params.r_max, 21):
        val, _, _ = profile(params, rg, params.r0)
        assert abs(float(val) - rg) < 1e-12


def test_profile_identity_outside_transition(params):
    rng = np.random.default_rng(0)
    r = np.concatenate([
        rng.uniform(0.0, params.r_min - params.delta, 400),
        rng.uniform(params.r_max + params.delta, 0.9, 400),
    ])
    val, der, drg = profile(params, 0.33, r)
    assert np.max(np.abs(val - r)) < 1e-14
    assert np.max(np.abs(der - 1.0)) < 1e-14
    assert np.max(np.abs(drg)) < 1e-14


def test_profile_matches_mollified_raw_profile(params):
    # independent oracle: adaptive quadrature of the defining convolution
    from scipy.integrate import quad

    dt = params.delta_tilde
    norm = quad(lambda t: np.exp(-1.0 / (1.0 - t * t)), -1, 1, epsabs=1e-14, limit=200)[0]

    def reference(rg, r):
        def integrand(tau):
            return float(profile_raw(params, rg, r - dt * tau)) * np.exp(-1.0 / (1.0 - tau * tau)) / norm

        pieces = sorted({-1.0, 1.0, *((r - b) / dt for b in params.breakpoints if abs(r - b) < dt)})
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            total += quad(integrand, a, b, epsabs=1e-13, limit=200)[0]
        return total

    rng = np.random.default_rng(1)
    for _ in range(12):
        rg = rng.uniform(params.r_min, params.r_max)
        r = rng.uniform(0.02, 0.6)
        val, _, _ = profile(params, rg, r)
        assert float(val) == pytest.approx(reference(rg, r), abs=5e-9)


def four_hinge_profile(params, r_gamma, r):
    """The profile as the sum over its four hinges, term by term: the
    kernel values g and Phi at each hinge z_k = (r - b_k)/delta_tilde,
    weighted by the hinge slope and its r_gamma rate, accumulated hinge by
    hinge.  The reference of the affine form R = r + (r_gamma - r0) G,
    R' = 1 + (r_gamma - r0) F."""
    dt = params.delta_tilde
    den1 = params.r0 - params.r_min + dt
    den2 = params.r_max - params.r0 + dt
    k1 = (r_gamma - params.r0) / den1
    k3 = (params.r0 - r_gamma) / den2
    shape = np.broadcast_shapes(np.shape(r_gamma), np.shape(r))
    val, der, drg = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for bk, kap, dkap, sgn in zip(params.breakpoints, (k1, k1, k3, k3),
                                  (1.0 / den1, 1.0 / den1, -1.0 / den2, -1.0 / den2),
                                  (1.0, -1.0, 1.0, -1.0)):
        z = (r - bk) / dt
        gz, cz = transform._kernel_g(z), transform._kernel_cdf(z)
        val += sgn * kap * dt * gz
        der += sgn * kap * cz
        drg += sgn * dkap * dt * gz
    return r + val, 1.0 + der, drg


def test_affine_profile_matches_the_four_hinge_sum(params):
    rg = np.linspace(params.r_min, params.r_max, 41)[:, None]
    r = np.linspace(0.0, 0.9, 1801)[None, :]
    R, dR, dRg = profile(params, rg, r)
    R_ref, dR_ref, dRg_ref = four_hinge_profile(params, rg, r)
    assert np.abs((R - r) - (R_ref - r)).max() <= 1e-15
    assert np.abs((dR - 1.0) - (dR_ref - 1.0)).max() <= 1e-15
    assert np.array_equal(dRg, dRg_ref)   # G is summed hinge by hinge
    assert np.abs(dRg).max() > 0.5   # the annulus is sampled

    # r_gamma = r0 is the identity bit for bit, pointwise and from a frame
    r = r.ravel()
    R, dR, _ = profile(params, params.r0, r)
    assert np.array_equal(R, r) and np.all(dR == 1.0)
    y = X_CENTER + r[:, None] * np.array([0.6, 0.8])
    frame = RadialFrame(params, y)
    sc = frame.scalars(params.r0)
    assert np.array_equal(sc.radius, frame.distance)
    assert np.all(sc.det == 1.0) and np.all(sc.a == 1.0) and np.all(sc.b == 1.0)


def test_frame_evaluates_no_kernel(params, monkeypatch):
    """A frame evaluates the kernels once, when it is built; its scalars,
    image and Jacobian at any radii need none."""
    rng = np.random.default_rng(7)
    frame = RadialFrame(params, rng.uniform(0.0, 1.0, (300, 2)))

    def forbidden(z):
        raise AssertionError("kernel evaluated after the frame was built")

    monkeypatch.setattr(transform, "_kernel_g", forbidden)
    monkeypatch.setattr(transform, "_kernel_cdf", forbidden)
    radii = rng.uniform(params.r_min, params.r_max, (3, 1))
    image(frame, radii)
    frame.jacobian(radii)
    image(frame, radii[0, 0])
    frame.jacobian(rng.uniform(params.r_min, params.r_max, 300))


def test_profile_monotone_derivative_bound(params):
    # slope never falls below the raw-profile minimum slope
    rgs = np.linspace(params.r_min, params.r_max, 100)
    rs = np.linspace(0.0, 0.9, 100)
    den1 = params.r0 - params.r_min + params.delta_tilde
    den2 = params.r_max - params.r0 + params.delta_tilde
    for rg in rgs:
        c1 = (rg - params.r_min + params.delta_tilde) / den1
        c2 = (params.r_max - rg + params.delta_tilde) / den2
        floor = 0.9 * min(1.0, c1, c2)
        _, der, _ = profile(params, rg, rs)
        assert np.all(der > 0)
        assert der.min() >= floor


def test_profile_derivative_fd_consistency(params):
    rng = np.random.default_rng(2)
    h = 1e-5
    rg = rng.uniform(params.r_min, params.r_max, 2000)
    r = rng.uniform(0.01, 0.85, 2000)
    vp = profile(params, rg, r + h)[0]
    vm = profile(params, rg, r - h)[0]
    _, der, _ = profile(params, rg, r)
    assert np.max(np.abs((vp - vm) / (2 * h) - der)) < 1e-7

    rg = rng.uniform(params.r_min + 2 * h, params.r_max - 2 * h, 2000)
    vp = profile(params, rg + h, r)[0]
    vm = profile(params, rg - h, r)[0]
    _, _, drg = profile(params, rg, r)
    assert np.max(np.abs((vp - vm) / (2 * h) - drg)) < 1e-7


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------

def test_psi_identity_at_r0(params):
    rng = np.random.default_rng(3)
    y = rng.uniform(0.0, 1.0, (500, 2))
    frame = RadialFrame(params, y)
    assert np.max(np.abs(image(frame, params.r0) - y)) < 1e-15
    assert np.max(np.abs(frame.jacobian(params.r0) - np.eye(2))) < 1e-14
    assert np.max(np.abs(frame.scalars(params.r0).det - 1.0)) < 1e-14


def test_psi_maps_reference_circle_to_radius(params):
    angles = np.linspace(0, 2 * np.pi, 37)
    y = 0.5 + params.r0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    frame = RadialFrame(params, y)
    for rg in (params.r_min, 0.2, params.r_max):
        mapped = image(frame, rg)
        dist = np.hypot(mapped[:, 0] - 0.5, mapped[:, 1] - 0.5)
        assert np.max(np.abs(dist - rg)) < 1e-12


def test_psi_det_positive_bound_recorded(params):
    rng = np.random.default_rng(4)
    rg = rng.uniform(params.r_min, params.r_max, 200)
    y = rng.uniform(0.0, 1.0, (200, 2))
    det = RadialFrame(params, y).scalars(rg).det
    assert det.min() > 0.1  # measured c_J for the default geometry is ~0.16
    assert det.max() < 3.0


def test_psi_center_identity_branch(params):
    frame = RadialFrame(params, np.array([0.5, 0.5]))
    assert np.all(image(frame, params.r_min)[0] == np.array([0.5, 0.5]))
    assert frame.scalars(params.r_min).det[0] == 1.0


def test_psi_jacobian_fd(params):
    rng = np.random.default_rng(5)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        rg = rng.uniform(params.r_min, params.r_max)
        y = rng.uniform(2 * h, 1.0 - 2 * h, 2)
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (image(RadialFrame(params, y + e), rg)[0]
                        - image(RadialFrame(params, y - e), rg)[0]) / (2 * h)
        worst = max(worst, np.max(np.abs(fd - RadialFrame(params, y).jacobian(rg)[0])))
    assert worst < 1e-7


def test_psi_radius_derivative_fd(params):
    """The radius sensitivity dpsi/dr_gamma matches central differences of
    the image, both as (dR/dr_gamma) u from the profile and as Psi s u from
    the frame's Jacobian and its scalar s."""
    rng = np.random.default_rng(6)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        rg = rng.uniform(params.r_min + 2 * h, params.r_max - 2 * h)
        y = rng.uniform(0.0, 1.0, (1, 2))
        frame = RadialFrame(params, y)
        fd = (image(frame, rg + h)[0] - image(frame, rg - h)[0]) / (2 * h)
        from_frame = frame.jacobian(rg)[0] @ (frame.scalars(rg).s[0] * frame.directions()[0])
        worst = max(worst, np.max(np.abs(fd - radial_image(params, y, rg)[1][0])),
                    np.max(np.abs(fd - from_frame)))
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# epsilon scaling
# ---------------------------------------------------------------------------

def test_psi_eps_identity_at_r0(params):
    eps = 0.25
    n = 4
    radii = np.full((n, n), params.r0)
    rates = np.zeros((n, n))
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, (300, 2))
    mapped, frame, r = psi_eps(params, eps, radii, x)
    dt_psi = eps * radial_image(params, frame.points, r)[1] * rates[0, 0]
    assert np.max(np.abs(mapped - x)) < 1e-15
    assert np.max(np.abs(frame.scalars(r).det - 1.0)) < 1e-14
    assert np.max(np.abs(dt_psi)) == 0.0


def test_psi_eps_displacement_bound(params):
    # |psi_eps - id| <= eps * C with C the cell-level displacement bound
    cell_bound = params.r_max + params.delta  # map moves points inside that ball
    rng = np.random.default_rng(10)
    for inv_eps in (2, 4, 8):
        eps = 1.0 / inv_eps
        radii = sample_radii_pattern(params, inv_eps)
        x = rng.uniform(0.0, 1.0, (2000, 2))
        mapped = psi_eps(params, eps, radii, x)[0]
        disp = np.max(np.hypot(*(mapped - x).T))
        assert disp <= eps * cell_bound


def test_psi_eps_jacobian_lipschitz_in_radii_eps_independent(params):
    # perturb one cell's radius; the Jacobian change is linear in the
    # perturbation with an epsilon-independent constant
    delta_r = 1e-3
    ratios = []
    for inv_eps in (2, 4, 8):
        eps = 1.0 / inv_eps
        radii = np.full((inv_eps, inv_eps), 0.25)
        radii2 = radii.copy()
        radii2[0, 0] += delta_r
        # probe points inside cell (0,0) on a fixed micro lattice
        micro = (np.stack(np.meshgrid(np.linspace(0.05, 0.95, 12),
                                      np.linspace(0.05, 0.95, 12)), axis=-1).reshape(-1, 2))
        x = micro * eps
        _, frame, r1 = psi_eps(params, eps, radii, x)
        r2 = psi_eps(params, eps, radii2, x)[2]
        ratios.append(np.max(np.abs(frame.jacobian(r2) - frame.jacobian(r1))) / delta_r)
    ratios = np.array(ratios)
    assert np.all(ratios > 0)
    assert ratios.max() - ratios.min() <= 1e-9  # identical cell-level quantity


def test_psi_eps_glues_continuously_across_faces(params):
    eps = 0.25
    n = 4
    radii = sample_radii_pattern(params, n)
    ys = np.linspace(0.0, 1.0, 23)
    for face_x in (0.25, 0.5, 0.75):
        pts = np.stack([np.full_like(ys, face_x), ys], axis=1)
        left = psi_eps(params, eps, radii, pts - [1e-13, 0.0])[0]
        right = psi_eps(params, eps, radii, pts + [1e-13, 0.0])[0]
        assert np.max(np.abs(left - right)) < 1e-11


def test_psi_eps_time_derivative_chain_rule(params):
    eps = 0.5
    radii = np.full((2, 2), 0.3)
    rates = np.full((2, 2), 0.125)
    x = np.array([[0.3, 0.2]])
    mapped, frame, r = psi_eps(params, eps, radii, x)
    dt_psi = eps * radial_image(params, frame.points, r)[1][0] * rates[0, 0]
    # finite difference in time through the radius field
    dt = 1e-6
    mapped2 = psi_eps(params, eps, radii + dt * rates, x)[0]
    fd = (mapped2[0] - mapped[0]) / dt
    assert fd == pytest.approx(dt_psi, abs=1e-8)


def test_frame_evaluation_matches_pointwise_maps(reference_mesh, params):
    """One frame on the reference midpoints, evaluated at one radius per cell,
    gives the pointwise maps on every element of the micro mesh bit for bit."""
    m = build_micro_mesh(reference_mesh, 0.5)
    rng = np.random.default_rng(12)
    radii = rng.uniform(params.r_min, params.r_max, m.n_cells)
    r_el = np.repeat(radii, len(reference_mesh.triangles))
    y = np.tile(centroids(reference_mesh.vertices, reference_mesh.triangles), (m.n_cells, 1))
    frame = RadialFrame(params, y[:len(reference_mesh.triangles)])
    sc = frame.scalars(radii[:, None])

    # the same map from a frame on every micro midpoint, one radius per point
    pointwise = RadialFrame(params, y)
    want = pointwise.scalars(r_el)
    for name in ("det", "a", "b", "s", "radius"):
        assert np.array_equal(getattr(sc, name), getattr(want, name)), name
    assert np.array_equal(frame.image(sc.radius), pointwise.image(want.radius))
    assert np.array_equal(frame.jacobian(radii[:, None]), pointwise.jacobian(r_el))

    # the image and J straight from the radial profile
    mapped = frame.image(sc.radius)
    d = y - X_CENTER
    rho = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    act = rho > params.r_min - params.delta
    R, dR, _ = profile(params, r_el[act], rho[act])
    assert np.array_equal(mapped[act], X_CENTER + R[:, None] * (d[act] / rho[act, None]))
    assert np.array_equal(sc.det[act], dR * (R / rho[act]))
    assert np.array_equal(mapped[~act], y[~act])
    assert np.all(sc.det[~act] == 1.0)


def test_frame_scalars_match_independent_oracles(reference_mesh, params):
    """J, a, b, s and R give the pulled-back tensor D J Psi^{-1} Psi^{-T} as
    D (b I + (a - b) P), the drift J Psi^{-1} dPsi/dr_gamma as J s u, and
    the image, on every micro element: against the inverse of the frame's
    Jacobian and the radial profile, and the identity in the core."""
    m = build_micro_mesh(reference_mesh, 0.5)
    rng = np.random.default_rng(13)
    radii = rng.uniform(params.r_min, params.r_max, (m.n_cells, 1))
    mids = centroids(reference_mesh.vertices, reference_mesh.triangles)
    frame = RadialFrame(params, mids)
    sc = frame.scalars(radii)
    y = np.tile(mids, (m.n_cells, 1))
    r_el = np.repeat(radii[:, 0], len(mids))
    det, psi_inv, tensor = pulled_back(params, y, r_el)
    mapped, dpsi, rho = radial_image(params, y, r_el)

    u = np.tile(frame.directions(), (m.n_cells, 1))
    proj = u[:, :, None] * u[:, None, :]
    coeff = 1.7 * (sc.b[:, None, None] * np.eye(2) + (sc.a - sc.b)[:, None, None] * proj)
    scaled = 1.7 * tensor
    assert np.allclose(coeff, scaled, rtol=1e-13, atol=1e-13 * np.abs(scaled).max())
    drift = det[:, None] * np.einsum("tab,tb->ta", psi_inv, dpsi)
    assert np.allclose((sc.det * sc.s)[:, None] * u, drift, rtol=1e-13,
                       atol=1e-13 * np.abs(drift).max())
    assert np.abs(drift).max() > 0.1
    assert np.allclose(sc.det, det, rtol=1e-13, atol=0.0)
    # the image and J are the profile's own expressions, bit for bit
    act = rho > params.r_min - params.delta
    assert np.array_equal(frame.image(sc.radius)[act], mapped[act])
    R, dR, _ = profile(params, r_el[act], rho[act])
    assert np.array_equal(sc.det[act], dR * (R / rho[act]))

    # the identity core, the center included
    y = np.array([X_CENTER, X_CENTER + 0.01, X_CENTER + [0.0, 0.3], [0.9, 0.2]])
    core = RadialFrame(params, y)
    sc = core.scalars(radii[:3])
    inner = np.tile([True, True, False, False], 3)
    assert np.all(sc.a[inner] == 1.0) and np.all(sc.b[inner] == 1.0)
    assert np.all(sc.det[inner] == 1.0) and np.all(sc.s[inner] == 0.0)
    assert np.all(core.directions()[:2] == 0.0)
    assert np.array_equal(core.image(sc.radius)[inner], np.tile(y, (3, 1))[inner])
    assert np.allclose(sc.det, pulled_back(params, np.tile(y, (3, 1)),
                                           np.repeat(radii[:3, 0], 4))[0], rtol=1e-13, atol=0.0)


def test_package_exports_resolve():
    import evopore
    import evopore.transform

    for name in evopore.__all__:
        getattr(evopore, name)
    for name in ("RadialFrame", "MapScalars"):
        assert name in evopore.__all__
        assert getattr(evopore, name) is getattr(evopore.transform, name)
