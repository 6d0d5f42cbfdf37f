"""Property suites for the transformation and the kinetics.

Each check returns a dict with the check name, a pass flag, the measured
value, and a witness where applicable.  The CLI validate command serializes
these as JSON lines; the acceptance tests assert on the same machinery.
"""

from __future__ import annotations

import numpy as np

from .kinetics import KineticsSpec, validate_structure
from .transform import RadialFrame, TransformParams, profile


def _check(name: str, passed: bool, value: float, witness=None) -> dict:
    out = {"check": name, "passed": bool(passed), "value": float(value)}
    if witness is not None:
        out["witness"] = witness
    return out


def radius_palette(params: TransformParams) -> np.ndarray:
    return np.array([params.r_min, params.r_max, params.r0,
                     0.5 * (params.r_min + params.r_max)])


def patterned_radii(params: TransformParams, n: int) -> np.ndarray:
    """Deterministic per-cell radii hitting both extremes at every n."""
    k1, k2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return radius_palette(params)[(k1 + k2) % 4]


def _image(params: TransformParams, y: np.ndarray, r_gamma) -> np.ndarray:
    """Image of the points ``y`` (n, 2) at one radius or one per point."""
    frame = RadialFrame(params, y)
    return frame.image(frame.scalars(r_gamma).radius)


def transform_identity_checks(params: TransformParams, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []

    y = rng.uniform(0.0, 1.0, (400, 2))
    mapped = _image(params, y, params.r0)
    dev = np.hypot(*(mapped - y).T)
    k = int(np.argmax(dev))
    out.append(_check("map_is_identity_at_r0", dev.max() <= 1e-12, dev.max(),
                      witness=list(y[k])))

    rgs = np.linspace(params.r_min, params.r_max, 20)
    vals = profile(params, rgs, np.full(20, params.r0))[0]
    err = np.abs(vals - rgs)
    out.append(_check("profile_plateau_hits_radius", err.max() <= 1e-12, err.max(),
                      witness=float(rgs[int(np.argmax(err))])))

    lo = rng.uniform(0.0, params.r_min - params.delta, 200)
    hi = rng.uniform(params.r_max + params.delta, 0.95, 200)
    r = np.concatenate([lo, hi])
    rg = rng.uniform(params.r_min, params.r_max, 400)
    vals, der, _ = profile(params, rg, r)
    dev = np.maximum(np.abs(vals - r), np.abs(der - 1.0))
    k = int(np.argmax(dev))
    out.append(_check("identity_outside_transition_annulus", dev.max() <= 1e-12,
                      dev.max(), witness=float(r[k])))
    return out


def jacobian_checks(params: TransformParams, seed: int = 0, n_samples: int = 500,
                    h: float = 1e-5) -> list[dict]:
    rng = np.random.default_rng(seed)
    rg = rng.uniform(params.r_min, params.r_max, n_samples)
    y = rng.uniform(2 * h, 1.0 - 2 * h, (n_samples, 2))
    frame = RadialFrame(params, y)
    jac = frame.jacobian(rg)
    det = frame.scalars(rg).det

    fd = np.empty_like(jac)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, :, j] = (_image(params, y + e, rg) - _image(params, y - e, rg)) / (2 * h)
    gap = np.abs(fd - jac).max(axis=(1, 2))
    k = int(np.argmax(gap))
    out = [_check("jacobian_matches_finite_differences", gap.max() <= 1e-7, gap.max(),
                  witness=[float(rg[k]), *map(float, y[k])])]

    out.append(_check("jacobian_det_lower_bound", det.min() > 0.1, det.min(),
                      witness=[float(rg[int(np.argmin(det))]), *map(float, y[int(np.argmin(det))])]))
    out.append(_check("jacobian_det_upper_bound", np.isfinite(det.max()), det.max()))
    return out


def epsilon_uniformity_checks(params: TransformParams, inverses=(2, 4, 8),
                              rel_tol: float = 0.05) -> list[dict]:
    """Measured transformation constants must be epsilon-independent.

    Samples the same in-cell lattice in every cell with a fixed radius
    pattern, plus a one-cell radius perturbation for the Lipschitz ratio.
    One frame on the lattice serves every epsilon: cell k maps its lattice
    to eps (k + psi(r_k, y)).
    """
    offs = np.linspace(0.06, 0.94, 9)
    micro = np.stack(np.meshgrid(offs, offs), axis=-1).reshape(-1, 2)
    frame = RadialFrame(params, micro)
    delta_r = 1e-3

    disp, psin, jmax, jmin, lips = [], [], [], [], []
    for inv in inverses:
        eps = 1.0 / inv
        cells = np.array([(i, j) for i in range(inv) for j in range(inv)])
        radii = patterned_radii(params, inv)[cells[:, 0], cells[:, 1], None]
        sc = frame.scalars(radii)
        jac = frame.jacobian(radii)
        pts = (cells + micro[:, None]) * eps   # (point, cell, 2), as the frame's scalars
        mapped = (cells + frame.image(sc.radius)) * eps
        disp.append(np.hypot(*(mapped - pts).T).max() / eps)
        psin.append(np.abs(jac).max())
        jmax.append(sc.det.max())
        jmin.append(sc.det.min())
        radii2 = radii.copy()
        radii2[0, 0] += delta_r if radii2[0, 0] < params.r_max else -delta_r
        jac2 = frame.jacobian(radii2)
        lips.append(np.abs(jac2 - jac).max() / delta_r)

    out = []
    for name, vals in (("displacement_over_eps", disp), ("jacobian_sup_norm", psin),
                       ("jacobian_det_sup", jmax), ("jacobian_det_inf", jmin),
                       ("lipschitz_ratio_in_radii", lips)):
        vals = np.asarray(vals)
        spread = (vals.max() - vals.min()) / np.abs(vals).max()
        out.append(_check(f"eps_uniform_{name}", spread <= rel_tol, spread,
                          witness=[float(v) for v in vals]))
    return out


def kinetics_checks(spec: KineticsSpec, sample_count: int = 10_000, seed: int = 0) -> list[dict]:
    report = validate_structure(spec, sample_count, seed)
    out = [_check("kinetics_structure", report.passed, report.empirical_lipschitz,
                  witness=[list(map(float, w)) for _, w in report.failures] or None)]
    out.append(_check("kinetics_lipschitz_under_envelope",
                      report.empirical_lipschitz <= report.envelope,
                      report.empirical_lipschitz))
    out.append(_check("kinetics_rate_bound", report.max_abs_rate <= report.rate_cap,
                      report.max_abs_rate))
    return out


def full_validation(params: TransformParams, spec: KineticsSpec, seed: int = 0) -> list[dict]:
    checks = []
    checks += transform_identity_checks(params, seed)
    checks += jacobian_checks(params, seed)
    checks += epsilon_uniformity_checks(params)
    checks += kinetics_checks(spec, seed=seed)
    return checks
