import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopore import kinetics
from evopore.kinetics import (
    KineticsSpec,
    eval_f,
    lipschitz_envelope,
    step_radius,
    validate_structure,
)


def test_equilibrium_is_zero(spec):
    r = np.linspace(0.0, 0.6, 50)
    assert np.all(eval_f(spec, spec.u_eq, r) == 0.0)


def test_sign_conditions(spec):
    u = np.linspace(-1.0, 2.0, 101)
    assert np.all(eval_f(spec, u, spec.r_max) <= 0.0)
    assert np.all(eval_f(spec, u, spec.r_min) >= 0.0)
    assert np.all(eval_f(spec, u, spec.r_max + 0.1) <= 0.0)
    assert np.all(eval_f(spec, u, spec.r_min - 0.1) >= 0.0)


def test_rate_bound(spec):
    rng = np.random.default_rng(0)
    u = rng.uniform(-5.0, 5.0, 10_000)
    r = rng.uniform(0.0, 0.6, 10_000)
    assert np.max(np.abs(eval_f(spec, u, r))) <= spec.f_cap


def test_growth_and_dissolution_directions(spec):
    mid = 0.5 * (spec.r_min + spec.r_max)
    assert eval_f(spec, spec.u_eq + 0.3, mid) > 0.0
    assert eval_f(spec, spec.u_eq - 0.3, mid) < 0.0


def test_validator_passes_builtin(spec):
    report = validate_structure(spec, sample_count=10_000, seed=1)
    assert report.passed
    assert report.empirical_lipschitz <= report.envelope
    assert report.max_abs_rate <= spec.f_cap


def _ungated_affine(spec, u, r):
    """The gated rate law without its gates: the sign conditions fail."""
    u = np.asarray(u, dtype=float)
    s = np.clip(spec.rate_slope * (u - spec.u_eq), -spec.f_cap, spec.f_cap)
    return s * np.ones_like(np.asarray(r, float))


def test_validator_flags_broken_family(monkeypatch):
    monkeypatch.setattr(kinetics, "eval_f", _ungated_affine)
    report = validate_structure(KineticsSpec(), sample_count=5_000, seed=2)
    assert not report.passed
    conditions = {c for c, _ in report.failures}
    assert "dissolution_sign_at_r_max" in conditions or "growth_sign_at_r_min" in conditions
    witness = dict(report.failures)[next(iter(conditions))]
    assert len(witness) == 3


def test_validator_envelope_formula(spec):
    assert lipschitz_envelope(spec) == pytest.approx(
        spec.rate_slope * (1.0 + 2.0 / spec.gate_width) * spec.f_cap)


def test_validator_rejects_tiny_samples(spec):
    with pytest.raises(ValueError):
        validate_structure(spec, sample_count=10)


def test_step_radius_identity_and_arithmetic(spec):
    assert step_radius(spec, 0.25, 0.0, 0.01) == 0.25
    assert step_radius(spec, 0.25, spec.c_s * 0.1, 0.01) == pytest.approx(0.251, abs=1e-15)


def test_step_radius_clamps(spec):
    assert step_radius(spec, spec.r_max, 5.0, 0.1) == spec.r_max
    assert step_radius(spec, spec.r_min, -5.0, 0.1) == spec.r_min


def test_step_radius_rejects_nonpositive_dt(spec):
    with pytest.raises(ValueError):
        step_radius(spec, 0.25, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.15, max_value=0.35),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-4, max_value=0.1),
       st.integers(min_value=1, max_value=80))
def test_box_invariance_along_trajectories(r0, u, dt, steps):
    spec = KineticsSpec()
    r = r0
    for _ in range(steps):
        f = float(eval_f(spec, u, r))
        r_new = float(step_radius(spec, r, f, dt))
        assert spec.r_min <= r_new <= spec.r_max
        assert abs(r_new - r) <= dt * spec.f_cap / spec.c_s + 1e-15
        r = r_new


def test_lipschitz_quotient_never_exceeds_envelope(spec):
    rng = np.random.default_rng(3)
    env = lipschitz_envelope(spec)
    u1 = rng.uniform(-2, 3, 20_000)
    r1 = rng.uniform(0.0, 0.6, 20_000)
    u2 = u1 + rng.uniform(-0.5, 0.5, 20_000)
    r2 = r1 + rng.uniform(-0.05, 0.05, 20_000)
    f1 = eval_f(spec, u1, r1)
    f2 = eval_f(spec, u2, r2)
    denom = np.abs(u2 - u1) + np.abs(r2 - r1)
    mask = denom > 0
    assert np.max(np.abs(f2 - f1)[mask] / denom[mask]) <= env


def test_spec_validation():
    with pytest.raises(ValueError):
        KineticsSpec(gate_width=0.2)
    with pytest.raises(ValueError):
        KineticsSpec(c_s=-1.0)
    with pytest.raises(ValueError):
        KineticsSpec(family="nope")
