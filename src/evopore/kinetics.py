"""Interface reaction rate and the per-cell radius update.

The rate law f(u, r) must be bounded, globally Lipschitz, nonnegative at and
below the minimum radius and nonpositive at and above the maximum radius;
those four structural conditions make the radius box invariant.  The builtin
``gated_affine`` family satisfies them by construction: a clamped affine
response in the concentration, with smooth gates that switch growth off near
r_max and dissolution off near r_min.  It is the one family: :func:`eval_f`
is its rate law and :func:`lipschitz_envelope` its analytic Lipschitz
envelope, and a :class:`KineticsSpec` naming any other family is rejected.
There is no expression parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A narrower gate is a step in the rate law in all but name, and a subnormal
# one overflows the gate argument (r_max - r) / gate_width in float64; at
# this floor the argument stays below 1e12 and the Lipschitz envelope finite.
GATE_WIDTH_FLOOR = 1e-12


@dataclass(frozen=True)
class KineticsSpec:
    r_min: float = 0.15
    r_max: float = 0.35
    gate_width: float = 0.05
    rate_slope: float = 1.0     # affine slope k in the concentration
    u_eq: float = 0.5
    f_cap: float = 1.0          # global bound C_f
    c_s: float = 2.0            # solid concentration density
    family: str = "gated_affine"

    def __post_init__(self):
        if not GATE_WIDTH_FLOOR <= self.gate_width < (self.r_max - self.r_min) / 2:
            raise ValueError(f"gate_width = {self.gate_width} must lie in "
                             f"[{GATE_WIDTH_FLOOR:g}, (r_max - r_min)/2)")
        if self.f_cap <= 0 or self.c_s <= 0:
            raise ValueError("f_cap and c_s must be positive")
        if self.family != "gated_affine":
            raise ValueError(f"unknown kinetics family {self.family!r}")


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def eval_f(spec: KineticsSpec, u, r):
    """Reaction rate; total in both arguments, vectorized."""
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    s = np.clip(spec.rate_slope * (u - spec.u_eq), -spec.f_cap, spec.f_cap)
    gate_up = _smoothstep((spec.r_max - r) / spec.gate_width)
    gate_down = _smoothstep((r - spec.r_min) / spec.gate_width)
    return gate_up * np.maximum(s, 0.0) - gate_down * np.maximum(-s, 0.0)


def lipschitz_envelope(spec: KineticsSpec) -> float:
    # conservative bound; the smoothstep gate slope is 1.5/gate_width
    return spec.rate_slope * (1.0 + 2.0 / spec.gate_width) * spec.f_cap


def step_radius(spec: KineticsSpec, r, f_value, dt: float):
    """Explicit Euler update of the radius, clamped into the admissible box.

    The continuous sign conditions keep the box invariant; the clamp repairs
    the O(dt) overshoot of the explicit step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    r = np.asarray(r, dtype=float)
    return np.clip(r + dt * np.asarray(f_value, dtype=float) / spec.c_s, spec.r_min, spec.r_max)


def check_initial_state(spec: KineticsSpec, u, r) -> None:
    """Raise ``ValueError`` unless the concentration ``u`` is finite and every
    radius of ``r`` lies in [r_min, r_max] (to 1e-12)."""
    if not np.all(np.isfinite(u)):
        raise ValueError("initial concentration has non-finite values")
    r = np.asarray(r, dtype=float).ravel()
    inside = (r >= spec.r_min - 1e-12) & (r <= spec.r_max + 1e-12)
    if not np.all(inside):
        raise ValueError(f"initial radii outside [r_min, r_max] = [{spec.r_min:g}, "
                         f"{spec.r_max:g}]: {r[~inside][0]:g}")


@dataclass
class KineticsReport:
    passed: bool
    empirical_lipschitz: float
    envelope: float
    max_abs_rate: float
    rate_cap: float
    sample_count: int
    failures: list = field(default_factory=list)


def validate_structure(spec: KineticsSpec, sample_count: int = 10_000,
                       seed: int = 0) -> KineticsReport:
    """Sample-based check of the four structural conditions.

    Draws concentrations and radii (including values outside the radius box),
    verifies the sign conditions and the global bound, and estimates the
    Lipschitz constant from two-point quotients at mixed separations against
    the family's analytic envelope.  Violations are reported with witnesses.
    """
    if sample_count < 1_000:
        raise ValueError("sample_count must be at least 1000")
    rng = np.random.default_rng(seed)
    margin = 0.5 * (spec.r_max - spec.r_min)
    u = rng.uniform(spec.u_eq - 2.0, spec.u_eq + 2.0, sample_count)
    r = rng.uniform(spec.r_min - margin, spec.r_max + margin, sample_count)
    f = eval_f(spec, u, r)

    failures = []

    def record(condition, mask, *arrays):
        if np.any(mask):
            k = int(np.argmax(mask))
            failures.append((condition, tuple(a[k] for a in arrays)))

    low = r <= spec.r_min
    record("growth_sign_at_r_min", low & (f < 0), u, r, f)
    high = r >= spec.r_max
    record("dissolution_sign_at_r_max", high & (f > 0), u, r, f)
    record("rate_bound", np.abs(f) > spec.f_cap * (1 + 1e-12), u, r, f)

    # two-point quotients: half local perturbations, half independent pairs
    m = sample_count // 2
    du = rng.uniform(-1.0, 1.0, m) * np.where(rng.random(m) < 0.5, 1e-6, 1.0)
    dr = rng.uniform(-1.0, 1.0, m) * np.where(rng.random(m) < 0.5, 1e-6, 1.0)
    f2 = eval_f(spec, u[:m] + du, r[:m] + dr)
    denom = np.abs(du) + np.abs(dr)
    quot = np.abs(f2 - f[:m]) / np.where(denom == 0, 1.0, denom)
    emp = float(quot.max())
    env = lipschitz_envelope(spec)
    record("lipschitz_envelope", quot > env * (1 + 1e-9), u[:m], r[:m], quot)

    return KineticsReport(
        passed=not failures,
        empirical_lipschitz=emp,
        envelope=env,
        max_abs_rate=float(np.abs(f).max()),
        rate_cap=spec.f_cap,
        sample_count=sample_count,
        failures=failures,
    )

