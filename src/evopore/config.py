"""Experiment configuration: flat key=value sections, documented in
docs/config_schema.md.  Parsing is strict: unknown sections or keys and
violated invariants raise ConfigError so experiments stay reproducible files.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kinetics import KineticsSpec
from .micro import ALLOWED_INV_EPS
from .transform import TransformParams

# No float64 solve can promise a relative residual below about 100 ulp, so a
# tighter tolerance only runs CG to its iteration limit.
CG_TOL_FLOOR = 1e-14
# A shorter step only costs time (1e12 steps per unit time); far below it the
# mass term M / dt overflows float64 in the linear solver.
DT_FLOOR = 1e-12
# A table radius costs two cell solves (9 ms at the default mesh), so more
# radii are a typo; np.linspace of 1e12 of them raises MemoryError.
MAX_RADIUS_COUNT = 10_000
# The 10 degree angle check needs rings about as fine as the hole polygon's
# segments, so a cell's triangles grow as n_boundary**2: 256 times at 1024.
MAX_N_BOUNDARY = 1024
# Rings thinner than about half the square boundary's segments (4 / n_boundary)
# fail the 10 degree angle check, so below 0.5 / MAX_N_BOUNDARY no reference
# mesh passes; target_h = 1e-12 sized 4.6e11 rings before the check.
TARGET_H_FLOOR = 5e-4
# A macro grid has (macro_n + 1)**2 nodes, whose system the step factors by
# a float32 banded Cholesky up to macro_n 149 (half bandwidth macro_n + 1)
# and by sparse LU beyond fem.BAND_LIMIT; 1024 is 1.05M nodes, 64 times the
# finest grid in use (128).
MAX_MACRO_N = 1024
# Every step is at least one linear solve (about 1 ms on the default macro
# grid), so a million is a quarter-hour run; t_end = 1e300 asked for 2e302.
MAX_STEPS = 1_000_000

_KNOWN_KEYS = {
    "geometry": {"r_min", "r_max", "r0", "delta"},
    "kinetics": {"family", "rate_slope", "u_eq", "f_cap", "c_s", "gate_width"},
    "source": {"name"},          # plus param.* keys
    "initial": {"u_field", "r_field"},  # plus u_param.* / r_param.*
    "discretization": {"macro_n", "epsilon_inverses", "n_boundary", "target_h", "dt", "t_end"},
    "table": {"radius_count", "radii", "path"},
    "micro": {"pinned_radii"},
    "output": {"directory", "snapshot_every"},
    "run": {"seed", "diffusion", "cg_tol"},
}

DEFAULT_CONFIG = """\
[geometry]
r_min = 0.15
r_max = 0.35
r0 = 0.25
delta = 0.12

[kinetics]
family = gated_affine
rate_slope = 1.0
u_eq = 0.5
f_cap = 1.0
c_s = 2.0
gate_width = 0.05

[source]
name = zero

[initial]
u_field = constant
u_param.value = 0.9
r_field = constant
r_param.value = 0.2

[discretization]
macro_n = 32
epsilon_inverses = 2,4,8
n_boundary = 64
target_h = 0.05
dt = 0.005
t_end = 0.5

[table]
radius_count = 11

[micro]
pinned_radii = false

[output]
directory = out
snapshot_every = 25

[run]
seed = 0
diffusion = 1.0
cg_tol = 1e-10
"""


@dataclass
class ExperimentConfig:
    params: TransformParams
    spec: KineticsSpec
    source_name: str
    source_params: dict
    u_field: str
    u_params: dict
    r_field: str
    r_params: dict
    macro_n: int
    epsilon_inverses: tuple
    n_boundary: int
    target_h: float
    dt: float
    t_end: float
    table_radii: np.ndarray
    table_path: str | None
    micro_pinned_radii: bool
    out_dir: str
    snapshot_every: int
    seed: int
    diffusion: float
    cg_tol: float
    sha256: str = field(default="")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _number(section, key: str, kind=float, lo=-math.inf, hi=math.inf):
    """``section[key]`` as a finite ``kind`` in [lo, hi], or a ConfigError
    naming it."""
    text = section[key]
    try:
        value = kind(text)
    except ValueError:
        value = None
    if kind is int:
        ok = value is not None and abs(value) < 2**63
    else:
        ok = value is not None and math.isfinite(value)
    if not ok:
        raise ConfigError(f"[{section.name}] {key} = {text!r} is not "
                          f"{'a 64-bit integer' if kind is int else 'a finite number'}")
    if not lo <= value <= hi:
        raise ConfigError(f"[{section.name}] {key} = {value} is outside [{lo}, {hi}]")
    return value


def _flag(section, key: str) -> bool:
    try:
        return section.getboolean(key)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {section[key]!r} is not true or false") \
            from None


def _params_from(section, prefix: str) -> dict:
    return {key[len(prefix):]: _number(section, key)
            for key in section if key.startswith(prefix)}


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    base = configparser.ConfigParser()
    base.read_string(DEFAULT_CONFIG)
    if cp.has_section("initial"):
        # a field the config chooses takes only the parameters the config gives it
        for name in ("u", "r"):
            if f"{name}_field" in cp["initial"]:
                for key in [k for k in base["initial"] if k.startswith(f"{name}_param.")]:
                    base.remove_option("initial", key)
    for sec in cp.sections():
        if sec not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key in cp[sec]:
            known = _KNOWN_KEYS[sec]
            if key in known or (sec == "source" and key.startswith("param.")) \
                    or (sec == "initial" and (key.startswith("u_param.") or key.startswith("r_param."))):
                base[sec][key] = cp[sec][key]
            else:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")

    g = base["geometry"]
    try:
        params = TransformParams(*(_number(g, key) for key in ("r_min", "r_max", "r0", "delta")))
    except ValueError as exc:
        raise ConfigError(f"invalid geometry: {exc}") from exc

    k = base["kinetics"]
    try:
        spec = KineticsSpec(
            r_min=params.r_min, r_max=params.r_max,
            gate_width=_number(k, "gate_width"), rate_slope=_number(k, "rate_slope"),
            u_eq=_number(k, "u_eq"), f_cap=_number(k, "f_cap"), c_s=_number(k, "c_s"),
            family=k["family"])
    except ValueError as exc:
        raise ConfigError(f"invalid kinetics: {exc}") from exc

    d = base["discretization"]
    macro_n = _number(d, "macro_n", int, 2, MAX_MACRO_N)
    try:
        inverses = tuple(int(tok) for tok in d["epsilon_inverses"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad epsilon_inverses: {exc}") from exc
    for inv in inverses:
        if inv not in ALLOWED_INV_EPS:
            raise ConfigError(f"1/epsilon must be one of {ALLOWED_INV_EPS}, got {inv}")
    if len(set(inverses)) < len(inverses):
        raise ConfigError(f"[discretization] epsilon_inverses = {d['epsilon_inverses']} "
                          f"repeats a value")
    n_boundary = _number(d, "n_boundary", int, 16, MAX_N_BOUNDARY)
    target_h = _number(d, "target_h")
    if n_boundary % 8 != 0:
        raise ConfigError(f"n_boundary must be divisible by 8, got {n_boundary}")
    if not (0.0 < target_h < 0.25):
        raise ConfigError(f"target_h must lie in (0, 0.25), got {target_h}")
    if target_h < TARGET_H_FLOOR:
        raise ConfigError(f"[discretization] target_h = {target_h} is below {TARGET_H_FLOOR:g}")
    dt = _number(d, "dt")
    t_end = _number(d, "t_end")
    if dt <= 0 or t_end <= 0:
        raise ConfigError("dt and t_end must be positive")
    if dt < DT_FLOOR:
        raise ConfigError(f"dt = {dt} is below {DT_FLOOR:g}")
    steps = t_end / dt
    if steps > MAX_STEPS:
        raise ConfigError(f"t_end = {t_end} is more than {MAX_STEPS} steps of dt = {dt}")
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"dt = {dt} does not divide t_end = {t_end} into whole steps")
    travel = dt * spec.f_cap / spec.c_s
    if travel >= (params.r_max - params.r_min) / 4.0:
        raise ConfigError(
            f"dt too large: one step can move the radius by {travel:.3g}, "
            f"more than a quarter of the admissible range")

    t = base["table"]
    if "radii" in t:
        try:
            radii = np.array([float(tok) for tok in t["radii"].split(",")])
        except ValueError:
            raise ConfigError(f"[table] radii = {t['radii']!r} is not a list of numbers") \
                from None
    else:
        radii = np.linspace(params.r_min, params.r_max,
                            _number(t, "radius_count", int, 5, MAX_RADIUS_COUNT))
    if radii.size < 5:
        raise ConfigError("table needs at least 5 radii")
    if not np.all((radii >= params.r_min) & (radii <= params.r_max)):
        raise ConfigError("table radii outside [r_min, r_max]")
    if np.any(np.diff(radii) <= 0):
        raise ConfigError("table radii must be strictly increasing")

    o = base["output"]
    run = base["run"]
    micro = base["micro"]
    cfg = ExperimentConfig(
        params=params, spec=spec,
        source_name=base["source"]["name"],
        source_params=_params_from(base["source"], "param."),
        u_field=base["initial"]["u_field"],
        u_params=_params_from(base["initial"], "u_param."),
        r_field=base["initial"]["r_field"],
        r_params=_params_from(base["initial"], "r_param."),
        macro_n=macro_n, epsilon_inverses=inverses, n_boundary=n_boundary,
        target_h=target_h, dt=dt, t_end=t_end,
        table_radii=radii, table_path=t.get("path"),
        micro_pinned_radii=_flag(micro, "pinned_radii"),
        out_dir=o["directory"], snapshot_every=_number(o, "snapshot_every", int, 1),
        seed=_number(run, "seed", int, 0), diffusion=_number(run, "diffusion"),
        cg_tol=_number(run, "cg_tol"),
        sha256=hashlib.sha256(text.encode()).hexdigest(),
    )
    if cfg.diffusion <= 0:
        raise ConfigError(f"diffusion must be positive, got {cfg.diffusion}")
    if not (CG_TOL_FLOOR <= cfg.cg_tol < 1.0):
        raise ConfigError(f"cg_tol must lie in [{CG_TOL_FLOOR:g}, 1), got {cfg.cg_tol}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
