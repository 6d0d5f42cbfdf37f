import argparse
import configparser
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import evopore.transform
from evopore import cli, fem, micro
from evopore.cli import (COMMANDS, ConvergenceReport, ConvergenceRow, _initial_state,
                         _macro_solver, main, run_convergence_study)
from evopore.config import _KNOWN_KEYS, DEFAULT_CONFIG, parse_config
from evopore.errors import ConfigError, NumericalError
from evopore.macro import MacroGrid, MacroSolver, ledger_csv
from evopore.micro import MicroSimulator
from evopore.transform import RadialFrame
from evopore.unitcell import (EffectiveTensorTable, PeriodicMesh, ReferenceCell, porosity,
                              table_checks)

FAST_COMMON = """\
[discretization]
macro_n = 8
epsilon_inverses = 1,2,4
n_boundary = 32
target_h = 0.1
dt = 0.005
t_end = 0.05

[table]
radius_count = 5

[output]
snapshot_every = 5
"""


def cfg_file(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_COMMON + extra)
    return str(path)


def test_default_config_is_canonical_growth():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.u_params == {"value": 0.9}
    assert cfg.r_params == {"value": 0.2}
    assert cfg.spec.u_eq == 0.5
    assert cfg.source_name == "zero"
    assert cfg.dt == pytest.approx(1 / 200)
    assert cfg.t_end == pytest.approx(0.5)
    assert cfg.macro_n == 32
    assert cfg.target_h == 0.05


def test_config_rejections(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[geometry]\nr_max = 0.49\ndelta = 0.05\n")
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    bad.write_text("[nonsense]\nfoo = 1\n")
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    bad.write_text("[table]\nradius_count = 1\n")
    assert main(["cell-table", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    bad.write_text("[discretization]\nepsilon_inverses = 3\n")
    assert main(["micro-run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    bad.write_text("[discretization]\ndt = 0.5\n")
    assert main(["macro-run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    with pytest.raises(ConfigError):
        parse_config("[geometry]\nwrong_key = 1\n")


@pytest.mark.parametrize("body, names", [
    ("[discretization]\nn_boundary = 60\n", ["n_boundary", "60"]),
    ("[discretization]\nn_boundary = 8\n", ["n_boundary", "8"]),
    ("[discretization]\ntarget_h = 0.3\n", ["target_h", "0.3"]),
    ("[discretization]\ntarget_h = 0\n", ["target_h"]),
    ("[discretization]\ndt = 0.003\nt_end = 0.5\n", ["0.003", "0.5"]),
    ("[discretization]\nmacro_n = many\n", ["macro_n", "many"]),
    ("[discretization]\nmacro_n = 100000000000000000000\n",
     ["macro_n", "100000000000000000000"]),
    ("[run]\ncg_tol = tight\n", ["cg_tol", "tight"]),
    ("[output]\nsnapshot_every = often\n", ["snapshot_every", "often"]),
    ("[run]\nseed = 1.5\n", ["seed", "1.5"]),
    ("[run]\ndiffusion = fast\n", ["diffusion", "fast"]),
    ("[table]\nradii = 0.2,0.25,x,0.3,0.35\n", ["radii", "x"]),
    ("[micro]\npinned_radii = maybe\n", ["pinned_radii", "maybe"]),
    ("[run]\ncg_tol = 0\n", ["cg_tol", "0"]),
    ("[run]\ncg_tol = 1.5\n", ["cg_tol", "1.5"]),
    ("[run]\ndiffusion = 0\n", ["diffusion", "0"]),
    ("[run]\ndiffusion = -1\n", ["diffusion", "-1"]),
    ("[run]\ncg_tol = 1e-15\n", ["cg_tol", "1e-15"]),
    ("[geometry]\ndelta = 0\n", ["delta > 0"]),
    ("[geometry]\ndelta = 0.001\n", ["delta too small"]),
    ("[kinetics]\ngate_width = 0\n", ["gate_width"]),
    ("[discretization]\ndt = 1e-13\nt_end = 1e-12\n", ["dt", "1e-13"]),
    ("[discretization]\nn_boundary = 24\n", ["minimum angle", "n_boundary=24"]),
    ("[table]\nradius_count = 1000000000000\n", ["radius_count", "1000000000000"]),
    ("[table]\nradius_count = 4\n", ["radius_count", "4"]),
    ("[kinetics]\nf_cap = 0\n", ["f_cap"]),
    ("[kinetics]\nc_s = 0\n", ["c_s"]),
    ("[kinetics]\nfamily = nope\n", ["family", "nope"]),
    ("[geometry]\nr0 = 0.1\n", ["r_min < r0"]),
    ("[output]\nsnapshot_every = 0\n", ["snapshot_every"]),
    ("[discretization]\nt_end = -1\n", ["t_end"]),
    ("[discretization]\ndt = 0.1\n", ["dt too large"]),
    ("[run]\nseed = -5\n", ["seed", "-5"]),
    ("[discretization]\nn_boundary = 1099511627776\n", ["n_boundary", "1099511627776"]),
    ("[discretization]\nmacro_n = 4294967296\n", ["macro_n", "4294967296"]),
    ("[discretization]\nt_end = 1e300\n", ["t_end", "1e+300"]),
    ("[discretization]\nepsilon_inverses = 1,1,2\n", ["epsilon_inverses", "1,1,2"]),
    ("[discretization]\ntarget_h = 1e-12\n", ["target_h", "1e-12"]),
    ("[kinetics]\ngate_width = 5e-324\n", ["gate_width"]),
])
def test_config_rejections_one_line(tmp_path, capsys, body, names):
    bad = tmp_path / "bad.cfg"
    bad.write_text(body)
    assert main(["micro-run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    for name in names:
        assert name in err
    assert not (tmp_path / "o").exists()


def test_diffusion_rejected_before_tabulation(tmp_path, capsys):
    # a non-positive diffusion used to reach the cell problems and fail there
    # as a CG breakdown (exit 3)
    bad = cfg_file(tmp_path, "[run]\ndiffusion = 0\n")
    assert main(["cell-table", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "diffusion" in err


@pytest.mark.parametrize("args, extra, names", [
    (["micro-run", "--epsilon", "abc"], "", ["--epsilon", "abc"]),
    (["micro-run", "--epsilon", "1/3"], "", ["--epsilon", "1/3"]),
    (["micro-run", "--epsilon", "1/0"], "", ["--epsilon 1/0: float division by zero"]),
    (["micro-run", "--epsilon", "0"], "", ["--epsilon 0: 1/epsilon must be one of"]),
    (["macro-run"], "[table]\npath = {tmp}/missing.csv\n", ["path", "missing.csv"]),
    (["micro-run", "--epsilon", "1/2"], "[initial]\nr_param.value = 0.5\n",
     ["r_field", "0.5"]),
    (["macro-run"], "[table]\nradius_count = 5\n[initial]\nr_param.value = 0.5\n",
     ["r_field", "0.5"]),
    (["micro-run", "--epsilon", "1/2"], "[initial]\nu_param.value = nan\n",
     ["u_param.value", "nan"]),
    (["macro-run"], "[table]\npath = {tmp}/narrow.csv\n[initial]\nr_param.value = 0.16\n",
     ["narrow.csv", "[0.2, 0.3]"]),
    (["macro-run"], "[table]\npath = {tmp}/nan.csv\n", ["nan.csv", "non-finite"]),
    (["macro-run"], "[table]\nradii = 0.2,0.22,0.24,0.26,0.28,0.3\n[initial]\n"
     "r_param.value = 0.16\n", ["[table] radii", "[0.2, 0.3]"]),
    (["validate", "--out", "{tmp}/narrow.csv"], "", ["narrow.csv", "not a directory"]),
    (["macro-run"], "[table]\npath = {tmp}/indefinite.csv\n",
     ["indefinite.csv", "not positive definite"]),
    (["macro-run"], "[table]\npath = {tmp}/theta.csv\n", ["theta.csv", "header", "r,A11,A12,A22"]),
    (["macro-run"], "[table]\npath = {tmp}/extra.csv\n", ["extra.csv", "line 2 has 5 fields"]),
    (["macro-run"], "[table]\npath = {tmp}/header.csv\n", ["header.csv", "no rows"]),
    (["macro-run"], "[table]\npath = {tmp}/text.csv\n", ["text.csv", "line 3: ", "'x'"]),
    (["micro-run", "--epsilon", "1/2"], "[initial]\nu_field = nope\n", ["field 'nope'"]),
    (["micro-run", "--epsilon", "1/2"], "[source]\nname = nope\n", ["source 'nope'"]),
    (["micro-run", "--epsilon", "1/2"], "[initial]\nu_param.bogus = 1\n",
     ["field 'constant'", "bogus"]),
    (["micro-run", "--epsilon", "1/2"], "[source]\nname = constant\nparam.bogus = 1\n",
     ["source 'constant'", "bogus"]),
], ids=["epsilon-text", "epsilon-third", "epsilon-division", "epsilon-zero",
        "table-path-missing", "micro-radius-outside-box", "macro-radius-outside-box",
        "initial-u-nan", "table-narrow", "table-nan", "table-radii-narrow", "out-is-a-file",
        "table-indefinite", "table-theta", "table-extra-column", "table-no-rows",
        "table-text-field", "field-unknown", "source-unknown", "field-param-unknown",
        "source-param-unknown"])
def test_cli_inputs_one_line(tmp_path, capsys, args, extra, names):
    # the tables of the table cases: radii [0.2, 0.3] inside the radius box
    # [0.15, 0.35]; the full box with one NaN entry; with A12 = 0.6 beside
    # A11 = A22 <= 0.5, which is no tensor at all; a valid table with the
    # theta column of the format before it was dropped; a valid table with
    # one and two extra fields on its first two rows; its header alone; and
    # a valid table with the row 0.1,x,0,1 on line 3
    full = np.linspace(0.15, 0.35, 5)
    a11 = np.linspace(0.5, 0.3, 5)
    zero = np.zeros(5)
    tables = {
        "narrow.csv": (np.linspace(0.2, 0.3, 5), np.full(5, 0.5), zero),
        "indefinite.csv": (full, a11, np.full(5, 0.6)),
    }
    for name, (radii, diagonal, offdiagonal) in tables.items():
        table = EffectiveTensorTable(radii, np.stack([diagonal, offdiagonal, diagonal], axis=1))
        (tmp_path / name).write_text(table.to_csv())
    lines = EffectiveTensorTable(full, np.stack([a11, zero, a11], axis=1)).to_csv().splitlines()
    (tmp_path / "nan.csv").write_text(
        "\n".join([*lines[:3], "0.25,nan,0,nan", *lines[4:]]) + "\n")
    (tmp_path / "theta.csv").write_text(
        "\n".join([lines[0] + ",theta"] + ["%s,%.17g" % (ln, porosity(float(ln.split(",")[0])))
                                           for ln in lines[1:]]) + "\n")
    (tmp_path / "extra.csv").write_text(
        "\n".join([lines[0], lines[1] + ",0.1", lines[2] + ",0.1,0.2", *lines[3:]]) + "\n")
    (tmp_path / "header.csv").write_text(lines[0] + "\n")
    (tmp_path / "text.csv").write_text("\n".join([*lines[:2], "0.1,x,0,1", *lines[2:]]) + "\n")
    assert not table_checks(EffectiveTensorTable.from_csv(
        (tmp_path / "indefinite.csv").read_text()))["positive_definite"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_COMMON.replace("[table]\nradius_count = 5\n", "")
                   + extra.format(tmp=tmp_path))
    # options of the case come last, so that its own --out wins
    assert main(args[:1] + ["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
                + [arg.format(tmp=tmp_path) for arg in args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    for name in names:
        assert name in err
    assert not (tmp_path / "o").exists()


def test_unwritable_output_is_one_line(tmp_path, capsys):
    # a directory that holds the name of an output file
    (tmp_path / "o" / "report.jsonl").mkdir(parents=True)
    assert main(["validate", "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and err.count("\n") == 1
    assert str(tmp_path / "o" / "report.jsonl") in err
    # a directory name too long to look up
    assert main(["validate", "--out", str(tmp_path / ("x" * 300) / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory ") and err.count("\n") == 1


def test_cell_table_runs_and_is_deterministic(tmp_path):
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cell-table", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["cell-table", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("table.csv", "report.jsonl", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "cell-table"
    assert len(manifest["config_sha256"]) == 64
    assert manifest["checks"]["A11_strictly_decreasing"]


def test_macro_run_steady_state(tmp_path):
    cfg = cfg_file(tmp_path, "[initial]\nu_param.value = 0.5\nr_param.value = 0.25\n")
    out = tmp_path / "macro"
    assert main(["macro-run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    final = sorted(out.glob("snapshot_*.csv"))[-1].read_text().strip().splitlines()[1:]
    u = np.array([float(row.split(",")[2]) for row in final])
    r = np.array([float(row.split(",")[3]) for row in final])
    assert np.max(np.abs(u - 0.5)) < 1e-10
    assert np.max(np.abs(r - 0.25)) == 0.0
    ledger = (out / "ledger.csv").read_text().strip().splitlines()
    assert len(ledger) == 1 + 1 + 10  # header + initial + 10 steps


def test_macro_run_growth_direction_and_determinism(tmp_path):
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["macro-run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["macro-run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for f in sorted(out1.iterdir()):
        assert f.read_bytes() == (out2 / f.name).read_bytes()
    rows = sorted(out1.glob("snapshot_*.csv"))
    first = np.loadtxt(rows[0], delimiter=",", skiprows=1)
    last = np.loadtxt(rows[-1], delimiter=",", skiprows=1)
    assert last[:, 3].mean() > first[:, 3].mean()   # radii grew
    assert last[:, 2].mean() < first[:, 2].mean()   # concentration dropped


def test_macro_run_can_load_table(tmp_path):
    cfg_path = cfg_file(tmp_path)
    tdir = tmp_path / "table"
    assert main(["cell-table", "--config", cfg_path, "--out", str(tdir), "--quiet"]) == 0
    cfg2 = tmp_path / "exp2.cfg"
    cfg2.write_text(FAST_COMMON.replace(
        "[table]\nradius_count = 5", f"[table]\npath = {tdir / 'table.csv'}"))
    out = tmp_path / "m"
    assert main(["macro-run", "--config", str(cfg2), "--out", str(out), "--quiet"]) == 0


def test_cell_table_says_it_does_not_read_the_table_path(tmp_path, capsys):
    """cell-table tabulates [table] radius_count or radii whatever [table]
    path names, and says so in its first progress line: a path that does not
    exist stops nothing, and a path of <out>/table.csv is overwritten by the
    new table."""
    out = tmp_path / "o"
    assert main(["cell-table", "--config", cfg_file(tmp_path), "--out", str(out), "--quiet"]) == 0
    tabulated = (out / "table.csv").read_text()
    for path in (tmp_path / "missing.csv", out / "table.csv"):
        (out / "table.csv").write_text("an older table\n")
        cfg = tmp_path / "path.cfg"
        cfg.write_text(FAST_COMMON.replace("radius_count = 5", f"radius_count = 5\npath = {path}"))
        assert main(["cell-table", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"[table] path = {path} is not read: cell-table tabulates "
                            f"[table] radius_count or radii")
        assert not any(line.startswith("loading") for line in lines)
        assert (out / "table.csv").read_text() == tabulated


OPERATORS = ("system", "mass", "drift", "means")
PATTERNS = ("node_entries", "periodic", "band")


@pytest.mark.parametrize("command, load_table, built", [
    (["convergence"], False, (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (["micro-run", "--epsilon", "1/2"], False, (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (["macro-run"], False, (1, 1, 1, 0, 0, 0, 1, 1, 1)),
    (["cell-table"], False, (1, 1, 1, 0, 0, 0, 1, 1, 1)),
    (["macro-run"], True, (0, 0, 0, 0, 0, 0, 0, 0, 0)),
], ids=["convergence", "micro-run", "macro-run", "cell-table", "macro-run-table-path"])
def test_one_reference_cell_per_command(tmp_path, monkeypatch, command, load_table, built):
    """A command builds the reference mesh, the map's frame on its midpoints,
    each operator of the cell and each pattern of the mesh it reads at most
    once: the table and every 1/epsilon of the study share them.  A table's
    cell problems read the cell's ``system`` alone, so a tabulating command
    builds no other operator; a growing micro run reads all four.  The
    cell problems and the micro run's eps-periodic starts assemble on one
    periodic pattern of the mesh, and factor on one band of it, each built
    once in a command that does both, and a macro run that loads its table
    builds no cell."""
    config = FAST_COMMON
    if load_table:
        tdir = tmp_path / "table"
        assert main(["cell-table", "--config", cfg_file(tmp_path), "--out", str(tdir),
                     "--quiet"]) == 0
        config = config.replace("[table]\nradius_count = 5",
                                f"[table]\npath = {tdir / 'table.csv'}")
    counts = dict.fromkeys((PeriodicMesh, RadialFrame) + OPERATORS + PATTERNS, 0)

    def counting(key, build):
        def counted(*args, **kwargs):
            counts[key] += 1
            return build(*args, **kwargs)
        return counted

    for cls in (PeriodicMesh, RadialFrame):
        monkeypatch.setattr(cls, "__init__", counting(cls, cls.__init__))
    for cls, names in ((ReferenceCell, OPERATORS), (PeriodicMesh, PATTERNS)):
        for name in names:
            prop = vars(cls)[name]
            monkeypatch.setattr(prop, "func", counting(name, prop.func))
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(command[:1] + ["--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
                + command[1:]) == 0
    assert tuple(counts.values()) == built


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    """``main`` builds its parser and the commands' subparsers on its first
    call only; a later call parses with the same parser and prints the same
    help."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        helps.append(capsys.readouterr().out)
        assert len(built) == 1 + len(COMMANDS)
    assert helps[0] == helps[1] and "micro-run" in helps[0]


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# Every numeric key of the sections a macro run reads, drawn over ranges that
# straddle its valid region.  The sizes are bounded so that an example stays
# cheap: macro_n <= 16, n_boundary <= 64 and target_h >= 0.03 (a finer
# reference mesh only costs time).
_NUMERIC_KEYS = {
    "geometry": {"r_min": _floats(0.1, 0.2), "r_max": _floats(0.3, 0.4),
                 "r0": _floats(0.15, 0.4), "delta": _floats(-0.01, 0.15)},
    "kinetics": {"rate_slope": _floats(-1.0, 3.0), "u_eq": _floats(-0.5, 1.5),
                 "f_cap": _floats(-0.1, 2.0), "c_s": _floats(-0.1, 4.0),
                 "gate_width": _floats(-0.01, 0.1)},
    "discretization": {"macro_n": st.integers(0, 16).map(str),
                       "n_boundary": st.integers(1, 8).map(lambda k: str(8 * k)) | st.just("60"),
                       "target_h": _floats(0.03, 0.3) | st.just("0"),
                       "dt": _floats(-0.005, 0.05)},
    "table": {"radius_count": st.integers(3, 12).map(str)},
    "run": {"diffusion": _floats(-0.2, 3.0),
            "cg_tol": st.sampled_from(["0", "1e-15", "1e-14", "1e-12", "1e-10", "1e-6", "0.5",
                                       "1.5"])},
    "initial": {"u_param.value": _floats(-1.0, 2.0), "r_param.value": _floats(0.1, 0.4)},
}
_DEFAULTS = parse_config(DEFAULT_CONFIG)


@st.composite
def _config_texts(draw):
    """A config text that sets a few keys of :data:`_NUMERIC_KEYS` and leaves
    the rest at their defaults; t_end is mostly a whole number of steps; the
    table grid is sometimes explicit, over the radius box or a narrower one;
    and now and then one key holds a token that is not a finite number."""
    chosen = draw(st.sets(st.sampled_from([(section, key) for section, keys
                                           in _NUMERIC_KEYS.items() for key in keys]),
                          max_size=6))
    values = {key: draw(_NUMERIC_KEYS[section][key]) for section, key in sorted(chosen)}
    lines = []
    for section, keys in _NUMERIC_KEYS.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {values[key]}" for key in keys if key in values]
        if section == "discretization":
            dt = float(values.get("dt", _DEFAULTS.dt))
            if draw(st.integers(0, 3)):
                t_end = repr(draw(st.integers(1, 20)) * dt)
            else:
                t_end = draw(_floats(0.001, 1.0))
            lines.append(f"t_end = {t_end}")
        if section == "table" and draw(st.booleans()):
            lo = float(values.get("r_min", _DEFAULTS.params.r_min))
            hi = float(values.get("r_max", _DEFAULTS.params.r_max))
            inset = draw(st.sampled_from([0.0, 0.1, 0.3])) * (hi - lo)
            radii = np.linspace(lo + inset, hi - inset, draw(st.integers(4, 8)))
            lines.append("radii = " + ",".join(map(repr, radii.tolist())))
    if not draw(st.integers(0, 3)):
        index = draw(st.sampled_from([i for i, ln in enumerate(lines) if "=" in ln]))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "many", ""]))
        lines[index] = lines[index].split("=")[0] + "= " + bad
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_config_texts())
# a subnormal gate width overflowed the gate argument of the rate law
@example("[kinetics]\ngate_width = 5e-324\n[discretization]\ndt = 0.03125\nt_end = 0.03125\n")
def test_every_accepted_config_runs(text):
    """A config either is a config error before the first step, or builds
    the macro solver as ``macro-run`` does and runs two steps."""
    try:
        cfg = parse_config(text)
        solver = _macro_solver(cfg, MacroGrid.create(cfg.macro_n))
        state = _initial_state(solver, cfg)
    except ConfigError:
        event("config error")
        return
    event("ran")
    for _ in range(2):
        state = solver.step(state, cfg.dt)
    assert np.all(np.isfinite(state.u))
    assert np.all((state.r >= cfg.spec.r_min) & (state.r <= cfg.spec.r_max))


def test_config_selects_nonconstant_initial_field(tmp_path):
    initial = ("[initial]\nu_field = cosine_product\nu_param.offset = 0.7\n"
               "u_param.amplitude = 0.1\n")
    cfg = parse_config(FAST_COMMON + initial)
    assert cfg.u_params == {"offset": 0.7, "amplitude": 0.1}
    assert cfg.r_params == {"value": 0.2}   # r_field not chosen: default kept
    out = tmp_path / "cos"
    assert main(["macro-run", "--config", cfg_file(tmp_path, initial), "--out", str(out),
                 "--quiet"]) == 0
    u = np.loadtxt(out / "snapshot_000000.csv", delimiter=",", skiprows=1)[:, 2]
    assert 0.6 < u.min() < u.max() < 0.8


def test_micro_run_steady_state(tmp_path):
    cfg = cfg_file(tmp_path, "[initial]\nu_param.value = 0.5\nr_param.value = 0.25\n")
    out = tmp_path / "micro"
    assert main(["micro-run", "--config", cfg, "--out", str(out), "--quiet",
                 "--epsilon", "1/2"]) == 0
    cells = sorted(out.glob("cells_*.csv"))[-1].read_text().strip().splitlines()[1:]
    assert len(cells) == 4
    for row in cells:
        _, _, r, rate = row.split(",")
        assert abs(float(r) - 0.25) < 1e-12
        assert abs(float(rate)) < 1e-12
    snap = sorted(out.glob("micro_snapshot_*.csv"))[-1].read_text().strip().splitlines()[1:]
    u = np.array([float(row.split(",")[2]) for row in snap])
    assert np.max(np.abs(u - 0.5)) < 1e-10


def test_micro_run_growth_monotone_radii(tmp_path):
    cfg = cfg_file(tmp_path)
    out = tmp_path / "microg"
    assert main(["micro-run", "--config", cfg, "--out", str(out), "--quiet",
                 "--epsilon", "0.5"]) == 0
    series = []
    for f in sorted(out.glob("cells_*.csv")):
        rows = f.read_text().strip().splitlines()[1:]
        series.append([float(r.split(",")[2]) for r in rows])
    series = np.array(series)
    assert np.all(np.diff(series, axis=0) >= 0)
    assert series[-1].mean() > series[0].mean()


def test_micro_run_ledger_is_the_macro_ledger_and_deterministic(tmp_path):
    """Two runs write the same bytes; ``micro_ledger.csv`` is ``ledger_csv``'s
    table with the initial row, its totals are fluid + solid, and the
    report's ledger check reads its largest defect."""
    cfg = cfg_file(tmp_path)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        assert main(["micro-run", "--config", cfg, "--out", str(out), "--quiet",
                     "--epsilon", "1/2"]) == 0
    assert sorted(f.name for f in out1.iterdir()) == sorted(f.name for f in out2.iterdir())
    for f in out1.iterdir():
        assert f.read_bytes() == (out2 / f.name).read_bytes(), f.name
    lines = (out1 / "micro_ledger.csv").read_text().splitlines()
    assert lines[0] == ledger_csv([]).splitlines()[0]
    assert len(lines) == 1 + 1 + parse_config(FAST_COMMON).n_steps
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    t, total, solid, fluid, _, defect = rows.T
    assert t[0] == 0.0 and defect[0] == 0.0
    assert np.array_equal(total, fluid + solid)
    assert defect.max() > 0.0
    report = [json.loads(line) for line in (out1 / "report.jsonl").read_text().splitlines()]
    ledger_check, = (c for c in report if c.get("check") == "transformed_mass_ledger_1e-9")
    assert ledger_check["value"] == defect.max()


@pytest.mark.parametrize("command, prefixes, ledger", [
    (["macro-run"], ["snapshot"], "ledger.csv"),
    (["micro-run", "--epsilon", "1/2"], ["micro_snapshot", "cells"], "micro_ledger.csv"),
], ids=["macro", "micro"])
def test_snapshot_schedule(tmp_path, command, prefixes, ledger):
    """A run of 10 steps with snapshot_every = 4 writes the snapshots of
    steps 0, 4, 8 and 10 (the last), and its manifest lists exactly those,
    the ledger and the report."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_COMMON.replace("snapshot_every = 5", "snapshot_every = 4"))
    assert parse_config(cfg.read_text()).n_steps == 10
    out = tmp_path / "o"
    assert main(command[:1] + ["--config", str(cfg), "--out", str(out), "--quiet"]
                + command[1:]) == 0
    snapshots = [f"{prefix}_{step:06d}.csv" for prefix in prefixes for step in (0, 4, 8, 10)]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == sorted(snapshots + [ledger, "report.jsonl"])
    assert sorted(path.name for path in out.iterdir()) == sorted(outputs + ["manifest.json"])


def test_micro_run_pinned_mode_flag(tmp_path):
    cfg = cfg_file(tmp_path, "[micro]\npinned_radii = true\n")
    out = tmp_path / "pinned"
    assert main(["micro-run", "--config", cfg, "--out", str(out), "--quiet",
                 "--epsilon", "1/2"]) == 0
    cells = sorted(out.glob("cells_*.csv"))[-1].read_text().strip().splitlines()[1:]
    for row in cells:
        assert float(row.split(",")[2]) == 0.25  # radii never move
    report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert all(c["passed"] for c in report if "check" in c)


def test_convergence_needs_three_epsilons(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST_COMMON.replace("epsilon_inverses = 1,2,4", "epsilon_inverses = 2,4"))
    assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_convergence_steady_state_skips_slopes(tmp_path):
    cfg = cfg_file(tmp_path, "[initial]\nu_param.value = 0.5\nr_param.value = 0.25\n")
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    names = {c.get("check") for c in report}
    assert "slope_fit_skipped_all_errors_tiny" in names
    rows = (out / "convergence.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, ue, re_ = row.split(",")
        assert float(ue) <= 1e-9 and float(re_) <= 1e-9
    # at rest every step's system is solved by its start: no CG iteration
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "epsilon,runtime_seconds,cg_iterations"
    assert [line.split(",")[0] for line in timings[1:]] == [row.split(",")[0] for row in rows]
    assert [line.split(",")[2] for line in timings[1:]] == ["0", "0", "0"]


def test_convergence_timings_count_the_micro_cg_iterations(tmp_path, monkeypatch):
    """``timings.csv`` gives, per epsilon, the CG iterations of every micro
    step summed; ``convergence.csv`` and ``report.jsonl`` carry no count.
    From a rippled u0 every step iterates; from the constant u0 the
    solution is eps-periodic, and every step's corrected start solves it in
    0."""
    step = MicroSimulator.step

    def counted(self, state, dt):
        new = step(self, state, dt)
        steps.setdefault(self.mesh.epsilon, []).append(new.cg_iterations)
        return new

    monkeypatch.setattr(MicroSimulator, "step", counted)
    for extra, iterates in ((RIPPLED_U0, True), ("", False)):
        steps = {}
        out = tmp_path / f"conv{len(extra)}"
        assert main(["convergence", "--config", cfg_file(tmp_path, extra), "--out", str(out),
                     "--quiet"]) == 0
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "epsilon,runtime_seconds,cg_iterations"
        counts = {float(e): int(n) for e, _, n in (line.split(",") for line in timings[1:])}
        assert counts == {eps: sum(its) for eps, its in steps.items()}
        assert all(len(its) == 10 and (min(its) > 0 if iterates else max(its) == 0)
                   for its in steps.values())
        assert "cg" not in (out / "convergence.csv").read_text()
        assert "cg" not in (out / "report.jsonl").read_text()


def test_convergence_checks_every_micro_ledger(tmp_path, capsys, monkeypatch):
    """The study's report checks, per 1/epsilon, the largest ledger defect of
    the micro steps against 1e-9, as micro-run checks its run's.  A defect
    perturbed past the bound at one epsilon fails that check alone, with
    exit 1, and leaves ``convergence.csv`` as it was."""
    defects, perturb = {}, []
    step = MicroSimulator.step

    def recorded(self, state, dt):
        new = step(self, state, dt)
        if perturb and self.mesh.epsilon == 0.5 and new.t > 0.02:
            new.defect += 1e-8
        defects.setdefault(round(1.0 / self.mesh.epsilon), []).append(new.defect)
        return new

    monkeypatch.setattr(MicroSimulator, "step", recorded)
    runs = []
    for name in ("exact", "perturbed"):
        out = tmp_path / name
        runs.append((main(["convergence", "--config", cfg_file(tmp_path), "--out", str(out),
                           "--quiet"]), out, capsys.readouterr().err))
        report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
        ledger = {c["check"]: c for c in report
                  if c.get("check", "").startswith("transformed_mass_ledger")}
        assert {check: c["value"] for check, c in ledger.items()} == \
            {f"transformed_mass_ledger_1e-9_eps{inv}": max(d) for inv, d in defects.items()}
        manifest = json.loads((out / "manifest.json").read_text())
        assert {check: manifest["checks"][check] for check in ledger} == \
            {check: c["passed"] for check, c in ledger.items()}
        defects.clear()
        perturb.append(True)

    (code, exact, err), (perturbed_code, perturbed, perturbed_err) = runs
    assert code == 0 and err == ""
    assert perturbed_code == 1
    assert re.fullmatch(r"check failed: transformed_mass_ledger_1e-9_eps2 \(value 1\.0\d*e-08\)\n",
                        perturbed_err)
    assert (perturbed / "convergence.csv").read_bytes() == (exact / "convergence.csv").read_bytes()


def test_convergence_fails_the_u_check_when_the_u_error_grows(tmp_path, capsys, monkeypatch):
    """A study whose u errors grow as epsilon falls fails the u check alone:
    exit 1, one line naming the check and its slope, and the manifest
    records the check as false."""
    rows = [ConvergenceRow(0.5, 1e-3, 1e-3, 0.0, 0, 0.0),
            ConvergenceRow(0.25, 2e-3, 5e-4, 0.0, 0, 0.0),
            ConvergenceRow(0.125, 4e-3, 2.5e-4, 0.0, 0, 0.0)]
    monkeypatch.setattr(cli, "run_convergence_study",
                        lambda cfg: ConvergenceReport(rows, -1.0, 1.0, False, True, False))
    out = tmp_path / "o"
    assert main(["convergence", "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "check failed: u_error_strictly_decreasing (value -1.0)\n"
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert checks == {"u_error_strictly_decreasing": False, "r_error_strictly_decreasing": True,
                      **{f"transformed_mass_ledger_1e-9_eps{inv}": True for inv in (2, 4, 8)}}


def test_convergence_failure_names_its_step(tmp_path, capsys, monkeypatch):
    def stall(self, state, dt):
        raise NumericalError("CG stalled")

    monkeypatch.setattr(MicroSimulator, "step", stall)
    assert main(["convergence", "--config", cfg_file(tmp_path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: micro step 1 (1/eps=1): CG stalled\n"


def test_failed_coarse_factorization_is_one_line(tmp_path, capsys, monkeypatch):
    """A coarse system that its banded Cholesky cannot factor stops a micro
    run whose radii move at its first step: exit 3 and one line naming the
    step and its time."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Factor is exactly singular")

    monkeypatch.setattr(fem.sla, "cholesky_banded", singular)
    assert main(["micro-run", "--config", cfg_file(tmp_path), "--out", str(tmp_path / "o"),
                 "--epsilon", "1/2", "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: micro step 1 (1/eps=2): micro coarse factorization failed at "
        "t=0.005: Factor is exactly singular\n")


def test_failed_cell_problem_factorization_is_one_line(tmp_path, capsys, monkeypatch):
    """A cell-problem system that its banded Cholesky finds not positive
    definite, here each system negated on its way to LAPACK, stops the
    table: exit 3 and one line naming the radius, with no traceback and no
    RuntimeWarning, which the test settings make an error."""
    cholesky = fem.sla.cholesky_banded
    monkeypatch.setattr(fem.sla, "cholesky_banded", lambda ab, **k: cholesky(-ab, **k))
    assert main(["cell-table", "--config", cfg_file(tmp_path), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: tensor tabulation failed at r=0.15: cell problem: "
        "1-th leading minor not positive definite\n")


def test_table_beyond_single_precision_fails_its_factorization(tmp_path, capsys):
    """A loaded table of entries near 1e200 is positive definite, which its
    check finds without overflowing, and its macro system overflows the
    single precision factor: exit 3 and one line naming the factorization,
    with no RuntimeWarning, which the test settings make an error."""
    radii = np.linspace(0.15, 0.35, 5)
    table = tmp_path / "huge.csv"
    table.write_text(EffectiveTensorTable(radii, np.tile([1e200, 5e199, 1e200], (5, 1))).to_csv())
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_COMMON.replace("radius_count = 5", f"path = {table}"))
    assert main(["macro-run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: macro step 1: macro factorization failed at t=0.005: "
        "matrix entries overflow float32\n")


def test_cell_table_is_unit_diffusion(tmp_path):
    """D multiplies the whole cell problem, so the table is the same at any
    D, and the steppers apply D."""
    tables = []
    for d in ("1", "2"):
        out = tmp_path / d
        assert main(["cell-table", "--config", cfg_file(tmp_path, f"[run]\ndiffusion = {d}\n"),
                     "--out", str(out), "--quiet"]) == 0
        tables.append((out / "table.csv").read_bytes())
    assert tables[0] == tables[1]


def test_two_scale_errors_fall_at_diffusion_two():
    """On a gradient scenario at D = 2 the macro and micro solvers diffuse
    alike: the u error falls from 1/eps = 2 to 4 (about 1.3e-3 to 3.5e-4).
    With D^2 in the macro tensor it grows (3.7e-3 to 4.7e-3)."""
    cfg = parse_config("[initial]\nu_field = cosine_product\nu_param.offset = 0.6\n"
                       "u_param.amplitude = 0.3\n[discretization]\nt_end = 0.1\n"
                       "macro_n = 64\nepsilon_inverses = 2,4\n[run]\ndiffusion = 2\n")
    rows = run_convergence_study(cfg).rows
    assert [round(1.0 / row.epsilon) for row in rows] == [2, 4]
    assert rows[1].u_l2_error < rows[0].u_l2_error


def test_validate_exit_codes_and_tamper(tmp_path, monkeypatch):
    out = tmp_path / "v"
    assert main(["validate", "--out", str(out), "--quiet"]) == 0
    report = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert all(c["passed"] for c in report if "check" in c)

    # tampering with the kernel normalization must trip an identity check;
    # in the hinge construction the outside-annulus identity is structural,
    # so the damage surfaces at the plateau identity, with a witness radius
    for name in ("_kernel_g", "_kernel_cdf"):
        kernel = getattr(evopore.transform, name)
        monkeypatch.setattr(evopore.transform, name,
                            lambda z, kernel=kernel: (1.0 + 1e-6) * kernel(z))
    out2 = tmp_path / "v2"
    assert main(["validate", "--out", str(out2), "--quiet"]) == 1
    report = [json.loads(line) for line in (out2 / "report.jsonl").read_text().splitlines()]
    failed = {c["check"] for c in report if "check" in c and not c["passed"]}
    assert "profile_plateau_hits_radius" in failed
    bad = [c for c in report if c.get("check") == "profile_plateau_hits_radius"][0]
    assert "witness" in bad


def test_console_entry_point():
    # the child imports the package this test imports, installed or not
    src = str(Path(evopore.transform.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "evopore", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for cmd in ("cell-table", "macro-run", "micro-run", "convergence", "validate"):
        assert cmd in proc.stdout


def test_progress_lines_go_through_the_evopore_logger(tmp_path, capsys):
    """``main`` prints the progress lines to stdout for one call unless
    --quiet, and leaves no handler on the ``evopore`` logger; a library call
    prints nothing."""
    logger = logging.getLogger("evopore")
    handlers = list(logger.handlers)
    cfg = cfg_file(tmp_path)
    assert main(["macro-run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tabulating effective tensors on 5 radii"
    assert re.fullmatch(r"macro run: 10 steps, \d+ CG iterations, \d+ factorizations, "
                        r"max ledger defect \S+", lines[1])
    assert len(lines) == 2
    assert logger.handlers == handlers

    assert main(["macro-run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert logger.handlers == handlers

    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ndiffusion = 0\n")
    assert main(["macro-run", "--config", str(bad), "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().out == ""
    assert logger.handlers == handlers

    run_convergence_study(parse_config(FAST_COMMON))
    assert capsys.readouterr().out == ""


PINNED = "[micro]\npinned_radii = true\n"
COSINE_U0 = ("[initial]\nu_field = cosine_product\nu_param.offset = 0.7\n"
             "u_param.amplitude = 0.1\n")
# the canonical u0 plus a 1% cosine: not eps-periodic, and small enough that
# the study's errors still fall at every level of FAST_COMMON
RIPPLED_U0 = ("[initial]\nu_field = cosine_product\nu_param.offset = 0.9\n"
              "u_param.amplitude = 0.01\n")


@pytest.mark.parametrize("command, stepper, extra, summary, factored, iterates", [
    (["macro-run"], MacroSolver, "", "macro run: 10 steps", 1, True),
    (["convergence"], MicroSimulator, RIPPLED_U0, "  1/eps=4: 10 steps", 0, True),
    (["convergence"], MicroSimulator, "", "  1/eps=4: 10 steps", 0, False),
    (["micro-run", "--epsilon", "1/2"], MicroSimulator, PINNED + COSINE_U0,
     "micro run 1/eps=2: 10 steps", 1, True),
    (["micro-run", "--epsilon", "1/2"], MicroSimulator, PINNED, "micro run 1/eps=2: 10 steps", 0,
     False),
    (["micro-run", "--epsilon", "1/2"], MicroSimulator, COSINE_U0,
     "micro run 1/eps=2: 10 steps", 0, True),
    (["micro-run", "--epsilon", "1/2"], MicroSimulator, "", "micro run 1/eps=2: 10 steps", 0,
     False),
], ids=["macro", "convergence", "convergence-periodic", "micro-pinned", "micro-pinned-constant",
        "micro-growing", "micro-growing-periodic"])
def test_summary_line_counts_the_solver_work(tmp_path, capsys, monkeypatch, command, stepper,
                                            extra, summary, factored, iterates):
    """The summary line of a run, and the progress line of each level of the
    convergence study, gives the CG iterations of its steps, summed, and its
    sparse LU factorizations: the macro solver's single precision factor, the
    one factor of a pinned micro run's system, none in a micro run whose radii
    move, and none in a pinned run from a constant u0, which every step's CG
    start already solves.  A micro line then gives the steps that started
    from the eps-periodic correction, and the CG iterations and the
    factorizations of the coarse solves, taken or not, which only moving
    radii make: from a constant u0 with moving radii the solution is
    eps-periodic, every step takes the correction and no step iterates.
    The outputs carry none of the counts."""
    iterations, factorizations, factor_calls, steppers = [], [], [], []
    starts, coarse, coarse_factorizations = [], [], []
    step = stepper.step
    periodic_start, coarse_cg = MicroSimulator._periodic_start, micro.solve_cg

    def counted(self, state, dt):
        if not steppers or steppers[-1] is not self:   # the study's next level
            steppers.append(self)
            for counts in (iterations, factorizations, starts, coarse, coarse_factorizations):
                counts.clear()
        before = len(factor_calls)   # the cell problems of the table factor too
        coarse_before = sum(coarse_factorizations)
        new = step(self, state, dt)
        iterations.append(new.cg_iterations)
        factorizations.append(len(factor_calls) - before
                              - (sum(coarse_factorizations) - coarse_before))
        return new

    def started(self, system, b, x0, diagonal):
        before = len(factor_calls)
        start = periodic_start(self, system, b, x0, diagonal)
        starts.append(start is not x0)
        coarse_factorizations.append(len(factor_calls) - before)
        return start

    def coarse_solve(A, b, **kwargs):
        x, report = coarse_cg(A, b, **kwargs)
        coarse.append(report.iterations)
        return x, report

    monkeypatch.setattr(stepper, "step", counted)
    monkeypatch.setattr(MicroSimulator, "_periodic_start", started)
    monkeypatch.setattr(micro, "solve_cg", coarse_solve)
    # sparse LU and the banded Cholesky of the reference cell's periodic pattern
    for module, name in ((fem.spla, "splu"), (fem.sla, "cholesky_banded")):
        monkeypatch.setattr(module, name, lambda *a, factorize=getattr(module, name), **k:
                            factor_calls.append(1) or factorize(*a, **k))
    out = tmp_path / "o"
    assert main(command[:1] + ["--config", cfg_file(tmp_path, extra), "--out", str(out)]
                + command[1:]) == 0
    line, = (line for line in capsys.readouterr().out.splitlines()
             if line.startswith(f"{summary}, "))
    work = f"{summary}, {sum(iterations)} CG iterations, {sum(factorizations)} factorizations"
    if stepper is MicroSimulator:
        work += (f", {sum(starts)} periodic starts, {sum(coarse)} coarse CG iterations, "
                 f"{sum(coarse_factorizations)} coarse factorizations")
        # the kept coarse factor is built on the first moving step
        assert (sum(coarse_factorizations) > 0) == (PINNED not in extra)
    assert line.startswith(f"{work}, max ledger defect ")
    assert sum(factorizations) == factored
    assert (sum(iterations) > 0) == iterates
    if stepper is MicroSimulator and not iterates and extra != PINNED:
        assert sum(starts) == 10 and sum(coarse) > 0
    for path in out.iterdir():
        text = path.read_text()
        assert "factorizations" not in text and "periodic" not in text


def _doc_block(heading: str, language: str) -> str:
    """The first fenced block of ``language`` under ``heading`` in the
    config schema."""
    text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_config_schema_doc_matches_the_code():
    text = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    block = _doc_block("## Config files", "ini")
    doc = configparser.ConfigParser(inline_comment_prefixes=("#",))
    doc.read_string(block)
    default = configparser.ConfigParser()
    default.read_string(DEFAULT_CONFIG)
    assert {s: dict(doc[s]) for s in doc.sections()} == \
        {s: dict(default[s]) for s in default.sections()}
    # every known key is documented in its section, commented or not
    chunks = dict(re.findall(r"^\[(\w+)\][^\n]*\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    assert set(chunks) == set(_KNOWN_KEYS)
    for section, keys in _KNOWN_KEYS.items():
        for key in keys:
            assert re.search(rf"^(# )?{key} = ", chunks[section], re.M), (section, key)

    # the ledger rows of the output table list the columns ledger_csv writes
    header = ledger_csv([]).splitlines()[0]
    for name in ("ledger.csv", "micro_ledger.csv"):
        row = re.search(rf"^\| `{re.escape(name)}` \| [^|]+ \| `([^`]*)`", text, re.M)
        assert row and row[1] == header, name

    usage = [line.split() for line in _doc_block("## CLI", "").strip().splitlines()]
    assert [words[1] for words in usage] == list(COMMANDS)
    assert [words[1] for words in usage if "[--epsilon" in words] == ["micro-run"]
