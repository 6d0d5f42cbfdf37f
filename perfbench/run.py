#!/usr/bin/env python3
"""Layered benchmark for evopore.

    python3 perfbench/run.py --workload convergence --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` a run measures the end-to-end metrics with tracing off:
it repeats the workload's command until ``--seconds`` have passed (see
``workloads.py``), and scales every time to the machine speed measured by
the calibration kernel (see ``calibration.py``).  With ``--trace 1`` it runs
the command once untraced and once traced and reports the per-layer metrics,
with raw times; the traced command is a fixed amount of work, so its counts
repeat exactly for a given seed.

Every command is checked (``workloads.check_unit``).  Output: one JSON line of
machine facts, one JSON line of the checks and checked final values, one line
per metric, and last one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every check
passed, 1 when one failed, 2 when evopore cannot be imported from this
checkout's ``src/``.  ``--workload all`` runs each workload in its own process
in turn and prints their metrics together.

The run uses one BLAS thread.  On a 2-core VM a second OpenBLAS thread
added about half again as much CPU time and no speed to a micro step, and
made its step time spread several times wider.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibration import NOMINAL_S, Kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def import_evopore() -> str | None:
    """Import the package from this checkout's ``src/``; an error text if not."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import evopore.cli  # noqa: F401
    except ImportError as exc:
        return f"cannot import evopore from {src}: {exc}"
    import evopore
    if Path(evopore.__file__).resolve().parent.parent != src:
        return f"evopore was imported from {evopore.__file__}, not from {src}"
    return None


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def _p90_ms(durations) -> float:
    return float(np.percentile(durations, 90)) * 1e3 if durations else 0.0


def end_to_end(units) -> tuple[dict, int]:
    """Tracing off; the metrics and the number of step samples behind
    ``step_ms.p50``, which is the micro step at the finest 1/eps when the
    workload runs micro steps, else the macro step.

    Every time is scaled to the calibration kernel's nominal speed
    (``calibration.py``): a step by the kernel run right after it, a
    stepper's set-up time by the median kernel run of that stepper's steps,
    and the rest of a command's wall time by the command's median kernel run.
    """
    scaled: dict[tuple, list] = {}    # (kind, 1/eps, nodes) -> scaled step times
    walls, setups = [], []
    for u in units:
        steppers = u.clock.steppers
        rest = u.wall - sum(u.setup) - sum(sum(s.durations) for s in steppers)
        wall = rest * NOMINAL_S / statistics.median(k for s in steppers for k in s.kernel)
        setup = 0.0
        for s, gap in zip(steppers, u.setup):
            steps = [d * NOMINAL_S / k for d, k in zip(s.durations, s.kernel)]
            setup += gap * NOMINAL_S / statistics.median(s.kernel)
            wall += sum(steps)
            key = (s.kind, round(1.0 / s.epsilon) if s.epsilon else 0, s.nodes)
            scaled.setdefault(key, []).extend(steps)
        walls.append(wall + setup)
        setups.append(setup)
    micro = [key for key in scaled if key[0] == "micro"]
    principal = scaled[max(micro)] if micro else scaled[max(scaled)]
    dof_steps = sum(nodes * len(d) for (_, _, nodes), d in scaled.items())
    busy = sum(sum(d) for d in scaled.values())
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "step_ms.p50": (_median_ms(principal), "ms"),
        "dof_steps_per_s": (dof_steps / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(principal)


def per_layer(untraced, traced) -> dict:
    """Tracing on, from exactly one traced command.  The micro step
    percentiles are taken at the finest 1/eps, as ``step_ms.p50`` is."""
    out = {}
    for name, agg in traced.tracer.summary().items():
        out[f"{name}.s"] = (agg["s"], "s")
        out[f"{name}.self_s"] = (agg["self_s"], "s")
        out[f"{name}.calls"] = (agg["calls"], "count")
        if name.startswith("transform."):
            out[f"{name}.step_calls"] = (agg["step_calls"], "count")
    counts = traced.tracer.counts
    for key, value in counts.items():
        out[key] = (value, "B" if key.endswith(".bytes") else "count")
    out["sparse.nnz_per_triplet"] = (
        counts["sparse.nnz"] / counts["sparse.triplets"] if counts["sparse.triplets"] else 0.0,
        "ratio")
    solves = out["sparse.cg.calls"][0]
    out["sparse.cg.iters_per_solve"] = (
        counts["sparse.cg.iterations"] / solves if solves else 0.0, "count")

    steppers = traced.clock.steppers
    for inv in (2, 4, 8, 16):
        d = [x for s in steppers if s.kind == "micro" and round(1.0 / s.epsilon) == inv
             for x in s.durations]
        out[f"micro.step_ms.eps{inv}"] = (_median_ms(d), "ms")
    micro = [s for s in steppers if s.kind == "micro"]
    finest = min((s.epsilon for s in micro), default=None)
    for kind, chosen in (("micro", [s for s in micro if s.epsilon == finest]),
                         ("macro", [s for s in steppers if s.kind == "macro"])):
        d = [x for s in chosen for x in s.durations]
        out[f"{kind}.step_ms.p50"] = (_median_ms(d), "ms")
        out[f"{kind}.step_ms.p90"] = (_p90_ms(d), "ms")
        out[f"{kind}.step_samples"] = (len(d), "count")
    out["cli.files_written"] = (traced.files, "count")
    out["cli.bytes_written"] = (traced.bytes, "B")
    out["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as W

    wl = W.WORKLOADS[name]
    ref_doc = json.loads(REFERENCE.read_text())
    tol = ref_doc["tolerance"]
    reference = None
    if not wl.seeded or seed == ref_doc["seed"]:
        reference = ref_doc["workloads"].get(name)
    W.register_field()
    config = wl.config(seed)

    workdir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        units = []
        if trace:
            units.append(W.run_unit(wl.command, config, workdir))
            units.append(W.run_unit(wl.command, config, workdir, trace=True))
        else:
            kernel = Kernel()
            deadline = time.perf_counter() + seconds
            while len(units) < wl.min_units or time.perf_counter() < deadline:
                units.append(W.run_unit(wl.command, config, workdir, kernel=kernel))
                if units[-1].exit_code != 0:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    checks = {}
    for u in units:
        W.check_unit(u, wl.command, reference, tol, units[0])
        for check, ok in u.checks.items():
            checks[check] = checks.get(check, True) and ok
        if not all(u.checks.values()) and u.stderr:
            print(u.stderr.rstrip(), file=sys.stderr)
    n_checks = sum(len(u.checks) for u in units)
    failed = sum(not ok for u in units for ok in u.checks.values())
    attempted = n_checks + sum(u.steps for u in units)

    metrics = {}
    info = {"workload": name, "seed": seed, "trace": int(trace), "units": len(units),
            "steps": sum(u.steps for u in units),
            "cg_iterations": sum(u.clock.cg_iterations for u in units),
            "checks": checks, "final": units[0].final}
    if all(u.checks["exit_code_0"] for u in units):
        if trace:
            metrics = per_layer(units[0], units[1])
        else:
            metrics, info["step_samples"] = end_to_end(units)
            info["kernel_ms_p50"] = _median_ms(
                [k for u in units for s in u.clock.steppers for k in s.kernel])
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps(info))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    import workloads as W

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in W.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    error = import_evopore()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
