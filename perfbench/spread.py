#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload macro-fine --seeds 5
    python3 perfbench/spread.py --workload all --json first.json
    python3 perfbench/spread.py --workload all --json second.json --against first.json

Every run is ``run.py --trace 0`` with ``run_seconds`` from ``BENCHMARK.json``.
For every metric: the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread, the distance between
the quartiles as a share of the median.  A metric is steady when its spread
is below a third of its bound.  With ``--against`` each median is also
compared with the same metric's median in an earlier summary; it agrees when
it is neither worse nor better by more than the bound, because either set
may be the one that a later set is judged against.  Exit code 0 when every
run was correct, every metric steady and every median in agreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    machine = json.loads(lines[0])["machine"]
    result = json.loads(lines[-1])
    return {"machine": machine, "correct": result["correct"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def change(median: float, earlier: float, better: str) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of it."""
    worse = median - earlier if better == "lower" else earlier - median
    return worse / earlier


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seeds", type=int, default=10, help="seeds 0 .. N-1, one run each")
    p.add_argument("--json", help="also write the summary to this file")
    p.add_argument("--against", help="an earlier summary written by --json")
    args = p.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    out, ok = {}, True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = [run(workload, seed, bench["run_seconds"]) for seed in range(args.seeds)]
        summary = {k: summarize([r["metrics"][k] for r in runs], metrics[k]["bound"])
                   for k in metrics}
        out[workload] = {"machine": runs[0]["machine"], "seconds": bench["run_seconds"],
                         "seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
                         "metrics": summary}
        ok &= out[workload]["all_correct"]
        print(f"## {workload}: {args.seeds} seeds, all correct: {out[workload]['all_correct']}")
        for k, s in summary.items():
            line = (f"{k:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                    f"  spread {s['spread']:.4f}  bound {s['bound']}")
            ok &= s["steady"]
            if not s["steady"]:
                line += "  NOT STEADY"
            if workload in earlier:
                s["change"] = change(s["median"], earlier[workload]["metrics"][k]["median"],
                                     metrics[k]["better"])
                line += f"  worse than earlier by {s['change']:+.4f}"
                if abs(s["change"]) > s["bound"]:
                    ok = False
                    line += "  DISAGREES"
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
