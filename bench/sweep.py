"""Run the benchmark over seeds 0..n-1 and summarise each end-to-end metric.

    python3 bench/sweep.py [--workloads evolve_steep criteria] [--seeds 10] \
        [--out bench/BASELINE.json]

Run it from the repository root.  Each run is a separate, untraced process of
``bench/run.py`` with ``run_seconds`` from ``BENCHMARK.json``, one after the
other; by default every workload of ``BENCHMARK.json`` is swept.  For every
workload and metric it prints the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and the spread
(q3 − q1)/median next to the metric's bound; ``--out`` writes the same
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 0..n-1")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            res = run_once(workload, seed, bench["run_seconds"])
            runs.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "n": len(vals), "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:40s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.3f} bound={bound} "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}")
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "seeds": list(range(args.seeds)),
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
