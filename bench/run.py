"""Benchmark runner for ``twofluid``: one workload, one seed, one process.

    python3 bench/run.py --workload evolve_steep --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.  It
pins BLAS to one thread, sets up (a fresh interpreter importing the package,
the workload's set-up and a warm-up pass at the shrunken size, repeated; the
median counts), then runs timed passes for ``--seconds`` seconds, starting a
pass only while a typical pass still fits, and checks every result.  The
speed probe of ``speed.py`` runs before the first set-up and after every
set-up and every round of passes; set-up and pass times are rescaled to
reference seconds by the mean probe of the run (without the highest and the
lowest).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median set-up),
``wall_s`` (mean pass time), ``ops_per_s`` (operations of all passes over
their summed time: RK4 steps of the full solver, or criterion snapshots) and
``peak_rss_mb``; the summary adds the median, quartiles and count of the
set-up and pass samples, and the same figures in wall seconds.  ``--trace 1``
alternates an untraced and a traced pass on the same input and reports the
per-layer metrics: counts and self times (in wall seconds) over the traced
passes of the first ``COUNT_PASSES`` inputs, and the tracing overhead as the
median per-pass difference.  Metric names and units
come from ``BENCHMARK.json``.  A summary goes to stdout, the samples, the
environment and (traced) every span to ``bench/out/``; the last stdout line
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3
MIN_PASSES = 3
COUNT_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("evolve_steep", "criteria", "shallow_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fresh_import(src: str) -> None:
    """Import the package in a fresh interpreter, as a user's first call does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", "import twofluid"], env=env, check=True)


def timed_pass(wl, ctx, seed, index, tracer=None):
    """Build fresh inputs, time one call, check it: (wall seconds, ops, problems)."""
    from twofluid import TwoFluidError

    inp = wl.make_input(ctx, seed, index)
    t0 = time.perf_counter()
    try:
        out = tracer.run(wl.execute, ctx, inp) if tracer else wl.execute(ctx, inp)
        wall = time.perf_counter() - t0
        return wall, wl.ops(ctx, out), [f"pass {index}: {p}" for p in wl.check(ctx, inp, out)]
    except TwoFluidError as exc:
        return time.perf_counter() - t0, 0, [f"pass {index}: {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "twofluid", "__init__.py")):
        print("bench/run.py: no src/twofluid under the working directory; "
              "run it from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import speed
    import tracer as tracing
    import workloads

    wl, small = workloads.FULL[args.workload], workloads.SMALL[args.workload]
    probe = speed.Probe()
    probes = [probe.time()]
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import(src)
        ctx = wl.prepare(args.seed)
        small_ctx = small.prepare(args.seed)
        small.execute(small_ctx, small.make_input(small_ctx, args.seed, 0))
        setup_runs.append(time.perf_counter() - t0)
        probes.append(probe.time())

    walls, problems, failed, ops_done = [], [], 0, 0
    traced_walls, overheads = [], []
    tr = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    rounds = []
    i = 0
    while i < MIN_PASSES or time.perf_counter() + statistics.median(rounds) <= deadline:
        t_round = time.perf_counter()
        order = (None, tr) if i % 2 == 0 else (tr, None)
        for t in order if tr else (None,):
            wall, ops, bad = timed_pass(wl, ctx, args.seed, i, t)
            problems += bad
            failed += bool(bad)
            (traced_walls if t else walls).append(wall)
            if t is None:
                ops_done += ops
        if tr:
            overheads.append(traced_walls[-1] - walls[-1])
        probes.append(probe.time())
        rounds.append(time.perf_counter() - t_round)
        i += 1
    attempted = len(walls) + len(traced_walls)
    to_ref = speed.scale(probes)
    ref_setups = [t * to_ref for t in setup_runs]
    ref_walls = [t * to_ref for t in walls]

    samples, measured = {}, {}
    if tr is None:
        values = {
            "setup_s": statistics.median(ref_setups),
            "wall_s": statistics.fmean(ref_walls),
            "ops_per_s": ops_done / sum(ref_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": ref_setups, "wall_s": ref_walls}
        measured = {"setup_s": statistics.median(setup_runs),
                    "wall_s": statistics.fmean(walls),
                    "ops_per_s": ops_done / sum(walls)}
        units = metric_units("end_to_end")
    else:
        roots = {j for j, s in enumerate(tr.spans) if s[3] == -1}
        window = set(sorted(roots)[:COUNT_PASSES])
        values = tracing.layer_metrics(tr.spans, window, statistics.median(overheads))
        units = metric_units("per_layer")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    sample_stats = {k: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
              for k, v in samples.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": wl.op,
        "environment": environment(),
        "setup_s": ref_setups,
        "setup_wall_s": setup_runs,
        "pass_s": ref_walls,
        "pass_wall_s": walls,
        "probe_s": probes,
        "probe_nominal_s": speed.NOMINAL_S,
        "traced_pass_wall_s": traced_walls,
        "samples": sample_stats,
        "problems": problems,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}_s{args.seed}_t{args.trace}"
    with open(os.path.join(OUT_DIR, f"BENCH_{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tr:
        with open(os.path.join(OUT_DIR, f"spans_{stem}.json"), "w") as fh:
            json.dump(tr.to_json(), fh, separators=(",", ":"))

    print(f"# {args.workload} seed={args.seed} passes={i} op={wl.op!r} "
          f"failed_frac={failed / attempted:.3g} ({failed}/{attempted})")
    for p in problems[:10]:
        print(f"# FAILED {p}")
    if tr:
        print(f"# counts and self times over the first {COUNT_PASSES} traced passes; "
              f"{tracing.FLAT_PRECONDITIONER_NOTE}")
    else:
        print(f"# times in reference seconds (speed.py: nominal probe {speed.NOMINAL_S} s, "
              f"median probe {statistics.median(probes):.4g} s); wall seconds in brackets")
    for k, m in metrics.items():
        line = f"{k:40s} {m['value']:>14.6g} {m['unit']}"
        if k in sample_stats:
            q = sample_stats[k]
            line += (f"  (samples: median {q['median']:.6g}, q1 {q['q1']:.6g}, "
                     f"q3 {q['q3']:.6g}, n {q['n']})")
        if k in measured:
            line += f"  [{measured[k]:.6g}]"
        print(line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
