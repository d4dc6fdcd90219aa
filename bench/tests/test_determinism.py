"""Self-test of the benchmark at the shrunken sizes of ``workloads.SMALL``.

    python3 -m pytest -q bench/tests

Two traced passes with the same seed must give identical hardware-free
counters, and another seed must still pass every workload check.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name, seed):
    wl = workloads.SMALL[name]
    ctx = wl.prepare(seed)
    inp = wl.make_input(ctx, seed, 0)
    tr = tracer.Tracer()
    out = tr.run(wl.execute, ctx, inp)
    roots = {i for i, s in enumerate(tr.spans) if s[3] == -1}
    return tracer.layer_metrics(tr.spans, roots, 0.0), wl.check(ctx, inp, out)


def counters(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(workloads.SMALL))
def test_same_seed_repeats_counters(name):
    first, problems = traced_pass(name, 3)
    second, _ = traced_pass(name, 3)
    assert problems == []
    assert counters(first) == counters(second)
    assert first["strip.apply.calls"] > 0
    assert first["strip.dirichlet.iters_per_solve"] > 0


@pytest.mark.parametrize("name", sorted(workloads.SMALL))
def test_other_seed_passes_checks(name):
    metrics, problems = traced_pass(name, 4)
    assert problems == []
    assert metrics["strip.apply.calls"] > 0


def test_counters_follow_the_workload_layers():
    steep, _ = traced_pass("evolve_steep", 5)
    crit, _ = traced_pass("criteria", 5)
    shallow, _ = traced_pass("shallow_sweep", 5)
    assert steep["operators.invert_j.matvecs_per_call"] > 0
    assert steep["spectral.apply_symbol.calls"] > 0
    assert steep["stability.e_coeff.calls"] == 0
    assert crit["stability.e_coeff.calls"] > 0
    assert crit["strip.neumann.solves"] == crit["operators.invert_j.calls"] == 0
    assert shallow["swsw.fv_step.calls"] > 0
    assert shallow["spectral.apply_symbol.calls"] == 0


def test_tracer_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS]
    traced_pass("evolve_steep", 0)
    assert [owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS] == before


def test_runner_refuses_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "criteria",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
