"""What the benchmark under ``bench/`` needs from the package.

``bench/tracer.py`` wraps each of its ``TARGETS`` under the name its caller
resolves, so every one must stay in its owner's namespace, and the workloads
of ``bench/workloads.py`` read report fields such as
``StabilityReport.e_converged``.  These tests read ``bench/`` and change
nothing there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_tracer_target_resolves():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.TARGETS if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.SMALL))
def test_small_workload_passes_its_checks_traced(name):
    wl = workloads.SMALL[name]
    ctx = wl.prepare(0)
    inp = wl.make_input(ctx, 0, 0)
    out = tracer.Tracer().run(wl.execute, ctx, inp)
    assert wl.check(ctx, inp, out) == []
