"""What the benchmark under ``bench/`` needs from the package.

``bench/tracer.py`` wraps each of its ``TARGETS`` under the name its caller
resolves, so every one must stay in its owner's namespace, and the workloads
of ``bench/workloads.py`` read report fields such as
``StabilityReport.e_converged``.  The tracer's ``strip.operator`` span
counts the ``StripOperator`` builds, one per fluid layer of each state a
pass solves with.  A module-level import of the package that its module
does not read is dead, unless the tracer patches it there, and so is a
public function or class that neither the package nor the benchmark reads,
unless it waits for a ROADMAP item that will call it.  These tests
read ``bench/`` and change nothing there; one more reads the package's
sources for its one Fourier transform module.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from twofluid import InterfaceState, PeriodicGrid, apply_j, config_from_dimensionless, derive_params

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_tracer_target_resolves():
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_every_module_level_import_is_read():
    # a name the tracer patches on a module must be bound there even if the
    # module does not read it
    patched = {(owner.__name__, attr) for owner, attr, _ in tracer.TARGETS}
    package = Path(__file__).resolve().parents[1] / "src" / "twofluid"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (f"twofluid.{path.stem}", name) not in patched:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []


# public names whose callers are still to come, each with its ROADMAP item
WAITING_FOR_A_CALLER = {
    "ins_form": "item 11",
    "modewise_margin": "item 10",
    "symbol_comparisons": "item 22",
    "hyperbolicity_indicator": "item 17",
    "norm_sobolev": "the norm the paper states its estimates in",
    "norm_hdot_mu": "the norm the paper states its estimates in",
    "upsilon": "the paper's practical parameter Υ, 'a practical version of this criterion'",
}


def test_every_public_top_level_name_has_a_caller():
    # a public function or class of the package is read by one of its
    # modules (__init__ only re-exports), or by the benchmark, whose tracer
    # names its targets as strings; the rest wait for the item named above
    root = Path(__file__).resolve().parents[1]
    modules = [path for path in sorted((root / "src" / "twofluid").glob("*.py"))
               if path.name != "__init__.py"]

    def names(path, bench=False):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
            elif bench and isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        return found

    read = set().union(*(names(path) for path in modules),
                       *(names(path, True) for path in sorted((root / "bench").glob("*.py"))))
    uncalled = [f"{path.stem}.{stmt.name}" for path in modules
                for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in read | WAITING_FOR_A_CALLER.keys()]
    assert uncalled == []


def test_only_spectral_takes_a_fourier_transform():
    # every Fourier operator is a multiplier of spectral's one real-FFT rule,
    # which alone decides the unpaired Nyquist bin
    package = Path(__file__).resolve().parents[1] / "src" / "twofluid"
    users = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in getattr(node, "names", [])]
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    or isinstance(node, ast.ImportFrom) and "fft" in (node.module or "")
                    or isinstance(node, (ast.Import, ast.ImportFrom))
                    and any("fft" in name for name in names)):
                users.append(f"{path.stem}:{node.lineno}")
    assert users == []


# StripOperator builds in one traced SMALL pass: two per state
OPERATOR_BUILDS = {"evolve_steep": 10, "criteria": 6, "shallow_sweep": 62}


@pytest.mark.parametrize("name", sorted(workloads.SMALL))
def test_small_workload_passes_its_checks_traced(name):
    wl = workloads.SMALL[name]
    ctx = wl.prepare(0)
    inp = wl.make_input(ctx, 0, 0)
    trace = tracer.Tracer()
    out = trace.run(wl.execute, ctx, inp)
    assert wl.check(ctx, inp, out) == []
    builds = sum(span[0] == "strip.operator" for span in trace.spans)
    assert builds == OPERATOR_BUILDS[name]


def test_traced_apply_j_records_a_neumann_span():
    # the tracer reads solver statistics off a returned StripSolution; the
    # Neumann solve returns its trace, so a traced J completes
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    state = InterfaceState(grid=grid, zeta=0.3 * np.cos(grid.nodes), psi=np.zeros(16),
                           params=p, n_z=8)
    trace = tracer.Tracer()
    out = trace.run(apply_j, state, np.sin(grid.nodes))
    assert np.all(np.isfinite(out))
    assert "strip.neumann" in {span[0] for span in trace.spans}
