"""Outside-in tracer for the elliptic stack of ``twofluid``.

The package stays untouched.  While a ``Tracer`` is installed, each public
function the workloads reach is replaced, under the name its *caller*
resolves, by a wrapper that records a span ``(name, start, end, parent)``:
``operators`` imports ``dn_apply`` by name, so the wrapper goes into
``twofluid.operators``; ``evolution`` imports ``transmission_solve`` by name,
so that one goes into ``twofluid.evolution``.  The public ``StripOperator``
methods for apply and the two solves are wrapped on the class.  Spans stay in
memory and are written out when the run ends.  Uninstalling restores every
name, so untimed code and untraced passes run without wrappers.

The flat (Fourier × tridiagonal) preconditioner of the strip solves is
private, so its time is part of the Dirichlet and Neumann self time.
"""

from __future__ import annotations

import time

from twofluid import evolution, operators, spectral, stability, strip, swsw, symbols

FLAT_PRECONDITIONER_NOTE = (
    "the strip flat preconditioner is private: its time is inside "
    "strip.dirichlet.self_s and strip.neumann.self_s"
)

# (module or class whose attribute is replaced, attribute, span name).  Each
# module is the one that calls the function; a name reached through a
# function-level import (``from .spectral import apply_symbol``) is resolved
# on the defining module at call time, so it is patched there.
TARGETS = (
    (strip.StripOperator, "__init__", "strip.operator"),
    (strip.StripOperator, "apply", "strip.apply"),
    (strip.StripOperator, "solve_dirichlet", "strip.dirichlet"),
    (strip.StripOperator, "solve_neumann", "strip.neumann"),
    (operators, "dn_apply", "strip.dn_apply"),
    (evolution, "transmission_solve", "operators.transmission_solve"),
    (operators, "invert_j", "operators.invert_j"),
    (operators, "apply_j", "operators.apply_j"),
    (operators, "apply_g_tilde", "operators.apply_g_tilde"),
    (operators, "dense_g_tilde", "operators.dense_g_tilde"),
    (operators, "pinv_g_tilde", "operators.pinv_g_tilde"),
    (operators, "invert_g_tilde", "operators.invert_g_tilde"),
    (stability, "invert_g_tilde", "operators.invert_g_tilde"),
    (symbols, "TailSymbolSet", "symbols.tail_symbol_set"),
    (spectral, "apply_symbol", "spectral.apply_symbol"),
    (evolution, "rk4_step", "evolution.rk4_step"),
    (evolution, "rhs", "evolution.rhs"),
    (stability, "e_coeff", "stability.e_coeff"),
    (swsw, "fv_step", "swsw.fv_step"),
    (swsw, "run_swsw", "swsw.run_swsw"),
)

# Per-layer metric -> the end-to-end metric and workloads it should move.
# Units and directions are in BENCHMARK.json.  Counts and self times are
# totals over the counting window of a traced run; the ratios are taken over
# the same window.
LAYER_METRICS = {
    "strip.apply.calls": "ops_per_s on all three workloads",
    "strip.apply.self_s": "ops_per_s on all three workloads",
    "strip.dirichlet.solves": "ops_per_s on all three workloads",
    "strip.dirichlet.iters_per_solve": "ops_per_s on all three workloads",
    "strip.dirichlet.self_s": "ops_per_s on all three workloads",
    "strip.neumann.solves": "ops_per_s on evolve_steep, shallow_sweep; 0 on criteria",
    "strip.neumann.iters_per_solve": "ops_per_s on evolve_steep, shallow_sweep",
    "strip.neumann.self_s": "ops_per_s on evolve_steep, shallow_sweep",
    "strip.dn_apply.calls": "ops_per_s on all three workloads",
    "strip.operator.builds": "ops_per_s on criteria (cold operators)",
    "operators.transmission_solve.calls": "ops_per_s on evolve_steep, shallow_sweep; 0 on criteria",
    "operators.transmission_solve.self_s": "ops_per_s on evolve_steep, shallow_sweep",
    "operators.invert_j.calls": "ops_per_s on evolve_steep, shallow_sweep; 0 on criteria",
    "operators.invert_j.self_s": "ops_per_s on evolve_steep, shallow_sweep",
    "operators.invert_j.matvecs_per_call": "ops_per_s on evolve_steep, shallow_sweep",
    "operators.apply_g_tilde.calls": "ops_per_s on criteria only",
    "operators.dense_g_tilde.self_s": "ops_per_s on criteria only",
    "operators.pinv_g_tilde.self_s": "ops_per_s on criteria only",
    "operators.invert_g_tilde.calls": "ops_per_s on criteria only; 0 today",
    "symbols.tail_symbol_set.builds": "ops_per_s on evolve_steep only; 0 on shallow_sweep",
    "symbols.tail_symbol_set.self_s": "ops_per_s on evolve_steep only",
    "spectral.apply_symbol.calls": "ops_per_s on evolve_steep only; 0 on shallow_sweep",
    "spectral.apply_symbol.self_s": "ops_per_s on evolve_steep only",
    "evolution.rk4_step.calls": "ops_per_s on evolve_steep, shallow_sweep",
    "evolution.rhs.calls": "ops_per_s on evolve_steep, shallow_sweep",
    "evolution.rhs.self_s": "ops_per_s on evolve_steep, shallow_sweep",
    "evolution.strip_applies_per_rhs": "ops_per_s on evolve_steep, shallow_sweep",
    "stability.e_coeff.calls": "ops_per_s on criteria only",
    "stability.e_coeff.self_s": "ops_per_s on criteria only",
    "stability.strip_applies_per_snapshot": "ops_per_s on criteria only",
    "swsw.fv_step.calls": "wall_s on shallow_sweep only, by under 1%",
    "swsw.fv_step.self_s": "wall_s on shallow_sweep only, by under 1%",
    "swsw.run_swsw.self_s": "wall_s on shallow_sweep only, by under 1%",
    "trace.overhead_s": "none: traced minus untraced wall_s per pass",
}

ROOT = "bench.pass"


class Tracer:
    """Records nested spans while installed; one instance per run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, strip CG iterations or None]
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if isinstance(out, strip.StripSolution):
                span[4] = out.iterations
            return out

        return wrapper

    def install(self):
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run(self, fn, *args):
        """Call fn(*args) under a root span with every wrapper installed."""
        self.install()
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.uninstall()

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "note": FLAT_PRECONDITIONER_NOTE,
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "iterations": [s[4] for s in self.spans],
        }


def layer_metrics(spans: list, roots: set, overhead_s: float) -> dict:
    """Per-layer metrics from the spans under the given root span indices."""
    calls, self_s, iters = {}, {}, {}
    under = {}  # span index -> names of its ancestors below the root
    applies_under_rhs = applies_under_e = matvecs_in_j = 0
    for i, (name, start, end, parent, it) in enumerate(spans):
        if parent == -1:
            if i in roots:
                under[i] = ()
            continue
        if parent not in under:
            continue
        pname = spans[parent][0]
        ancestors = under[parent] + (pname,)
        under[i] = ancestors
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start)
        if pname != ROOT:
            self_s[pname] = self_s.get(pname, 0.0) - (end - start)
        if it is not None:
            iters[name] = iters.get(name, 0) + it
        if name == "strip.apply":
            applies_under_rhs += "evolution.rhs" in ancestors
            applies_under_e += "stability.e_coeff" in ancestors
        elif name == "operators.apply_j":
            matvecs_in_j += "operators.invert_j" in ancestors

    def ratio(a, b):
        return a / b if b else 0.0

    c = calls.get
    m = {}
    for metric in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "solves", "builds"):
            m[metric] = c(span, 0)
        elif field == "self_s":
            m[metric] = self_s.get(span, 0.0)
        elif field == "iters_per_solve":
            m[metric] = ratio(iters.get(span, 0), c(span, 0))
    m["operators.invert_j.matvecs_per_call"] = ratio(matvecs_in_j, c("operators.invert_j", 0))
    m["evolution.strip_applies_per_rhs"] = ratio(applies_under_rhs, c("evolution.rhs", 0))
    m["stability.strip_applies_per_snapshot"] = ratio(applies_under_e, c("stability.e_coeff", 0))
    m["trace.overhead_s"] = overhead_s
    return m
