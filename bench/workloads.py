"""The three benchmark workloads of ``twofluid``.

Each workload is a closed loop with one caller: the runner builds the inputs
of pass ``i`` from ``(seed, i)``, times one call into the package, checks the
result and only then starts the next pass.  Every pass builds fresh
``InterfaceState`` objects, because a state caches its strip operators and
dense matrices in ``_diffeos`` and a reused state would time a warm cache.

A workload has a full size (what the benchmark times) and a small size (the
warm-up in set-up and the determinism self-test).  Its checks hold for any
correct discretisation, so a more accurate solver still passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from twofluid import (
    EvolutionConfig,
    InterfaceState,
    PeriodicGrid,
    TimeSeries,
    cfl_cap,
    compare_with_full,
    config_from_dimensionless,
    derive_params,
    monitor_criterion,
    run,
)

# Relative 2-norm tolerance of the identity ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻ = ψ on a trace bundle.
TRACE_IDENTITY_TOL = 1e-7
# Absolute tolerance on mass drift, relative to L·max(1, ‖ζ₀‖∞).
MASS_TOL = 1e-12
# Band of the fitted shallowness exponent; the paper predicts O(μ).
EXPONENT_BAND = (0.75, 1.25)


def band_limited(rng, n: int, k_max: int, sup: float) -> np.ndarray:
    """Random real field on n nodes with modes 1..k_max, rescaled to ‖u‖∞ = sup.

    Mode k has amplitude U(0.5, 1)/k² and a uniform random phase, so every
    seed gives a smooth field of the same spectral shape.
    """
    x = 2.0 * math.pi * np.arange(n) / n
    u = np.zeros(n)
    for k in range(1, k_max + 1):
        u += rng.uniform(0.5, 1.0) / k**2 * np.cos(k * x + rng.uniform(0.0, 2.0 * math.pi))
    return sup * u / np.max(np.abs(u))


def pass_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _fresh(state: InterfaceState) -> InterfaceState:
    return InterfaceState(grid=state.grid, zeta=state.zeta.copy(), psi=state.psi.copy(),
                          params=state.params, n_z=state.n_z)


def check_series(series: TimeSeries) -> list:
    """Failures of a recorded trajectory: breakdown, mass drift, trace identity."""
    if series.broke_down:
        return [f"run broke down: {series.breakdown['reason']}"]
    out = []
    first = series.states[0]
    scale = first.grid.length * max(1.0, float(np.max(np.abs(first.zeta))))
    masses = [d["mass"] for d in series.diagnostics]
    drift = max(abs(m - masses[0]) for m in masses)
    if drift > MASS_TOL * scale:
        out.append(f"mass drift {drift:.3e}")
    for state, tr in zip(series.states, series.traces):
        p = state.params
        recon = p.rhobar_plus * tr.psi_plus - p.rhobar_minus * tr.psi_minus
        err = float(np.linalg.norm(recon - state.psi))
        if err > TRACE_IDENTITY_TOL * (float(np.linalg.norm(state.psi)) or 1.0):
            out.append(f"trace identity off by {err:.3e}")
    return out


@dataclass(frozen=True)
class EvolveSteep:
    """``evolution.run`` on a steep interface, ε‖ζ‖∞ = 0.7 (steep preconditioner)."""

    n: int = 32
    n_z: int = 16
    steps: int = 2
    name = "evolve_steep"
    op = "RK4 steps"

    def prepare(self, seed: int):
        return derive_params(config_from_dimensionless(
            eps=0.5, mu=0.5, rhobar_minus=0.4, depth_ratio=1.0, bond=100.0))

    def make_input(self, p, seed: int, index: int) -> InterfaceState:
        rng = pass_rng(seed, index)
        # ε‖ζ‖∞ = 0.7 keeps invert_j on its variable-symbol preconditioner
        zeta = band_limited(rng, self.n, 4, 0.7 / p.eps)
        psi = band_limited(rng, self.n, 4, 0.5)
        return InterfaceState(grid=PeriodicGrid(self.n), zeta=zeta, psi=psi, params=p,
                              n_z=self.n_z)

    def execute(self, p, state: InterfaceState) -> TimeSeries:
        dt = cfl_cap(p, self.n)
        return run(EvolutionConfig(t_end=self.steps * dt, snapshot_every=10**9), state)

    def check(self, p, state, series: TimeSeries) -> list:
        return check_series(series)

    def ops(self, p, series: TimeSeries) -> int:
        return self.steps


@dataclass(frozen=True)
class Criteria:
    """``monitor_criterion`` on windows of a trajectory recorded in set-up."""

    n: int = 64
    n_z: int = 16
    steps: int = 8
    window = 3
    name = "criteria"
    op = "criterion snapshots"

    def prepare(self, seed: int) -> TimeSeries:
        p = derive_params(config_from_dimensionless(
            eps=0.2, mu=0.5, rhobar_minus=0.4, depth_ratio=1.0, bond=100.0))
        rng = pass_rng(seed, 0)
        state = InterfaceState(grid=PeriodicGrid(self.n), zeta=band_limited(rng, self.n, 4, 1.0),
                               psi=band_limited(rng, self.n, 4, 0.3), params=p, n_z=self.n_z)
        dt = cfl_cap(p, self.n)
        series = run(EvolutionConfig(t_end=self.steps * dt, snapshot_every=1), state)
        problems = check_series(series)
        if problems or len(series.times) != self.steps + 1:
            raise RuntimeError(f"trajectory recording failed: {problems}")
        return series

    def make_input(self, series: TimeSeries, seed: int, index: int) -> TimeSeries:
        n_windows = len(series.times) // self.window
        lo = (index % n_windows) * self.window
        sl = slice(lo, lo + self.window)
        return TimeSeries(times=series.times[sl], states=[_fresh(s) for s in series.states[sl]],
                          traces=series.traces[sl], diagnostics=series.diagnostics[sl])

    def execute(self, series, window: TimeSeries) -> list:
        return monitor_criterion(window)

    def check(self, series, window, reports: list) -> list:
        out = []
        for t, r in reports:
            # Υ ≈ 1e-3 and small shear: the practical and the exact criterion
            # both say stable, and the dimensional restatement agrees.
            if not (r.e_converged and r.e_coeff > 0.0):
                out.append(f"e_coeff {r.e_coeff} (converged={r.e_converged}) at t={t:.4f}")
            if r.verdict != "stable" or r.practical != "stable":
                out.append(f"verdict {r.verdict}/{r.practical} at t={t:.4f}, expected stable")
            if r.dim_verdict != r.sc_alt:
                out.append(f"dimensional verdict disagrees at t={t:.4f}")
        return out

    def ops(self, series, reports: list) -> int:
        return len(reports)


@dataclass(frozen=True)
class ShallowSweep:
    """``swsw.compare_with_full`` over μ ∈ {0.05, 0.1, 0.2}."""

    n: int = 16
    n_z: int = 12
    t_end: float = 0.125
    mus = (0.05, 0.1, 0.2)
    eps = 0.1
    rhobar_minus = 0.4
    depth_ratio = 1.0
    bond_times_mu = 1000.0
    name = "shallow_sweep"
    op = "RK4 steps"

    def prepare(self, seed: int) -> int:
        # RK4 steps of the full solver in one pass, from the CFL cap of each μ
        steps = 0
        for mu in self.mus:
            p = derive_params(config_from_dimensionless(
                eps=self.eps, mu=mu, rhobar_minus=self.rhobar_minus,
                depth_ratio=self.depth_ratio, bond=self.bond_times_mu / mu))
            steps += math.ceil(self.t_end / cfl_cap(p, self.n) - 1e-12)
        return steps

    def make_input(self, steps, seed: int, index: int) -> tuple:
        rng = pass_rng(seed, index)
        return band_limited(rng, self.n, 2, 1.0), band_limited(rng, self.n, 2, 0.5)

    def execute(self, steps, fields):
        zeta0, v0 = fields
        return compare_with_full(PeriodicGrid(self.n), zeta0, v0, eps=self.eps,
                                 mu_list=list(self.mus), t_end=self.t_end,
                                 rhobar_minus=self.rhobar_minus, depth_ratio=self.depth_ratio,
                                 bond_times_mu=self.bond_times_mu, n_z=self.n_z)

    def check(self, steps, fields, table) -> list:
        bad = [r.mu for r in table.rows if r.full_broke_down or r.sw_halted]
        if bad:
            return [f"no comparison at mu={bad}"]
        slope = table.fitted_exponent()
        if not EXPONENT_BAND[0] <= slope <= EXPONENT_BAND[1]:
            return [f"shallowness exponent {slope:.3f} outside {EXPONENT_BAND}"]
        return []

    def ops(self, steps, table) -> int:
        return steps


FULL = {w.name: w for w in (EvolveSteep(), Criteria(), ShallowSweep())}
# Shrunken sizes for the warm-up and the determinism self-test.
SMALL = {w.name: w for w in (
    EvolveSteep(n=16, n_z=8, steps=1),
    Criteria(n=16, n_z=8, steps=2),
    ShallowSweep(n=16, n_z=6, t_end=0.03),
)}
