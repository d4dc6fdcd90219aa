"""Time integration of the dimensionless two-layer interfacial-wave system.

State (ζ, ψ) on a periodic grid evolves by

    ∂tζ = (1/μ) 𝒢 ψ,
    ∂tψ = −ζ − (ε/2)⟦ρ̄±(∂xψ±)²⟧ + (ε/2μ)(1+ε²μζₓ²)⟦ρ̄±(w±)²⟧
          + (1/Bo) ∂x( ζₓ / √(1+ε²μζₓ²) ),

with the layer traces ψ±, w± supplied by the transmission solve at each
evaluation: one block elimination per layer and one gauged Cholesky solve
with 𝒢̃ (:mod:`twofluid.operators`).  These solves are direct, so a run has
no solver tolerance to set.  A run takes classical RK4 steps of the
conservative CFL cap and applies the 2/3-rule projection to every
right-hand side, a fixed projection that keeps the integrated system a
well-defined ODE (fourth-order convergence, exact mass conservation).  RK4
is fourth order but not energy-conserving: on a linear mode of frequency ω
it scales the quadratic invariant by |R(iωΔt)|² = 1 − (ωΔt)⁶/72 +
(ωΔt)⁸/576 per step.

Breakdown (vanishing layer depth, a failed residual check or NaN) is a
first-class outcome: shear-unstable runs are expected to end this way and
the series reports the breakdown time together with a spectral-tail diagnostic.
The stability criteria along a run are evaluated on its snapshots by
:func:`twofluid.stability.monitor_criterion`; this module does not import
:mod:`twofluid.stability`, which imports :func:`tendency` from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, NumericalError, TwoFluidError
from .operators import InterfaceState, TraceBundle, coupled_dn_flat_symbol, transmission_solve
from .params import DimensionlessParams, _check_count
from .spectral import PeriodicGrid, _read_only, dealias_mask, deriv, truncate


def cfl_cap(params: DimensionlessParams, n_points: int, length: float = 2 * math.pi) -> float:
    """Conservative RK4 step cap from the gravity and capillary phase speeds."""
    k_max = (2.0 * math.pi / length) * (n_points // 2)
    gravity_dt = math.sqrt(params.mu) / k_max
    if math.isinf(params.bond):
        return 0.5 * gravity_dt
    capillary_dt = math.sqrt(params.bond * math.sqrt(params.mu)) / k_max**1.5
    return 0.5 * min(gravity_dt, capillary_dt)


@dataclass
class EvolutionConfig:
    """Schedule of a run: end time t_end (finite, ≥ 0) and a snapshot every
    snapshot_every-th step (an integer ≥ 1).  :func:`run` steps at
    :func:`cfl_cap` with the 2/3-rule projection, ``run_swsw`` at its own CFL."""

    t_end: float
    snapshot_every: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise InvalidConfigError(f"t_end must be finite and >= 0, got {self.t_end}")
        _check_count("snapshot_every", self.snapshot_every)


@dataclass
class TimeSeries:
    """Snapshots and diagnostics of one run."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    breakdown: Optional[dict] = None

    @property
    def broke_down(self) -> bool:
        return self.breakdown is not None


def tendency(state: InterfaceState, traces: TraceBundle) -> tuple:
    """Tendency (∂tζ, ∂tψ) of the evolution system at a state with its own
    trace bundle, with no dealiasing."""
    p = state.params
    zx = state.zeta_x
    denom = 1.0 + p.eps**2 * p.mu * zx**2
    # ∂xψ± = V± + εw±ζₓ, the identity that defines V± in the bundle
    dxp = traces.v_plus + p.eps * traces.w_plus * zx
    dxm = traces.v_minus + p.eps * traces.w_minus * zx
    # (1/H̄⁺)G⁺ψ⁺ recovered from the trace identities (no extra solve)
    g_over_h = traces.w_plus * denom - p.eps * p.mu * zx * dxp
    dzeta = g_over_h / p.mu
    # the continuous flux balance makes this mean exactly zero; remove the
    # rounding-level mean so the discrete mass invariant holds to rounding
    dzeta -= np.mean(dzeta)
    jump_grad_sq = p.rhobar_plus * dxp**2 - p.rhobar_minus * dxm**2
    jump_w_sq = p.rhobar_plus * traces.w_plus**2 - p.rhobar_minus * traces.w_minus**2
    dpsi = -state.zeta - 0.5 * p.eps * jump_grad_sq + (
        0.5 * p.eps / p.mu
    ) * denom * jump_w_sq
    if not math.isinf(p.bond):
        dpsi += deriv(state.grid, zx / np.sqrt(denom)) / p.bond
    return dzeta, dpsi


def rhs(state: InterfaceState, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Right-hand side ∂t(ζ, ψ) of the evolution system as one (2, N) array,
    projected by mask."""
    out = np.array(tendency(state, transmission_solve(state)))
    if mask is not None:
        out = truncate(state.grid, out, mask)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite right-hand side")
    return out


def rk4_step(
    state: InterfaceState, dt: float, mask: Optional[np.ndarray] = None
) -> InterfaceState:
    """One classical four-stage step on y = (ζ, ψ)."""
    y = np.array([state.zeta, state.psi])
    # each stage is a read-only stack, whose rows the stage state holds uncopied
    k1 = rhs(state, mask)
    k2 = rhs(state.replace_fields(*_read_only(y + 0.5 * dt * k1)), mask)
    k3 = rhs(state.replace_fields(*_read_only(y + 0.5 * dt * k2)), mask)
    k4 = rhs(state.replace_fields(*_read_only(y + dt * k3)), mask)
    # a non-finite field raises NumericalError in the state's constructor
    return state.replace_fields(*_read_only(y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)))


def _tail_fraction(grid: PeriodicGrid, u: np.ndarray) -> float:
    """Share of the energy of u off the mean that lies in the modes the 2/3
    rule removes."""
    uh = np.abs(np.fft.fft(u)) ** 2
    total = float(np.sum(uh[1:])) or 1.0
    return float(np.sum(uh[~dealias_mask(grid)])) / total


def _record(series: TimeSeries, t, state, traces, grid):
    mass = float(np.mean(state.zeta)) * grid.length
    jump = traces.jump_v()
    series.times.append(t)
    # the same read-only fields, without the stepping state's layers and 𝒢̃
    series.states.append(state.replace_fields(state.zeta, state.psi))
    series.traces.append(traces)
    series.diagnostics.append(
        {
            "time": t,
            "mass": mass,
            "zeta_sup": float(np.max(np.abs(state.zeta))),
            "jump_sup": float(np.max(np.abs(jump))),
            "tail_fraction": _tail_fraction(grid, state.zeta),
        }
    )


def run(config: EvolutionConfig, initial: InterfaceState) -> TimeSeries:
    """Integrate until t_end or breakdown in steps of :func:`cfl_cap` (the
    last one shorter), recording snapshots at the cadence.  The 2/3-rule
    projection applies to the initial data and to every right-hand side."""
    grid = initial.grid
    dt = cfl_cap(initial.params, grid.n, grid.length)
    mask = dealias_mask(grid)
    state = initial.replace_fields(*truncate(grid, np.array([initial.zeta, initial.psi]), mask))
    series = TimeSeries()
    n_steps = int(math.ceil(config.t_end / dt - 1e-12))
    t = 0.0
    try:
        traces0 = transmission_solve(state)
        _record(series, t, state, traces0, grid)
        for step in range(1, n_steps + 1):
            step_dt = min(dt, config.t_end - t)
            state = rk4_step(state, step_dt, mask)
            t += step_dt
            if step % config.snapshot_every == 0 or step == n_steps:
                tr = transmission_solve(state)
                _record(series, t, state, tr, grid)
    except TwoFluidError as exc:
        series.breakdown = {
            "time": t,
            "reason": f"{type(exc).__name__}: {exc}",
            "tail_fraction": (
                series.diagnostics[-1]["tail_fraction"] if series.diagnostics else None
            ),
        }
    return series


def linear_mode_energy(state: InterfaceState, k_index: int) -> float:
    """Quadratic invariant (1+k²/Bo)|ζ̂ₖ|² + (1/μ)𝒢₀(k)|ψ̂ₖ|² of the continuum linearization.

    𝒢₀ is the exact flat coupled symbol.  A discrete run conserves this
    energy only up to the O(n_z⁻²) error of the discrete symbol (its own
    invariant carries 𝒢_h(k) in place of 𝒢₀(k)) and RK4's per-step damping
    1 − (ωΔt)⁶/72.
    """
    p = state.params
    grid = state.grid
    zh = np.fft.fft(state.zeta) / grid.n
    ph = np.fft.fft(state.psi) / grid.n
    k = abs(grid.wavenumbers[k_index])
    inv_bo = 0.0 if math.isinf(p.bond) else 1.0 / p.bond
    g0 = float(coupled_dn_flat_symbol(p, np.array([k]))[0])
    return float(
        (1.0 + inv_bo * k**2) * abs(zh[k_index]) ** 2
        + (g0 / p.mu) * abs(ph[k_index]) ** 2
    )
