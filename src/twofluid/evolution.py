"""Time integration of the dimensionless two-layer interfacial-wave system.

State (ζ, ψ) on a periodic grid evolves by

    ∂tζ = (1/μ) 𝒢 ψ,
    ∂tψ = −ζ − (ε/2)⟦ρ̄±(∂xψ±)²⟧ + (ε/2μ)(1+ε²μζₓ²)⟦ρ̄±(w±)²⟧
          + (1/Bo) ∂x( ζₓ / √(1+ε²μζₓ²) ),

with the layer traces ψ±, w± supplied by the transmission solve of each
state: one block elimination per layer and one gauged Cholesky solve with 𝒢̃
(:mod:`twofluid.operators`), kept with the state, so that a recorded state
and the first stage of the step leaving it share one solve.  These solves
are direct, so a run has no solver tolerance to set.  Each RK4 stage builds
one state and makes one :func:`rhs`, which is bitwise the 2/3-rule
projection (:func:`~twofluid.spectral.dealias`, Orszag's rule) of
:func:`tendency` at :func:`~twofluid.operators.transmission_solve`; the
solve and the tendency share the state's slope terms εμζₓ and 1 + ε²μζₓ²,
computed once per state.  The projection is fixed, not an option: the full
system is Kelvin–Helmholtz ill-posed at high frequencies, and the projected
one is a well-defined ODE (fourth-order convergence, exact mass
conservation).  :func:`tendency` stays unprojected, for the criteria of
:mod:`twofluid.stability`.  A run takes classical RK4 steps of the
conservative CFL cap.  RK4 is fourth order but not energy-conserving: on a
linear mode of frequency ω it scales the quadratic invariant by
|R(iωΔt)|² = 1 − (ωΔt)⁶/72 + (ωΔt)⁸/576 per step.

Breakdown (vanishing layer depth, a failed residual check or NaN) is a
first-class outcome: shear-unstable runs are expected to end this way and
the series reports the breakdown time and the error that ended the run.
The stability criteria along a run are evaluated on its snapshots by
:func:`twofluid.stability.monitor_criterion`; this module does not import
:mod:`twofluid.stability`, which imports :func:`tendency` from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, NumericalError, TwoFluidError
from .operators import InterfaceState, TraceBundle, transmission_solve
from .params import DimensionlessParams, _check_count, _check_real
from .spectral import _all_finite, _read_only, dealias, deriv


def cfl_cap(params: DimensionlessParams, n_points: int, length: float = 2 * math.pi) -> float:
    """Conservative RK4 step cap from the gravity and capillary phase speeds
    on n_points (an integer >= 2) over a finite length > 0."""
    _check_count("n_points", n_points, 2)
    _check_real("length", length, 0.0, strict=True)
    k_max = (2.0 * math.pi / length) * (n_points // 2)
    gravity_dt = math.sqrt(params.mu) / k_max
    if math.isinf(params.bond):
        return 0.5 * gravity_dt
    capillary_dt = math.sqrt(params.bond * math.sqrt(params.mu)) / k_max**1.5
    return 0.5 * min(gravity_dt, capillary_dt)


@dataclass(frozen=True)
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
    """Snapshots of one run: times, states (within the 2/3-rule band), their
    trace bundles and one diagnostics row each (time, mass, sup|ζ| and
    sup|⟦V⟧|).  ``breakdown`` holds the time and reason of the error that
    ended the run, or None."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    breakdown: Optional[dict] = None

    @property
    def broke_down(self) -> bool:
        return self.breakdown is not None


def tendency(state: InterfaceState, traces: TraceBundle) -> np.ndarray:
    """Tendency (∂tζ, ∂tψ) of the evolution system at a state with its own
    trace bundle, as one (2, N) array, with no dealiasing.  The ± terms are
    formed on (2, N) stacks of the traces, one ufunc per formula."""
    p = state.params
    zx = state.zeta_x
    emz, denom = state._slope_terms
    w = np.array([traces.w_plus, traces.w_minus])
    # ∂xψ± = V± + εw±ζₓ, the identity that defines V± in the bundle
    dx_psi = np.array([traces.v_plus, traces.v_minus]) + w * p.eps * zx
    # ρ̄±a± on a stack a±: the jump ⟦ρ̄a⟧ = ρ̄⁺a⁺ − ρ̄⁻a⁻ is the sum of its rows
    rho = _signed_densities(p.rhobar_plus, p.rhobar_minus)
    grad_sq, w_sq = dx_psi**2 * rho, w**2 * rho
    out = np.empty((2, state.grid.n))
    dzeta, dpsi = out[0], out[1]
    # (1/H̄⁺)G⁺ψ⁺ recovered from the trace identities (no extra solve)
    np.divide(w[0] * denom - emz * dx_psi[0], p.mu, out=dzeta)
    # the continuous flux balance makes this mean exactly zero; remove the
    # rounding-level mean so the discrete mass invariant holds to rounding
    dzeta -= dzeta.sum() / dzeta.size
    np.add(-state.zeta - (grad_sq[0] + grad_sq[1]) * (0.5 * p.eps),
           denom * (0.5 * p.eps / p.mu) * (w_sq[0] + w_sq[1]), out=dpsi)
    if not math.isinf(p.bond):
        dpsi += deriv(state.grid, zx / np.sqrt(denom)) / p.bond
    return out


@functools.lru_cache(maxsize=16)
def _signed_densities(rhobar_plus: float, rhobar_minus: float) -> np.ndarray:
    """The read-only column (ρ̄⁺, −ρ̄⁻) that weighs the rows of a ± stack."""
    return _read_only(np.array([[rhobar_plus], [-rhobar_minus]]))


def _traces(state: InterfaceState) -> TraceBundle:
    """The state's trace bundle, solved once and kept with the state's other
    solver caches, so that recording a state and stepping it share one solve."""
    cache = vars(state)
    if "_traces" not in cache:
        cache["_traces"] = transmission_solve(state)
    return cache["_traces"]


def rhs(state: InterfaceState) -> np.ndarray:
    """Right-hand side ∂t(ζ, ψ) of the integrated system as one (2, N) array:
    the 2/3-rule projection (:func:`~twofluid.spectral.dealias`) of
    :func:`tendency` at the state's own trace bundle."""
    out = dealias(state.grid, tendency(state, _traces(state)))
    if not _all_finite(out):
        raise NumericalError("non-finite right-hand side")
    return out


def rk4_step(state: InterfaceState, dt: float) -> InterfaceState:
    """One classical four-stage step of the projected system on y = (ζ, ψ),
    each stage a :func:`rhs`, so a state inside the 2/3-rule band steps to
    one inside it.  dt must be finite (InvalidConfigError otherwise); a
    negative dt is a backward step."""
    _check_real("time step", dt)
    y = np.array([state.zeta, state.psi])
    half = 0.5 * dt

    def stage(k, h):
        # a read-only stack, whose rows the stage state holds uncopied
        z = _read_only(k * h + y)
        return state.replace_fields(z[0], z[1])

    k1 = rhs(state)
    k2 = rhs(stage(k1, half))
    k3 = rhs(stage(k2, half))
    k4 = rhs(stage(k3, dt))
    # a non-finite field raises NumericalError in the state's constructor
    return stage(k1 + k2 * 2 + k3 * 2 + k4, dt / 6.0)


def _record(series: TimeSeries, t: float, state: InterfaceState):
    traces = _traces(state)
    mass = float(np.mean(state.zeta)) * state.grid.length
    jump = traces.jump_v()
    series.times.append(t)
    # the same read-only fields, without the stepping state's layers, 𝒢̃ and traces
    series.states.append(state.replace_fields(state.zeta, state.psi))
    series.traces.append(traces)
    series.diagnostics.append(
        {
            "time": t,
            "mass": mass,
            "zeta_sup": float(np.max(np.abs(state.zeta))),
            "jump_sup": float(np.max(np.abs(jump))),
        }
    )


def run(config: EvolutionConfig, initial: InterfaceState) -> TimeSeries:
    """Integrate until t_end or breakdown in steps of :func:`cfl_cap` (the
    last one shorter), recording snapshots at the cadence.  The initial data
    are projected onto the 2/3-rule band (:func:`~twofluid.spectral.dealias`)
    and every right-hand side is projected, so every state stays in it.  A
    recorded state's transmission solve serves its snapshot and the first
    stage of the step that leaves it.  An error of the package ends the run
    as a recorded breakdown."""
    grid = initial.grid
    dt = cfl_cap(initial.params, grid.n, grid.length)
    state = initial.replace_fields(*dealias(grid, np.array([initial.zeta, initial.psi])))
    series = TimeSeries()
    n_steps = int(math.ceil(config.t_end / dt - 1e-12))
    t = 0.0
    try:
        _record(series, t, state)
        for step in range(1, n_steps + 1):
            step_dt = min(dt, config.t_end - t)
            state = rk4_step(state, step_dt)
            t += step_dt
            if step % config.snapshot_every == 0 or step == n_steps:
                _record(series, t, state)
    except TwoFluidError as exc:
        series.breakdown = {"time": t, "reason": f"{type(exc).__name__}: {exc}"}
    return series
