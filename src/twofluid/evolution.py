"""Time integration of the dimensionless two-layer interfacial-wave system.

State (ζ, ψ) on a periodic grid evolves by

    ∂tζ = (1/μ) 𝒢 ψ,
    ∂tψ = −ζ − (ε/2)⟦ρ̄±(∂xψ±)²⟧ + (ε/2μ)(1+ε²μζₓ²)⟦ρ̄±(w±)²⟧
          + (1/Bo) ∂x( ζₓ / √(1+ε²μζₓ²) ),

with ∂xψ±, w± and the flux 𝒢ψ read from the trace bundle of each state's
transmission solve: one block elimination per layer and one gauged Cholesky
solve with 𝒢̃ (:mod:`twofluid.operators`), kept with the state, so that a
recorded state and the first stage of the step leaving it share one solve.
These solves are direct, so a run has no solver tolerance to set.  Each RK4
stage builds one state and makes one :func:`rhs`, which is bitwise the
2/3-rule projection (:func:`~twofluid.spectral.dealias`, Orszag's rule) of
:func:`tendency` at :func:`~twofluid.operators.transmission_solve`; the
solve and the tendency share the state's slope term 1 + ε²μζₓ², computed
once per state.  The projection is fixed, not an option: the full system is
Kelvin–Helmholtz ill-posed at high frequencies, and the projected one is a
well-defined ODE (fourth-order convergence, exact mass conservation).
:func:`tendency` stays unprojected, for the criteria of
:mod:`twofluid.stability`.  A run takes classical RK4 steps of the
conservative CFL cap.  RK4 is fourth order but not energy-conserving: on a
linear mode of frequency ω it scales the quadratic invariant by
|R(iωΔt)|² = 1 − (ωΔt)⁶/72 + (ωΔt)⁸/576 per step.

Breakdown (vanishing layer depth, a failed residual check or NaN) is a
first-class outcome: shear-unstable runs are expected to end this way and
the series reports the breakdown time and the error that ended the run.

Each snapshot also records the system's Hamiltonian (Benjamin & Bridges,
JFM 333, 1997)

    H = ∫ ζ²/2 + ψ𝒢ψ/(2μ) + (√(1+ε²μζₓ²) − 1)/(ε²μBo) dx,

one inner product with the bundle's flux beyond the mass.  The discrete
flow conserves it up to the O(n_z⁻²) of the shape derivative on the
discrete DN matrices and the RK4 error.

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

from ._lapack import dgemv
from .errors import TwoFluidError
from .operators import InterfaceState, TraceBundle, transmission_solve
from .params import DimensionlessParams, _check_count, _check_real, _pow
from .spectral import _finite, _read_only, dealias, deriv, inner


def cfl_cap(params: DimensionlessParams, n_points: int) -> float:
    """Conservative RK4 step cap from the gravity and capillary phase speeds
    on n_points (an integer >= 2) of the 2π period, a finite step > 0."""
    _check_count("n_points", n_points, 2)
    # k_max = n_points // 2 as a float, ∞ past the float range
    k_max = _check_real("k_max", _pow(n_points // 2, 1.0), 0.0, strict=True)
    k_pow = _check_real("k_max**1.5", _pow(k_max, 1.5), 0.0, strict=True)
    # the gravity and the capillary cap; Bo = ∞ makes the second ∞
    dt = min(math.sqrt(params.mu) / k_max, math.sqrt(params.bond * math.sqrt(params.mu)) / k_pow)
    return _check_real("CFL step", 0.5 * dt, 0.0, strict=True)


@dataclass(frozen=True)
class EvolutionConfig:
    """Schedule of a run: end time t_end (finite, ≥ 0) and a snapshot every
    snapshot_every-th step (an integer ≥ 1).  :func:`run` steps at
    :func:`cfl_cap` with the 2/3-rule projection, ``run_swsw`` at its own CFL."""

    t_end: float
    snapshot_every: int = 10

    def __post_init__(self):
        _check_real("t_end", self.t_end, 0.0)
        _check_count("snapshot_every", self.snapshot_every)


@dataclass
class TimeSeries:
    """Snapshots of one run: times, states (within the 2/3-rule band), their
    trace bundles and one diagnostics row each (time, mass, sup|ζ|,
    sup|⟦V⟧| and the Hamiltonian).  ``breakdown`` holds the time and reason
    of the error that ended the run, or None."""

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
    trace bundle, as one (2, N) array, with no dealiasing; NumericalError if
    it is not finite, as when the squares of a finite state overflow.  ∂tζ
    is the bundle's flux 𝒢ψ over μ; each jump ⟦ρ̄a²⟧ = ρ̄⁺(a⁺)² − ρ̄⁻(a⁻)²
    is one product of the squared stack of ∂xψ± or w± with (ρ̄⁺, −ρ̄⁻)."""
    p = state.params
    denom = state._slope_terms[1]
    rho = _signed_densities(p.rhobar_plus, p.rhobar_minus)
    out = np.empty((2, state.grid.n))
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(traces.flux, p.mu, out=out[0])
        # alpha·aᵀ·rho by BLAS dgemv on the squared stack's transposed view
        grad_jump = dgemv(-0.5 * p.eps, np.square(traces.psi_x).T, rho)
        w_jump = dgemv(0.5 * p.eps / p.mu, np.square(traces.w).T, rho)
        w_jump *= denom
        w_jump += grad_jump
        np.subtract(w_jump, state.zeta, out=out[1])
        out[1] += deriv(state.grid, state.zeta_x / np.sqrt(denom)) / p.bond
    return _finite(out, "tendency")


@functools.lru_cache(maxsize=16)
def _signed_densities(rhobar_plus: float, rhobar_minus: float) -> np.ndarray:
    """The read-only (ρ̄⁺, −ρ̄⁻) that weighs the rows of a ± stack."""
    return _read_only(np.array([rhobar_plus, -rhobar_minus]))


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
    :func:`tendency` at the state's own trace bundle; NumericalError if
    either is not finite."""
    return dealias(state.grid, tendency(state, _traces(state)))


def rk4_step(state: InterfaceState, dt: float) -> InterfaceState:
    """One classical four-stage step of the projected system on y = (ζ, ψ),
    each stage a :func:`rhs`, so a state inside the 2/3-rule band steps to
    one inside it.  dt must be finite (InvalidConfigError otherwise); a
    negative dt is a backward step."""
    _check_real("time step", dt)
    y = np.array([state.zeta, state.psi])
    half = 0.5 * dt

    def stage(k, h):
        # a read-only stack, whose rows the stage state holds uncopied, and
        # whose non-finite field raises NumericalError in its constructor
        with np.errstate(over="ignore", invalid="ignore"):
            z = _read_only(k * h + y)
        return state.replace_fields(z[0], z[1])

    k1 = rhs(state)
    k2 = rhs(stage(k1, half))
    k3 = rhs(stage(k2, half))
    k4 = rhs(stage(k3, dt))
    with np.errstate(over="ignore", invalid="ignore"):
        return stage(k1 + k2 * 2 + k3 * 2 + k4, dt / 6.0)


def _record(series: TimeSeries, t: float, state: InterfaceState):
    traces = _traces(state)
    mass = float(np.mean(state.zeta)) * state.grid.length
    jump = traces.jump_v()
    # the Hamiltonian ∫ ζ²/2 + ψ𝒢ψ/(2μ) + (√(1 + ε²μζₓ²) − 1)/(ε²μBo), its
    # capillary term written as ζₓ²/(Bo(1 + √(1 + ε²μζₓ²))), which needs no
    # division by ε²μ
    p, grid, zx = state.params, state.grid, state.zeta_x
    energy = (0.5 * inner(grid, state.zeta, state.zeta)
              + inner(grid, state.psi, traces.flux) / (2.0 * p.mu)
              + inner(grid, zx, zx / (1.0 + np.sqrt(state._slope_terms[1]))) / p.bond)
    _finite(energy, "the Hamiltonian")
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
            "hamiltonian": energy,
        }
    )


def run(config: EvolutionConfig, initial: InterfaceState) -> TimeSeries:
    """Integrate until t_end or breakdown in steps of :func:`cfl_cap` (the
    last one shorter), recording snapshots at the cadence.  The initial data
    are projected onto the 2/3-rule band (:func:`~twofluid.spectral.dealias`)
    and every right-hand side is projected, so every state stays in it.  A
    recorded state's transmission solve serves its snapshot and the first
    stage of the step that leaves it.  An error of the package ends the run
    as a recorded breakdown, one from the projected initial data at t = 0."""
    grid = initial.grid
    dt = cfl_cap(initial.params, grid.n)
    series = TimeSeries()
    n_steps = int(math.ceil(_check_real("step count t_end/dt", config.t_end / dt - 1e-12)))
    t = 0.0
    try:
        # a Gibbs overshoot can pinch a layer off, and a sum can overflow
        state = initial.replace_fields(*dealias(grid, np.array([initial.zeta, initial.psi])))
        _record(series, t, state)
        for step in range(1, n_steps + 1):
            step_dt = min(dt, config.t_end - t)
            state = rk4_step(state, step_dt)
            t += step_dt
            if step % config.snapshot_every == 0 or step == n_steps:
                _record(series, t, state)
    except TwoFluidError as exc:
        series.breakdown = _breakdown(t, exc)
    return series


def _breakdown(t: float, exc: TwoFluidError) -> dict:
    """The record of ``run`` and ``run_swsw`` of exc, raised after time t."""
    return {"time": t, "reason": f"{type(exc).__name__}: {exc}"}
