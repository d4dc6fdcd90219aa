"""Two-layer shallow-water model with hyperbolicity monitoring.

In the strongly nonlinear shallow regime (ε ∼ 1, μ ≪ 1) the interface
elevation ζ and the reduced horizontal velocity v = ∂xψ are described by

    ∂tζ + ∂x[ h⁻h⁺/(ρ̄⁺h⁻ + ρ̄⁻h⁺) · v ] = 0,
    ∂tv + ∂x[ ζ + (ε/2)(ρ̄⁺h⁻² − ρ̄⁻h⁺²)/(ρ̄⁺h⁻ + ρ̄⁻h⁺)² · v² ] = 0,

with layer heights h± = H̄±(1 ± ε±ζ).  The system is hyperbolic exactly
where the indicator

    1 − ε² ρ̄⁺ρ̄⁻ (H̄⁺+H̄⁻)² / (ρ̄⁺h⁻ + ρ̄⁻h⁺)³ · v²

is positive: the flux-Jacobian discriminant equals the indicator times the
positive factor 4h⁺h⁻/(ρ̄⁺h⁻+ρ̄⁻h⁺), so the two signs agree cell by cell.
Loss of hyperbolicity is the model-level shadow of shear instability and is
reported as a first-class outcome, not an error.

The solver is a first-order Rusanov (local Lax-Friedrichs) finite-volume
scheme, conservative in ζ to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .evolution import EvolutionConfig, run
from .operators import InterfaceState
from .params import DimensionlessParams, check_schedule, config_from_dimensionless, derive_params
from .spectral import PeriodicGrid, antideriv, deriv, fourier_interpolate
from .strip import _check_range

# run_swsw's time step in units of dx/max|λ|; fv_step rejects steps above 0.5
CFL_NUMBER = 0.45


@dataclass
class SWState:
    """Cell-centered shallow-water state (ζ, v) with its parameters."""

    grid: PeriodicGrid
    zeta: np.ndarray
    v: np.ndarray
    params: DimensionlessParams

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        hp, hm = heights(self.params, self.zeta)
        if np.min(hp) <= 0.0 or np.min(hm) <= 0.0:
            raise NumericalError(
                f"dry state: min heights ({float(np.min(hp)):.3e}, {float(np.min(hm)):.3e})"
            )

    @cached_property
    def _local_speed(self) -> np.ndarray:
        """Largest flux-Jacobian |eigenvalue| in each cell, computed once per
        state for :func:`max_wave_speed` and :func:`fv_step`."""
        lam1, lam2 = jacobian_eigs(self)
        return np.maximum(np.abs(lam1), np.abs(lam2))


def heights(p: DimensionlessParams, zeta: np.ndarray) -> tuple:
    """Layer heights h⁺ = H̄⁺(1+ε⁺ζ), h⁻ = H̄⁻(1−ε⁻ζ)."""
    hp = p.hbar_plus * (1.0 + p.eps_plus * zeta)
    hm = p.hbar_minus * (1.0 - p.eps_minus * zeta)
    return hp, hm


def flux(state: SWState) -> tuple:
    """Componentwise fluxes (mass, momentum) of the conservative form."""
    p = state.params
    hp, hm = heights(p, state.zeta)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    f1 = hp * hm / den * state.v
    f2 = state.zeta + 0.5 * p.eps * (
        p.rhobar_plus * hm**2 - p.rhobar_minus * hp**2
    ) / den**2 * state.v**2
    return f1, f2


def _jacobian_entries(p: DimensionlessParams, zeta, v):
    hp, hm = heights(p, zeta)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    dden = p.eps * (p.rhobar_minus - p.rhobar_plus)
    a = hp * hm / den
    da = ((p.eps * hm - p.eps * hp) * den - hp * hm * dden) / den**2
    b = (p.rhobar_plus * hm**2 - p.rhobar_minus * hp**2) / den**2
    db = (
        -2.0
        * p.eps
        * (den**2 + (p.rhobar_minus - p.rhobar_plus)
           * (p.rhobar_plus * hm**2 - p.rhobar_minus * hp**2))
        / den**3
    )
    j11 = da * v
    j12 = a
    j21 = 1.0 + 0.5 * p.eps * db * v**2
    j22 = p.eps * b * v
    return j11, j12, j21, j22


def jacobian_eigs(state: SWState) -> tuple:
    """Eigenvalues of the flux Jacobian at every cell (complex when
    hyperbolicity is lost)."""
    j11, j12, j21, j22 = _jacobian_entries(state.params, state.zeta, state.v)
    tr = j11 + j22
    disc = (j11 - j22) ** 2 + 4.0 * j12 * j21
    root = np.sqrt(disc.astype(complex))
    return 0.5 * (tr + root), 0.5 * (tr - root)


def jacobian_discriminant(state: SWState) -> np.ndarray:
    j11, j12, j21, j22 = _jacobian_entries(state.params, state.zeta, state.v)
    return (j11 - j22) ** 2 + 4.0 * j12 * j21


def hyperbolicity_indicator(state: SWState) -> np.ndarray:
    """Pointwise indicator whose sign matches the Jacobian discriminant."""
    p = state.params
    hp, hm = heights(p, state.zeta)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    return 1.0 - p.eps**2 * p.rhobar_plus * p.rhobar_minus * (
        p.hbar_plus + p.hbar_minus
    ) ** 2 / den**3 * state.v**2


def max_wave_speed(state: SWState) -> float:
    return float(np.max(state._local_speed))


def fv_step(state: SWState, dt: float) -> SWState:
    """One Rusanov step; conservative in ζ to rounding."""
    grid = state.grid
    dx = grid.dx
    local_speed = state._local_speed
    if dt > 0.5 * dx / max(float(np.max(local_speed)), 1e-300) * (1.0 + 1e-9):
        raise InvalidConfigError("dt violates the CFL restriction")
    f1, f2 = flux(state)
    u = np.stack([state.zeta, state.v])
    f = np.stack([f1, f2])
    u_r = np.roll(u, -1, axis=1)
    f_r = np.roll(f, -1, axis=1)
    s = np.maximum(local_speed, np.roll(local_speed, -1))
    fhat = 0.5 * (f + f_r) - 0.5 * s * (u_r - u)
    unew = u - (dt / dx) * (fhat - np.roll(fhat, 1, axis=1))
    return SWState(grid=grid, zeta=unew[0], v=unew[1], params=state.params)


@dataclass
class SWConfig:
    t_end: float
    snapshot_every: int = 20

    def __post_init__(self):
        check_schedule(self.t_end, None, self.snapshot_every)


@dataclass
class SWSeries:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    indicator_min: list = field(default_factory=list)
    halted: Optional[dict] = None


def run_swsw(config: SWConfig, initial: SWState) -> SWSeries:
    """Advance until t_end; halt with a report if hyperbolicity is lost."""
    series = SWSeries()
    state, t, step = initial, 0.0, 0

    def record(ind):
        series.times.append(t)
        series.states.append(state)
        series.indicator_min.append(ind)

    ind = float(np.min(hyperbolicity_indicator(state)))
    record(ind)
    while ind >= 0.0 and t < config.t_end - 1e-12:
        speed = max_wave_speed(state)
        dt = min(CFL_NUMBER * state.grid.dx / speed, config.t_end - t)
        try:
            state = fv_step(state, dt)
        except NumericalError as exc:
            series.halted = {"time": t, "reason": str(exc)}
            return series
        t += dt
        step += 1
        ind = float(np.min(hyperbolicity_indicator(state)))
        if ind < 0.0 or step % config.snapshot_every == 0 or t >= config.t_end - 1e-12:
            record(ind)
    if ind < 0.0:
        series.halted = {"time": t, "indicator_min": ind, "reason": "hyperbolicity loss"}
    return series


@dataclass
class ComparisonRow:
    mu: float
    discrepancy: float
    full_broke_down: bool
    sw_halted: bool


@dataclass
class ComparisonTable:
    rows: list

    def fitted_exponent(self) -> float:
        pts = [(r.mu, r.discrepancy) for r in self.rows
               if not (r.full_broke_down or r.sw_halted) and r.discrepancy > 0.0]
        if len(pts) < 2:
            raise NumericalError("not enough valid rows to fit the shallowness exponent")
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])


def _sw_endpoint(grid, zeta0, v0, params, t_end):
    """Shallow-model end state on the comparison grid.

    Run the finite-volume scheme on grids refined 16 and 8 times,
    extrapolate its first-order error away (Richardson) and restrict to the
    coarse nodes.
    """

    def one(r):
        fine = PeriodicGrid(grid.n * r, grid.length)
        z = fourier_interpolate(grid, zeta0, fine.n)
        v = fourier_interpolate(grid, v0, fine.n)
        series = run_swsw(SWConfig(t_end=t_end, snapshot_every=10**9),
                          SWState(grid=fine, zeta=z, v=v, params=params))
        if series.halted is not None:
            return None
        end = series.states[-1]
        return end.zeta[::r].copy(), end.v[::r].copy()

    coarse = one(8)
    fine = one(16)
    if fine is None or coarse is None:
        return None
    return 2.0 * fine[0] - coarse[0], 2.0 * fine[1] - coarse[1]


def compare_with_full(
    grid: PeriodicGrid,
    zeta0: np.ndarray,
    v0: np.ndarray,
    eps: float,
    mu_list,
    t_end: float,
    rhobar_minus: float = 0.4,
    depth_ratio: float = 1.0,
    bond_times_mu: float = 1000.0,
    n_z: int = 24,
) -> ComparisonTable:
    """Sup-norm discrepancy between the full solver and the shallow model.

    The same physical scenario is run at each μ (surface tension scaled so
    Bo·μ stays fixed, keeping its relative effect of order μ); the model
    error |(ζ, v) − (ζᵃ, vᵃ)|∞ at t_end is reported per μ together with the
    fitted exponent, expected near 1.  The shallow side is integrated on a
    refined grid (with Richardson extrapolation of the first-order scheme
    error) so the reported discrepancy measures the model, not the scheme.
    The full side starts from ψ with ∂xψ = v0, so v0 must have zero mean and
    no Nyquist component, each up to 1e-8·‖v0‖∞ (a periodic ψ carries no
    mean current); other data raises IncompatibleDataError.
    """
    zeta0 = np.asarray(zeta0, dtype=float)
    v0 = _check_range(v0, "compare_with_full velocity")
    rows = []
    for mu in mu_list:
        cfg = config_from_dimensionless(
            eps=eps, mu=mu, rhobar_minus=rhobar_minus, depth_ratio=depth_ratio,
            bond=bond_times_mu / mu,
        )
        p = derive_params(cfg)
        psi0 = antideriv(grid, v0)
        full0 = InterfaceState(grid=grid, zeta=zeta0, psi=psi0, params=p, n_z=n_z)
        full = run(EvolutionConfig(t_end=t_end, snapshot_every=10**9), full0)
        sw_end = _sw_endpoint(grid, zeta0, v0, p, t_end)
        if full.broke_down or sw_end is None:
            rows.append(ComparisonRow(mu=mu, discrepancy=math.nan,
                                      full_broke_down=full.broke_down,
                                      sw_halted=sw_end is None))
            continue
        zf = full.states[-1].zeta
        vf = deriv(grid, full.states[-1].psi)
        za, va = sw_end
        disc = float(np.max(np.abs(zf - za)) + np.max(np.abs(vf - va)))
        rows.append(ComparisonRow(mu=mu, discrepancy=disc,
                                  full_broke_down=False, sw_halted=False))
    return ComparisonTable(rows=rows)
