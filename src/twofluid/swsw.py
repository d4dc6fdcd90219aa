"""Two-layer shallow-water model with hyperbolicity monitoring.

In the strongly nonlinear shallow regime (ε ∼ 1, μ ≪ 1) the interface
elevation ζ and the reduced horizontal velocity v = ∂xψ are described by

    ∂tζ + ∂x[a·v] = 0,   ∂tv + ∂x[ζ + u·v/2] = 0,

with layer heights h± = H̄±(1 ± ε±ζ), d = ρ̄⁺h⁻ + ρ̄⁻h⁺, a = h⁺h⁻/d and
u = ε(ρ̄⁺h⁻² − ρ̄⁻h⁺²)v/d².  Since ∂ζh± = ±ε (as ε±H̄± = ε), v·∂ζa = u: the
flux Jacobian has trace 2u, and its eigenvalues, the characteristic speeds, are

    u ± √(a·ind),   ind = 1 − ε² ρ̄⁺ρ̄⁻ (H̄⁺+H̄⁻)² / d³ · v².

So the system is hyperbolic exactly where the indicator ind is positive:
the Jacobian discriminant is 4a·ind with a > 0, and the two signs agree cell
by cell.  Loss of hyperbolicity is the model-level shadow of shear
instability and is reported as a first-class outcome, not an error.

The solver is a first-order Rusanov (local Lax-Friedrichs) finite-volume
scheme, conservative in ζ to rounding.  A state computes its heights once,
in its constructor, which rejects a dry state with the full model's
pinch-off check (:func:`~twofluid.strip.layer_depth`,
DegenerateGeometryError), and its characteristic triple (a, u, ind) once,
on first use; the triple serves the state's fluxes, its indicator and its
Rusanov speeds |u| + √|a·ind|, which are the characteristic speeds max|λ±|
where the state is hyperbolic.  A step of :func:`run_swsw` reads the
state's largest speed for its time step and :func:`fv_step` reads the same
number for its CFL check.  A step that fails halts a run with the record of
a breakdown of :func:`~twofluid.evolution.run`, ``"Type: message"``.

The model carries neither μ nor Bo: a state reads only ε, ε±, H̄± and ρ̄±.
So :func:`compare_with_full` integrates it once per call, and the one
refined, Richardson-extrapolated reference serves every μ of the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidConfigError, NumericalError, TwoFluidError
from .evolution import EvolutionConfig, _breakdown, run
from .operators import InterfaceState
from .params import DimensionlessParams, _check_real, config_from_dimensionless, derive_params
from .spectral import (PeriodicGrid, _cached, _check_range, _finite, _read_only, antideriv,
                       deriv, fourier_interpolate)
from .strip import _grid_field, layer_depth

# run_swsw's time step in units of dx/max|λ|; fv_step rejects steps above 0.5
CFL_NUMBER = 0.45


@dataclass(frozen=True, eq=False)
class SWState:
    """Cell-centered shallow-water state (ζ, v) with its parameters and layer
    heights, read-only; ValueError on a field off the grid, NumericalError if
    not finite, DegenerateGeometryError if dry (:func:`heights`)."""

    grid: PeriodicGrid
    zeta: np.ndarray
    v: np.ndarray
    params: DimensionlessParams
    _heights: tuple = field(init=False, repr=False)

    def __post_init__(self):
        fields = self.__dict__  # frozen: set through the instance dict
        zeta = fields["zeta"] = _grid_field(self.grid, self.zeta, "zeta")
        fields["v"] = _grid_field(self.grid, self.v, "v")
        fields["_heights"] = heights(self.params, zeta)

    @_cached
    def _characteristic(self) -> tuple:
        """(a, u, ind) of the module docstring, computed once per state for the
        fluxes, the characteristic speeds and the indicator; not finite where
        v² overflows, which fv_step rejects and run_swsw reports."""
        p, v = self.params, self.v
        hp, hm = self._heights
        d = hm * p.rhobar_plus + hp * p.rhobar_minus
        c = p.eps**2 * p.rhobar_plus * p.rhobar_minus * (p.hbar_plus + p.hbar_minus) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            u = (hm**2 * p.rhobar_plus - hp**2 * p.rhobar_minus) * p.eps / d**2 * v
            ind = np.subtract(1.0, c / d**3 * v**2)
        return hp * hm / d, u, ind

    @_cached
    def _local_speed(self) -> np.ndarray:
        """Rusanov speed |u| + √|a·ind| of each cell: max|λ±| where the cell
        is hyperbolic (a·ind ≥ 0), a bound on |λ±| = √(u² − a·ind) where it
        is not.  Real arithmetic, once per state."""
        a, u, ind = self._characteristic
        speed = np.sqrt(np.abs(a * ind))
        speed += np.abs(u)
        return speed

    @_cached
    def _max_speed(self) -> float:
        """max of :attr:`_local_speed`, read by run_swsw's step and fv_step's CFL check."""
        speed = self._local_speed
        return speed.item(speed.argmax())


def heights(p: DimensionlessParams, zeta: np.ndarray) -> tuple:
    """Layer heights h⁺ = H̄⁺(1+ε⁺ζ), h⁻ = H̄⁻(1−ε⁻ζ); DegenerateGeometryError
    where a layer pinches off (:func:`~twofluid.strip.layer_depth`)."""
    return (layer_depth(zeta, p.eps_plus, +1) * p.hbar_plus,
            layer_depth(zeta, p.eps_minus, -1) * p.hbar_minus)


def flux(state: SWState) -> tuple:
    """Componentwise fluxes (a·v, ζ + u·v/2) of the conservative form."""
    a, u, _ = state._characteristic
    return a * state.v, u * 0.5 * state.v + state.zeta


def hyperbolicity_indicator(state: SWState) -> np.ndarray:
    """Pointwise indicator ind, whose sign is that of the Jacobian discriminant."""
    return state._characteristic[2].copy()


def max_wave_speed(state: SWState) -> float:
    """Largest Rusanov speed of the state (:attr:`SWState._local_speed`)."""
    return state._max_speed


def fv_step(state: SWState, dt: float) -> SWState:
    """One Rusanov step; conservative in ζ to rounding.  dt must be finite,
    >= 0 and within the CFL restriction (InvalidConfigError otherwise);
    NumericalError if a characteristic speed or the new state is not finite,
    DegenerateGeometryError if the new state is dry."""
    _check_real("time step", dt, 0.0)
    grid = state.grid
    dx = grid.dx
    _finite(state._max_speed, "the largest characteristic speed")
    if dt > 0.5 * dx / max(state._max_speed, 1e-300) * (1.0 + 1e-9):
        raise InvalidConfigError("dt violates the CFL restriction")
    # (ζ, v, mass flux, momentum flux, speed) with periodic ghost cells at
    # both ends, so that the n + 1 cell faces are slices
    g = np.empty((5, grid.n + 2))
    g[:, 1:-1] = (state.zeta, state.v, *flux(state), state._local_speed)
    g[:, 0], g[:, -1] = g[:, -2], g[:, 1]
    u, f, s = g[:2], g[2:4], g[4]
    s_face = np.maximum(s[:-1], s[1:])
    fhat = (f[:, :-1] + f[:, 1:]) * 0.5 - s_face * 0.5 * (u[:, 1:] - u[:, :-1])
    # a read-only stack, whose rows the new state holds uncopied
    new = _read_only(u[:, 1:-1] - (fhat[:, 1:] - fhat[:, :-1]) * (dt / dx))
    return SWState(grid=grid, zeta=new[0], v=new[1], params=state.params)


@dataclass
class SWSeries:
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    indicator_min: list = field(default_factory=list)
    halted: Optional[dict] = None


def _least_indicator(state: SWState) -> float:
    """min of the state's indicator, NaN if an entry is: the entry at argmin,
    without a ufunc reduction's dispatch."""
    ind = state._characteristic[2]
    return ind.item(ind.argmin())


def run_swsw(config: EvolutionConfig, initial: SWState) -> SWSeries:
    """Advance until t_end in steps of CFL_NUMBER·dx/max|λ|; halt with a
    report if hyperbolicity is lost, the indicator is not finite or a step
    fails, the last as :func:`~twofluid.evolution.run` records a breakdown:
    ``"DegenerateGeometryError: …"`` for a dry state, at the last state's time."""
    series = SWSeries()
    state, t, step = initial, 0.0, 0
    t_stop = config.t_end - 1e-12

    def record(ind):
        series.times.append(t)
        series.states.append(state)
        series.indicator_min.append(ind)

    ind = _least_indicator(state)
    record(ind)
    while ind >= 0.0 and t < t_stop:
        dt = min(CFL_NUMBER * state.grid.dx / max_wave_speed(state), config.t_end - t)
        try:
            state = fv_step(state, dt)
        except TwoFluidError as exc:
            series.halted = _breakdown(t, exc)
            return series
        t += dt
        step += 1
        ind = _least_indicator(state)
        if not ind >= 0.0 or step % config.snapshot_every == 0 or t >= t_stop:
            record(ind)
    if not ind >= 0.0:
        reason = "hyperbolicity loss" if math.isfinite(ind) else "non-finite hyperbolicity indicator"
        series.halted = {"time": t, "indicator_min": ind, "reason": reason}
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
        series = run_swsw(EvolutionConfig(t_end=t_end, snapshot_every=10**9),
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
    The long-wave model carries neither μ nor Bo, so that reference is
    computed once per call and serves every μ of ``mu_list``.
    The full side starts from ψ with ∂xψ = v0, so v0 must have zero mean and
    no Nyquist component, each up to 1e-8·‖v0‖∞ (a periodic ψ carries no
    mean current); other data raises IncompatibleDataError.
    """
    zeta0 = np.asarray(zeta0, dtype=float)
    v0 = _check_range(v0, grid.n, "compare_with_full velocity")
    psi0 = antideriv(grid, v0)
    rows = []
    for i, mu in enumerate(mu_list):
        cfg = config_from_dimensionless(
            eps=eps, mu=mu, rhobar_minus=rhobar_minus, depth_ratio=depth_ratio,
            bond=bond_times_mu / mu,
        )
        p = derive_params(cfg)
        full0 = InterfaceState(grid=grid, zeta=zeta0, psi=psi0, params=p, n_z=n_z)
        full = run(EvolutionConfig(t_end=t_end, snapshot_every=10**9), full0)
        # the model reads only ε, ε±, H̄± and ρ̄±, which no μ of the sweep
        # changes: the first μ's reference serves every μ
        if i == 0:
            sw_end = _sw_endpoint(grid, zeta0, v0, p, t_end)
        disc = math.nan
        if not (full.broke_down or sw_end is None):
            zf = full.states[-1].zeta
            vf = deriv(grid, full.states[-1].psi)
            za, va = sw_end
            disc = float(np.max(np.abs(zf - za)) + np.max(np.abs(vf - va)))
        rows.append(ComparisonRow(mu=mu, discrepancy=disc, full_broke_down=full.broke_down,
                                  sw_halted=sw_end is None))
    return ComparisonTable(rows=rows)
