"""Composed two-layer operators built from the single-layer DN maps.

With G± the unit-depth layer operators of :mod:`twofluid.strip`, the package
exposes

  * the coupling map  J u = ρ̄⁺u − ρ̄⁻(H̄⁻/H̄⁺)(G⁻)⁻¹G⁺u  and its inverse,
  * the coupled interface operator  𝒢 = (1/H̄⁺) G⁺ ∘ J⁻¹,
  * the transmission solve producing both layer traces ψ± and the interface
    velocities (V±, w±) from the single unknown ψ = ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻,
  * the density-weighted DN sum  𝒢̃ = ρ̄⁻(1/H̄⁺)G⁺ − ρ̄⁺(1/H̄⁻)G⁻  (positive
    on zero-mean data) and its gauged inverse,
  * the shear operator  ℰ = −∂x ∘ 𝒢̃⁻¹ ∘ ∂x  whose quadratic form measures
    the destabilizing inertia of a velocity jump.

Everything is assembled from the layer DN matrices S± of
:mod:`twofluid.strip` (G± = ±S±): the discrete 𝒢̃ is the N×N sum
(ρ̄⁻/H̄⁺)S⁺ + (ρ̄⁺/H̄⁻)S⁻, and J⁻¹, 𝒢, 𝒢̃⁻¹ and the transmission solve
share one Cholesky factor of 𝒢̃ + Π per state, Π the projector onto the
common kernel (constants and the Nyquist mode).  Traces are gauged by zero
mean and zero Nyquist content, and every solve checks its residual.  The
same formulas hold at ρ̄⁻ = 0.  Sign conventions are pinned by the
positivity of the associated quadratic forms, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateGeometryError,
    IncompatibleDataError,
    NumericalError,
)
from .params import DimensionlessParams
from .spectral import PeriodicGrid, deriv, inner
from .strip import (
    DiffeoData,
    _check_residual,
    _deflate,
    _finite,
    _gauge_factor,
    _gauged_solve,
    build_trivial_diffeo,
    dn_apply,
    flat_symbol,
    solve_neumann,
)


@dataclass
class InterfaceState:
    """Interface elevation and reduced potential with their parameters."""

    grid: PeriodicGrid
    zeta: np.ndarray
    psi: np.ndarray
    params: DimensionlessParams
    n_z: int = 32
    _diffeos: dict = field(default_factory=dict, repr=False, compare=False)
    _g_tilde_factor: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.psi = np.asarray(self.psi, dtype=float)
        for name, arr in (("zeta", self.zeta), ("psi", self.psi)):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have shape ({self.grid.n},)")
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"{name} contains non-finite values")
        p = self.params
        for sign, eps_l in ((+1, p.eps_plus), (-1, p.eps_minus)):
            depth = 1.0 + sign * eps_l * self.zeta
            if np.min(depth) <= 0.0:
                raise DegenerateGeometryError(
                    f"layer {'+' if sign > 0 else '-'} depth vanishes: "
                    f"min = {float(np.min(depth)):.3e}"
                )

    def diffeo(self, sign: int) -> DiffeoData:
        if sign not in self._diffeos:
            p = self.params
            eps_l = p.eps_plus if sign > 0 else p.eps_minus
            mu_l = p.mu_plus if sign > 0 else p.mu_minus
            self._diffeos[sign] = build_trivial_diffeo(
                self.grid, self.zeta, eps_l, mu_l, sign, n_z=self.n_z
            )
        return self._diffeos[sign]

    def replace_fields(self, zeta, psi) -> "InterfaceState":
        return InterfaceState(
            grid=self.grid, zeta=zeta, psi=psi, params=self.params, n_z=self.n_z
        )


@dataclass
class TraceBundle:
    """Layer traces and interface velocities from the transmission solve."""

    psi_plus: np.ndarray
    psi_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray

    def jump_v(self) -> np.ndarray:
        return self.v_plus - self.v_minus


# -- flat multipliers ------------------------------------------------------------


def j_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat coupling map J (value ρ̄⁺ at ξ = 0 by the gauge)."""
    p = params
    gp, gm = flat_symbol(p.mu_plus, k), flat_symbol(p.mu_minus, k)
    ratio = np.divide(gp, gm, out=np.zeros_like(gp), where=gm > 0.0)
    return p.rhobar_plus + p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * ratio


def coupled_dn_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat coupled operator 𝒢:

    √μ|ξ| tanh(√μ⁺|ξ|) tanh(√μ⁻|ξ|) / (ρ̄⁺tanh(√μ⁻|ξ|) + ρ̄⁻tanh(√μ⁺|ξ|)).
    """
    return flat_symbol(params.mu_plus, k) / (params.hbar_plus * j_flat_symbol(params, k))


def dn_mix_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat weighted DN sum 𝒢̃:

    √μ|ξ|(ρ̄⁻tanh(√μ⁺|ξ|) + ρ̄⁺tanh(√μ⁻|ξ|)).
    """
    p = params
    return (p.rhobar_minus / p.hbar_plus) * flat_symbol(p.mu_plus, k) + (
        p.rhobar_plus / p.hbar_minus
    ) * flat_symbol(p.mu_minus, k)


# -- composed operators -----------------------------------------------------------


def apply_j(state: InterfaceState, u) -> np.ndarray:
    """Apply J = ρ̄⁺ − ρ̄⁻(H̄⁻/H̄⁺)(G⁻)⁻¹G⁺ (the lower-trace coupling map)."""
    p = state.params
    u = np.asarray(u, dtype=float)
    f = dn_apply(state.diffeo(+1), u)
    # G⁺u has zero mean up to rounding, which is all of G⁺u for constant u
    f -= np.mean(f)
    tr = solve_neumann(state.diffeo(-1), f).interface_trace(state.diffeo(-1))
    return p.rhobar_plus * u - p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * tr


def _solve_g_tilde(state: InterfaceState, f) -> np.ndarray:
    """Gauged solution of 𝒢̃u = f (one right-hand side per row of f) for
    the part of f in the range of 𝒢̃, with its residual checked.

    The Cholesky factor of 𝒢̃ + Π is computed once per state.
    """
    mat = dense_g_tilde(state)
    if state._g_tilde_factor is None:
        state._g_tilde_factor = _gauge_factor(mat)
    f = _deflate(_finite(f, "weighted DN sum data"))
    u = _gauged_solve(state._g_tilde_factor, f)
    _check_residual(u @ mat - f, f, "weighted DN sum solve")
    return u


def _couple(state: InterfaceState, psi) -> tuple:
    """(ψ⁻, (1/H̄±)G±ψ±) of the transmission problem for ψ = ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻.

    Flux continuity (1/H̄⁺)G⁺ψ⁺ = (1/H̄⁻)G⁻ψ⁻ with ρ̄⁺ψ⁺ = ψ + ρ̄⁻ψ⁻ reads
    𝒢̃ψ⁻ = −S⁺ψ/H̄⁺, which holds at ρ̄⁻ = 0 too.
    """
    p = state.params
    psi = np.asarray(psi, dtype=float)
    psi_minus = _solve_g_tilde(state, _dn_matrix(state, +1) @ psi / -p.hbar_plus)
    flux = _dn_matrix(state, -1) @ psi_minus / -p.hbar_minus
    return psi_minus, _deflate(flux)


def invert_j(state: InterfaceState, psi) -> np.ndarray:
    """Solve J ψ⁺ = ψ for the lower-layer trace ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺."""
    p = state.params
    psi = np.asarray(psi, dtype=float)
    psi_minus, _ = _couple(state, psi)
    return (psi + p.rhobar_minus * psi_minus) / p.rhobar_plus


def apply_g(state: InterfaceState, psi) -> np.ndarray:
    """Coupled interface DN operator 𝒢 = (1/H̄⁺) G⁺ ∘ J⁻¹ (zero-mean output)."""
    return _couple(state, psi)[1]


def transmission_solve(state: InterfaceState) -> TraceBundle:
    """Recover both layer traces and interface velocities from (ζ, ψ).

    ψ⁻ and the common flux (1/H̄±)G±ψ± come from one gauged solve with 𝒢̃,
    and ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺, so the trace identity holds to rounding.  Then

        w± = ((1/H̄±) G±ψ± + εμ ζₓ ∂xψ±) / (1 + ε²μ ζₓ²),
        V± = ∂xψ± − ε w± ζₓ.
    """
    p = state.params
    grid = state.grid
    psi_minus, g_over_h = _couple(state, state.psi)
    psi_plus = (state.psi + p.rhobar_minus * psi_minus) / p.rhobar_plus
    zx = deriv(grid, state.zeta)
    denom = 1.0 + p.eps**2 * p.mu * zx**2
    out = {}
    for tag, psi_l in (("plus", psi_plus), ("minus", psi_minus)):
        dpsi = deriv(grid, psi_l)
        w = (g_over_h + p.eps * p.mu * zx * dpsi) / denom
        v = dpsi - p.eps * w * zx
        out[f"w_{tag}"] = w
        out[f"v_{tag}"] = v
    return TraceBundle(
        psi_plus=psi_plus,
        psi_minus=psi_minus,
        v_plus=out["v_plus"],
        v_minus=out["v_minus"],
        w_plus=out["w_plus"],
        w_minus=out["w_minus"],
    )


def _dn_matrix(state: InterfaceState, sign: int) -> np.ndarray:
    return state.diffeo(sign).operator().dn_matrix


def dense_g_tilde(state: InterfaceState) -> np.ndarray:
    """Dense symmetric matrix of 𝒢̃ = (ρ̄⁻/H̄⁺)S⁺ + (ρ̄⁺/H̄⁻)S⁻ on the grid.

    Its null space is two-dimensional (constants and the Nyquist column
    annihilated by the spectral derivative); :func:`pinv_g_tilde` inverts it
    on its range.
    """
    p = state.params
    return (p.rhobar_minus / p.hbar_plus) * _dn_matrix(state, +1) + (
        p.rhobar_plus / p.hbar_minus
    ) * _dn_matrix(state, -1)


def apply_g_tilde(state: InterfaceState, u) -> np.ndarray:
    """Weighted DN sum 𝒢̃ u = ρ̄⁻(1/H̄⁺)G⁺u − ρ̄⁺(1/H̄⁻)G⁻u (positive operator)."""
    return dense_g_tilde(state) @ np.asarray(u, dtype=float)


def invert_g_tilde(state: InterfaceState, f) -> np.ndarray:
    """Solve 𝒢̃ u = f; the result has zero mean and zero Nyquist content.

    f must lie in the range of 𝒢̃: zero mean and no Nyquist component.
    """
    f = np.asarray(f, dtype=float)
    off = float(np.max(np.abs(f - _deflate(f))))
    if off > 1e-8 * float(np.max(np.abs(f))):
        raise IncompatibleDataError(
            "inverse of the weighted DN sum needs data with zero mean and no "
            f"Nyquist component; they reach {off:.3e}"
        )
    return _solve_g_tilde(state, f)


def pinv_g_tilde(state: InterfaceState) -> np.ndarray:
    """Pseudo-inverse of the dense 𝒢̃ matrix on its range, (𝒢̃ + Π)⁻¹ − Π."""
    return _solve_g_tilde(state, np.eye(state.grid.n))


def apply_e(state: InterfaceState, v) -> np.ndarray:
    """Shear operator ℰ v = −∂x 𝒢̃⁻¹ ∂x v; (ℰv, v) = (𝒢̃⁻¹∂xv, ∂xv) ≥ 0."""
    g = deriv(state.grid, np.asarray(v, dtype=float))
    u = invert_g_tilde(state, g)
    return -deriv(state.grid, u)


def e_quadratic_form(state: InterfaceState, v) -> float:
    """Quadratic form (ℰ v, v) evaluated without the outer derivative."""
    g = deriv(state.grid, np.asarray(v, dtype=float))
    u = invert_g_tilde(state, g)
    return inner(state.grid, u, g)
