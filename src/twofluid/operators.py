"""Composed two-layer operators built from the single-layer DN maps.

With G± the unit-depth layer operators of :mod:`twofluid.strip`, the package
exposes

  * the coupling map  J u = ρ̄⁺u − ρ̄⁻(H̄⁻/H̄⁺)(G⁻)⁻¹G⁺u  and its inverse,
  * the transmission solve: from the single unknown ψ = ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻,
    both layer traces ψ±, their slopes ∂xψ±, the interface velocities
    (V±, w±) and the flux 𝒢ψ of the coupled interface operator
    𝒢 = (1/H̄⁺) G⁺ ∘ J⁻¹, as one :class:`TraceBundle` of (2, N) stacks whose
    ± fields are read-only row views; and its tangent along a tendency
    (ζ̇, ψ̇), the bundle of the rates,
  * the density-weighted DN sum  𝒢̃ = ρ̄⁻(1/H̄⁺)G⁺ − ρ̄⁺(1/H̄⁻)G⁻  (positive
    on zero-mean data) and its gauged inverse,
  * the quadratic form of the shear operator  ℰ = −∂x ∘ 𝒢̃⁻¹ ∘ ∂x, which
    measures the destabilizing inertia of a velocity jump.

Its private helpers compose the symbols of J and 𝒢̃ from two layer symbols
s± for :class:`~twofluid.symbols.TailSymbolSet`.

An :class:`InterfaceState` holds one :class:`~twofluid.strip.StripOperator`
per fluid layer, ``state.layer(+1)`` below the interface and
``state.layer(-1)`` above it, both built on first use from one set of the
x-matrices of :mod:`twofluid.strip`, which each layer drops as it sweeps.  Everything
is assembled from their DN matrices S± (G± = ±S±): the discrete 𝒢̃ is the
N×N sum (ρ̄⁻/H̄⁺)S⁺ + (ρ̄⁺/H̄⁻)S⁻.  𝒢̃ and the factor of 𝒢̃ + Π, Π the
projector onto the common kernel (constants and the Nyquist mode), are
built once per state for J⁻¹, 𝒢, 𝒢̃⁻¹, the transmission solve and 𝔢;
J solves with S⁻.  Both are the gauged solve of :mod:`twofluid.strip`:
traces have zero mean and zero Nyquist content, and every residual is
checked.  Every product with S± or 𝒢̃ is :func:`~twofluid.strip._dn_product`,
with the 1/H̄± of the formulas as its scale.  So the float-limit guards sit
in those two primitives, and in :func:`~twofluid.spectral._checked` for an
entrywise product that can overflow, not in the formulas here.  The same
formulas hold at ρ̄⁻ = 0.  Sign conventions are pinned by the positivity of the
associated quadratic forms, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import DimensionlessParams, _check_count
from .spectral import (PeriodicGrid, _cached, _check_range, _checked, _deflate, _read_only,
                       deriv, inner)
from .strip import (
    StripOperator,
    _dn_product,
    _grid_field,
    _RangeSolver,
    _XMatrices,
    dn_apply,
    layer_depth,
)


@dataclass(frozen=True, eq=False)
class InterfaceState:
    """Interface elevation and reduced potential with their parameters, ζₓ and the
    layer depths, all read-only; the layers, 𝒢̃ and the slope terms are
    computed once, on first use, as is the trace bundle that
    :mod:`twofluid.evolution` keeps with them."""

    grid: PeriodicGrid
    zeta: np.ndarray
    psi: np.ndarray
    params: DimensionlessParams
    n_z: int = 32
    _depths: dict = field(init=False, repr=False)
    zeta_x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_count("n_z", self.n_z)
        grid, p = self.grid, self.params
        fields = self.__dict__  # frozen: set through the instance dict
        zeta = fields["zeta"] = _grid_field(grid, self.zeta, "zeta")
        fields["psi"] = _grid_field(grid, self.psi, "psi")
        fields["_depths"] = {+1: layer_depth(zeta, p.eps_plus, +1),
                             -1: layer_depth(zeta, p.eps_minus, -1)}
        fields["zeta_x"] = _read_only(deriv(grid, zeta))

    @_cached
    def _slope_terms(self) -> tuple:
        """(εμζₓ, 1 + ε²μζₓ²), the slope terms shared by the transmission
        solve, its tangent and the tendency."""
        p, zx = self.params, self.zeta_x
        return zx * (p.eps * p.mu), zx**2 * (p.eps**2 * p.mu) + 1.0

    @_cached
    def _layers(self) -> dict:
        """Both layers over one set of x-matrices, which each drops as it sweeps."""
        x = _XMatrices(self.grid, self.zeta, self.zeta_x)
        return {s: StripOperator(self.grid, self.zeta, *self.params.layer(s), s, self.n_z,
                                 _x=x, _depth=self._depths[s]) for s in (+1, -1)}

    @_cached
    def _g_tilde(self) -> _RangeSolver:
        """The gauged solve with 𝒢̃, one right-hand side per row."""
        return _RangeSolver(dense_g_tilde(self), "weighted DN sum")

    def layer(self, sign: int) -> StripOperator:
        """The fluid layer below (+1) or above (−1) the interface."""
        return self._layers[sign]

    def replace_fields(self, zeta, psi) -> "InterfaceState":
        return InterfaceState(grid=self.grid, zeta=zeta, psi=psi, params=self.params, n_z=self.n_z)


def _row(stack: str, row: int, what: str) -> property:
    """A read-only view of one row of a ± stack: 0 the lower layer, 1 the upper."""
    return property(lambda self: _read_only(getattr(self, stack)[row]),
                    doc=f"{what}, a read-only view of row {row} of ``{stack}``.")


@dataclass
class TraceBundle:
    """The interface fields of the transmission solve, or their rates along a
    tendency (:func:`transmission_tangent`).

    ``psi``, ``psi_x``, ``w`` and ``v`` are (2, N) stacks of ψ±, ∂xψ±, w± and
    V±, row 0 the lower layer (+) and row 1 the upper one (−); ``flux`` is
    the common flux 𝒢ψ = (1/H̄⁺)G⁺ψ⁺ = (1/H̄⁻)G⁻ψ⁻.  ``psi_plus`` …
    ``w_minus`` are read-only views of the rows.
    """

    psi: np.ndarray
    psi_x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    flux: np.ndarray

    psi_plus, psi_minus = _row("psi", 0, "ψ⁺"), _row("psi", 1, "ψ⁻")
    v_plus, v_minus = _row("v", 0, "V⁺"), _row("v", 1, "V⁻")
    w_plus, w_minus = _row("w", 0, "w⁺"), _row("w", 1, "w⁻")

    def jump_v(self) -> np.ndarray:
        """V⁺ − V⁻; NumericalError unless finite."""
        return _checked(np.subtract, self.v[0], self.v[1], "velocity jump")


def _gauged_ratio(num, den) -> np.ndarray:
    """num/den for a positive symbol den, 0 where den = 0: with den = s⁻ the
    symbol of −(G⁻)⁻¹G⁺, which the gauge sets to 0 on constants."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den > 0.0)


def _j_of(p: DimensionlessParams, sp, sm) -> np.ndarray:
    """Symbol ρ̄⁺ + ρ̄⁻(H̄⁻/H̄⁺)s⁺/s⁻ of J, ρ̄⁺ at ξ = 0 (J·1 = ρ̄⁺)."""
    return p.rhobar_plus + p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * _gauged_ratio(sp, sm)


def _g_tilde_of(p: DimensionlessParams, sp, sm) -> np.ndarray:
    """(ρ̄⁻/H̄⁺)s⁺ + (ρ̄⁺/H̄⁻)s⁻: the symbol of 𝒢̃ from the layer symbols, or
    its matrix from the DN matrices S±."""
    return sp * (p.rhobar_minus / p.hbar_plus) + sm * (p.rhobar_plus / p.hbar_minus)


# -- composed operators -----------------------------------------------------------


def apply_j(state: InterfaceState, u) -> np.ndarray:
    """Apply J = ρ̄⁺ − ρ̄⁻(H̄⁻/H̄⁺)(G⁻)⁻¹G⁺, the lower-trace coupling map;
    (G⁻)⁻¹ is the upper layer's Neumann interface solve."""
    p = state.params
    u = np.asarray(u, dtype=float)
    # the mean and Nyquist part of G⁺u are rounding, which is all of G⁺u
    # for constant u
    f = _deflate(dn_apply(state.layer(+1), u))
    tr = state.layer(-1).solve_neumann(f)
    return p.rhobar_plus * u - p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * tr


def _couple(state: InterfaceState, psi) -> tuple:
    """(ψ±, (1/H̄±)G±ψ±) of the transmission problem for ψ = ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻,
    the traces as one (2, N) stack, row 0 the lower layer.

    Flux continuity (1/H̄⁺)G⁺ψ⁺ = (1/H̄⁻)G⁻ψ⁻ with ρ̄⁺ψ⁺ = ψ + ρ̄⁻ψ⁻ reads
    𝒢̃ψ⁻ = −S⁺ψ/H̄⁺, which holds at ρ̄⁻ = 0 too; then the trace identity
    ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺ holds to rounding.
    """
    p = state.params
    traces = np.empty((2, state.grid.n))
    traces[1] = state._g_tilde(_dn_product(state.layer(+1).dn_matrix, psi, -p.hbar_plus))
    np.divide(traces[1] * p.rhobar_minus + psi, p.rhobar_plus, out=traces[0])
    return traces, _deflate(_dn_product(state.layer(-1).dn_matrix, traces[1], -p.hbar_minus))


def invert_j(state: InterfaceState, psi) -> np.ndarray:
    """Solve J ψ⁺ = ψ for the lower-layer trace ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺."""
    return _couple(state, np.asarray(psi, dtype=float))[0][0]


def transmission_solve(state: InterfaceState) -> TraceBundle:
    """Both layer traces, their slopes, the interface velocities and the
    common flux 𝒢ψ at (ζ, ψ), as one :class:`TraceBundle`.

    ψ± and the flux (1/H̄±)G±ψ± come from one gauged solve with 𝒢̃ and the
    trace identity ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺ (:func:`_couple`).  Then

        w± = ((1/H̄±) G±ψ± + εμ ζₓ ∂xψ±) / (1 + ε²μ ζₓ²),
        V± = ∂xψ± − ε w± ζₓ.
    """
    p = state.params
    psi, flux = _couple(state, state.psi)
    psi_x = deriv(state.grid, psi)
    emz, denom = state._slope_terms
    w = emz * psi_x
    w += flux
    w /= denom
    v = psi_x - w * p.eps * state.zeta_x
    return TraceBundle(psi=psi, psi_x=psi_x, w=w, v=v, flux=flux)


def transmission_tangent(state: InterfaceState, traces: TraceBundle, dzeta, dpsi) -> TraceBundle:
    """Derivative of :func:`transmission_solve` along (ζ̇, ψ̇) at the state
    whose own bundle is ``traces``, as the bundle of the rates.

    With 𝒢⁺ = S⁺/H̄⁺, 𝒢⁻ = −S⁻/H̄⁻ and the shape derivative of the DN maps
    (Lannes, *The Water Waves Problem*, AMS 2013, ch. 3)

        d𝒢±[ζ̇]ψ± = −ε𝒢±(ζ̇w±) − εμ∂x(ζ̇V±),

    flux continuity gives 𝒢̃ψ̇⁻ = ρ̄⁺(d𝒢⁻ψ⁻ − d𝒢⁺ψ⁺) − 𝒢⁺ψ̇, then
    ψ̇⁺ = (ψ̇ + ρ̄⁻ψ̇⁻)/ρ̄⁺, the flux rate ġ = 𝒢⁺ψ̇⁺ + d𝒢⁺ψ⁺ and the rates of
    ∂xψ±, w± and V±.  One solve with the cached factor of 𝒢̃ + Π and no
    sweep; on the discrete S the continuum formula is consistent to O(n_z⁻²).
    """
    p, grid = state.params, state.grid
    eps, mu = p.eps, p.mu
    s_plus, s_minus = state.layer(+1).dn_matrix, state.layer(-1).dn_matrix
    w, v = traces.w, traces.v
    zx = state.zeta_x
    dzeta_v, dzeta_w = _checked(np.multiply, dzeta, np.array([v, w]), "tangent products")
    d = deriv(grid, np.array([dzeta, *dzeta_v]))
    dzx = d[0]
    gp_hw, gp_dpsi = _dn_product(s_plus, np.array([dzeta_w[0], dpsi]), p.hbar_plus)
    gm_hw = _dn_product(s_minus, dzeta_w[1], -p.hbar_minus)
    shape = -eps * np.array([gp_hw, gm_hw]) - eps * mu * d[1:]
    dtraces = np.empty((2, grid.n))
    dtraces[1] = state._g_tilde(p.rhobar_plus * (shape[1] - shape[0]) - gp_dpsi)
    np.divide(dpsi + p.rhobar_minus * dtraces[1], p.rhobar_plus, out=dtraces[0])
    dg = _dn_product(s_plus, dtraces[0], p.hbar_plus) + shape[0]
    dpsi_x = deriv(grid, dtraces)
    num = dg + eps * mu * (dzx * traces.psi_x + zx * dpsi_x - 2.0 * eps * zx * dzx * w)
    dw = num / state._slope_terms[1]
    dv = dpsi_x - eps * (dw * zx + w * dzx)
    return TraceBundle(psi=dtraces, psi_x=dpsi_x, w=dw, v=dv, flux=dg)


def dense_g_tilde(state: InterfaceState) -> np.ndarray:
    """Dense symmetric matrix of 𝒢̃ = (ρ̄⁻/H̄⁺)S⁺ + (ρ̄⁺/H̄⁻)S⁻ on the grid.

    Its null space is two-dimensional (constants and the Nyquist column
    annihilated by the spectral derivative); :func:`pinv_g_tilde` inverts it
    on its range.
    """
    return _g_tilde_of(state.params, state.layer(+1).dn_matrix, state.layer(-1).dn_matrix)


def apply_g_tilde(state: InterfaceState, u) -> np.ndarray:
    """Weighted DN sum 𝒢̃ u = ρ̄⁻(1/H̄⁺)G⁺u − ρ̄⁺(1/H̄⁻)G⁻u (positive operator);
    NumericalError unless the product is finite."""
    return _dn_product(dense_g_tilde(state), u)


def invert_g_tilde(state: InterfaceState, f) -> np.ndarray:
    """Solve 𝒢̃ u = f; the result has zero mean and zero Nyquist content.

    f must lie in the range of 𝒢̃: zero mean and no Nyquist component, each
    up to rounding, 1e-8·‖f‖∞; other data raises IncompatibleDataError.
    """
    return state._g_tilde(_check_range(f, state.grid.n, "inverse of the weighted DN sum"))


def pinv_g_tilde(state: InterfaceState) -> np.ndarray:
    """Pseudo-inverse of the dense 𝒢̃ matrix on its range, (𝒢̃ + Π)⁻¹ − Π:
    the tests' dense oracle, and a target of the benchmark tracer."""
    return state._g_tilde(np.eye(state.grid.n))


def e_quadratic_form(state: InterfaceState, v) -> float:
    """Quadratic form (ℰ v, v) evaluated without the outer derivative;
    NumericalError unless v is finite."""
    g = deriv(state.grid, v)
    u = invert_g_tilde(state, g)
    return inner(state.grid, u, g)
