"""Symbols with a bottom tail for the layer DN operators, and their exact operators.

The flat-interface DN multiplier √μ±|ξ|tanh(√μ±|ξ|) keeps the smoothing
tanh factor coming from the bottom.  Its variable-coefficient generalization
(d = 1) uses the principal symbol g(x, ξ) = |ξ| together with a tail symbol

    t±(x, ξ) = (1 ± ε±ζ(x)) · arctan(ε√μ ∂xζ) / (ε√μ ∂xζ) · |ξ|,

equal to the depth-weighted vertical average of the slope-corrected symbol,
and sets

    S±(x, ξ) = √μ± g(x, ξ) tanh(√μ± t±(x, ξ))  (> 0 off ξ = 0).

Op(S⁺) approximates G⁺ (and −Op(S⁻) approximates G⁻) with an error of
relative size O(ε√μ), uniformly down to the shallow limit; dropping the tanh
tail leaves an O(1) relative error as μ → 0.  Ratios of these symbols give
zeroth-order descriptions of the composed operators (G⁻)⁻¹G⁺, (G⁻)⁻¹𝒢 and
𝒢̃⁻¹.  This module provides the evaluators (:class:`TailSymbolSet`) and, for
one state, each symbol next to the exact operator it describes
(:func:`symbol_comparisons`), for the caller's sweep to measure.  The
composed symbols are formed from S± by private helpers of
:mod:`twofluid.operators`.  At ζ = 0, where t± = |ξ|, S± is the flat DN
symbol √μ±|ξ|tanh(√μ±|ξ|) of one unit-depth layer, so a flat
:class:`TailSymbolSet` gives the flat multipliers of the layers and of the
composed operators; the package has no other source of them.

At ξ = 0 both S± vanish, and each composed symbol takes the value the gauged
discrete operator takes on constants, not its ξ → 0 limit: J·1 = ρ̄⁺, so the
J symbol is ρ̄⁺; (G⁻)⁻¹G⁺·1 = 0, so the ratio symbols are 0; 𝒢̃⁻¹ is gauged
to 0, so 𝔓²/S̃ is 0.  The comparisons gauge f and each ratio's symbol side
with the exact solves' gauge Π, the package's one projector off constants
and the Nyquist mode (:func:`~twofluid.spectral._deflate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import _g_tilde_of, _gauged_ratio, _j_of, invert_g_tilde, invert_j
from .params import DimensionlessParams
from .spectral import (PeriodicGrid, _deflate, _grid_field, _one_field, _p2, _read_only,
                       apply_multiplier, apply_symbol, deriv)
from .strip import dn_apply


def _arctan_ratio(y: np.ndarray) -> np.ndarray:
    """arctan(y)/y, 1 at y = 0, its removable singularity."""
    y = np.asarray(y, dtype=float)
    return np.divide(np.arctan(y), y, out=np.ones_like(y), where=y != 0)


@dataclass(frozen=True, eq=False)
class TailSymbolSet:
    """Evaluators for the tail symbols of one interface configuration, read-only.

    Off-grid x queries evaluate ζ and ∂xζ by periodic linear interpolation;
    on grid nodes the values are exact.
    """

    grid: PeriodicGrid
    zeta: np.ndarray
    params: DimensionlessParams
    zeta_x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "zeta", _grid_field(self.grid, self.zeta, "zeta"))
        object.__setattr__(self, "zeta_x", _read_only(deriv(self.grid, self.zeta)))

    def _at(self, x, values):
        return np.interp(np.asarray(x, dtype=float), self.grid.nodes, values,
                         period=self.grid.length)

    def t(self, x, xi, sign) -> np.ndarray:
        """Tail symbol t±(x, ξ) in its d = 1 closed form."""
        p = self.params
        eps_l, _ = p.layer(sign)
        zv = self._at(x, self.zeta)
        zxv = self._at(x, self.zeta_x)
        slope = p.eps * math.sqrt(p.mu) * zxv
        return (1.0 + sign * eps_l * zv) * _arctan_ratio(slope) * np.abs(xi)

    def s(self, x, xi, sign) -> np.ndarray:
        """Positive DN symbol S±(x, ξ) = √μ± |ξ| tanh(√μ± t±(x, ξ))."""
        _, mu_l = self.params.layer(sign)
        smu = math.sqrt(mu_l)
        return smu * np.abs(xi) * np.tanh(smu * self.t(x, xi, sign))

    def _s_pair(self, x, xi) -> tuple:
        return self.s(x, xi, +1), self.s(x, xi, -1)

    def dn_ratio_symbol(self, x, xi) -> np.ndarray:
        """Symbol of (G⁻)⁻¹G⁺, i.e. −S⁺/S⁻ with the sign of G⁻ restored."""
        return -_gauged_ratio(*self._s_pair(x, xi))

    def j_symbol(self, x, xi) -> np.ndarray:
        """Zeroth-order symbol of the coupling map J."""
        return _j_of(self.params, *self._s_pair(x, xi))

    def mix_symbol(self, x, xi) -> np.ndarray:
        """Symbol of the weighted DN sum 𝒢̃ (positive off ξ = 0)."""
        return _g_tilde_of(self.params, *self._s_pair(x, xi))

    def coupled_ratio_symbol(self, x, xi) -> np.ndarray:
        """Symbol of (G⁻)⁻¹𝒢, i.e. (1/H̄⁺)·(−S⁺/S⁻)/S_J."""
        return self.dn_ratio_symbol(x, xi) / (self.params.hbar_plus * self.j_symbol(x, xi))

    def p2_over_mix_symbol(self, x, xi) -> np.ndarray:
        """Symbol 𝔓²/S̃ describing 𝔓² ∘ 𝒢̃⁻¹."""
        return _gauged_ratio(_p2(xi, self.params.mu), self.mix_symbol(x, xi))


def symbol_comparisons(state, f) -> dict:
    """Each exact operator of a state and its symbol on the gauged f − fΠ,
    as (exact, symbol) pairs: ``"dn"`` G⁺f and Op(S⁺)f; ``"dn_tailless"``
    G⁺f and Op(√μ⁺|ξ|)f; ``"dn_ratio"`` (G⁻)⁻¹G⁺f and Op(−S⁺/S⁻)f;
    ``"coupled_ratio"`` (G⁻)⁻¹𝒢f and (1/H̄⁺)Op(−S⁺/(S⁻S_J))f; ``"p2_mix"``
    𝔓²𝒢̃⁻¹∂xf and Op(𝔓²/S̃)∂xf.  The exact sides use the state's cached DN
    matrices S± and factor of 𝒢̃; the ratio pairs' symbol sides are gauged
    with Π like the exact solves.  The caller measures the pairs, e.g. with
    :func:`~twofluid.spectral.norm_sobolev` or
    :func:`~twofluid.spectral.norm_hdot_mu`.
    """
    p, grid = state.params, state.grid
    f = _deflate(_one_field(f, grid.n))
    df = deriv(grid, f)
    ts = TailSymbolSet(grid, state.zeta, p)
    upper_solve = state.layer(-1).solve_neumann
    g_plus = dn_apply(state.layer(+1), f)
    smu = math.sqrt(p.mu_plus)
    return {
        "dn": (g_plus, apply_symbol(grid, lambda x, k: ts.s(x, k, +1), f)),
        "dn_tailless": (g_plus, apply_multiplier(grid, lambda k: smu * np.abs(k), f)),
        "dn_ratio": (upper_solve(g_plus), _deflate(apply_symbol(grid, ts.dn_ratio_symbol, f))),
        "coupled_ratio": (
            upper_solve(dn_apply(state.layer(+1), invert_j(state, f))) / p.hbar_plus,
            _deflate(apply_symbol(grid, ts.coupled_ratio_symbol, f))),
        "p2_mix": (
            apply_multiplier(grid, lambda k: _p2(k, p.mu), invert_g_tilde(state, df)),
            _deflate(apply_symbol(grid, ts.p2_over_mix_symbol, df))),
    }
