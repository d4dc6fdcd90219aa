"""Symbols with a bottom tail for the layer DN operators, and error harnesses.

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
𝒢̃⁻¹; this module provides the evaluators and the numerical harnesses that
measure the corresponding error scalings against the exact elliptic solves.
The composed symbols are formed from S± by the same private helpers of
:mod:`twofluid.operators` as the flat multipliers, so at ζ = 0 they are
those multipliers.

At ξ = 0 both S± vanish, and each composed symbol takes the value the gauged
discrete operator takes on constants, not its ξ → 0 limit: J·1 = ρ̄⁺, so the
J symbol is ρ̄⁺; (G⁻)⁻¹G⁺·1 = 0, so the ratio symbols are 0; 𝒢̃⁻¹ is gauged
to 0, so 𝔓²/S̃ is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TwoFluidError
from .operators import _g_tilde_of, _gauged_ratio, _j_of, invert_g_tilde, invert_j
from .params import DimensionlessParams, config_from_dimensionless, derive_params
from .spectral import (
    PeriodicGrid,
    _p2,
    _read_only,
    apply_multiplier,
    apply_symbol,
    deriv,
    norm_hdot_mu,
    norm_sobolev,
)
from .strip import StripOperator, _grid_field, dn_apply

_SMALL_SLOPE = 1e-6


def _arctan_ratio(y: np.ndarray) -> np.ndarray:
    """arctan(y)/y with the removable singularity expanded below |y| ~ 1e-6."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < _SMALL_SLOPE
    safe = np.where(small, 1.0, y)
    out = np.arctan(safe) / safe
    return np.where(small, 1.0 - y**2 / 3.0 + y**4 / 5.0, out)


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

    def t_quadrature(self, x, xi, sign) -> np.ndarray:
        """Tail symbol by the vertical-average quadrature definition.

        Independent of the closed form: 96-point Gauss-Legendre integration
        of |ξ| / (1 + ε²μ(1+z)²(∂xζ)²) over z ∈ [−1, 0].
        """
        p = self.params
        eps_l, _ = p.layer(sign)
        zv = self._at(x, self.zeta)
        zxv = self._at(x, self.zeta_x)
        nodes, weights = np.polynomial.legendre.leggauss(96)
        z = 0.5 * (nodes - 1.0)  # map [-1,1] -> [-1,0]
        w = 0.5 * weights
        a2 = p.eps**2 * p.mu * zxv**2
        integ = np.zeros_like(np.asarray(zv, dtype=float))
        for zj, wj in zip(z, w):
            integ = integ + wj / (1.0 + a2 * (1.0 + zj) ** 2)
        return (1.0 + sign * eps_l * zv) * integ * np.abs(xi)

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
        sp, sm = self._s_pair(x, xi)
        return -_gauged_ratio(sp, sm) / (self.params.hbar_plus * _j_of(self.params, sp, sm))

    def p2_over_mix_symbol(self, x, xi) -> np.ndarray:
        """Symbol 𝔓²/S̃ describing 𝔓² ∘ 𝒢̃⁻¹."""
        return _gauged_ratio(_p2(xi, self.params.mu), self.mix_symbol(x, xi))


@dataclass
class TailReport:
    """Sweep table of symbol-vs-elliptic DN errors and fitted exponents."""

    rows: list

    def fit_eps_exponent(self, mu: float) -> float:
        """Slope of log err_hs_half against log ε over the ε > 0 rows at μ."""
        pts = [(r["eps"], r["err_hs_half"]) for r in self.rows
               if r["mu"] == mu and r["eps"] > 0.0 and r["err_hs_half"] > 0.0]
        if len(pts) < 2:
            raise ValueError("need at least two eps > 0 rows at this mu")
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])


def tail_error_report(
    grid: PeriodicGrid,
    zeta_shape: np.ndarray,
    psi: np.ndarray,
    sweep,
    n_z: int = 256,
) -> TailReport:
    """Measure ‖G⁺ψ − Op(S⁺)ψ‖ over an (ε, μ) sweep.

    The configuration has ρ̄⁻ = 0.4 and equal layer depths; errors are
    measured in L² (``err_hs``) and H^{1/2} (``err_hs_half``).  For each
    sweep entry the exact operator is the elliptic strip solve and the
    approximation is the quantized tail symbol; the table also carries
    the tail-less comparison Op(√μ⁺|ξ|), whose error does not vanish
    relative to ‖G⁺ψ‖ as μ → 0.  An entry the package rejects (a
    :class:`TwoFluidError`, e.g. a layer that pinches off) flags its row and
    the sweep continues; any other exception propagates.
    """
    zeta_shape = np.asarray(zeta_shape, dtype=float)
    psi = np.asarray(psi, dtype=float) - float(np.mean(psi))
    rows = []
    for eps, mu in sweep:
        row = {"eps": float(eps), "mu": float(mu), "failed": False}
        try:
            cfg = config_from_dimensionless(
                eps=max(eps, 0.0), mu=mu, rhobar_minus=0.4,
            )
            p = derive_params(cfg)
            layer = StripOperator(grid, zeta_shape, p.eps_plus, p.mu_plus, +1, n_z=n_z)
            exact = dn_apply(layer, psi)
            ts = TailSymbolSet(grid, zeta_shape, p)
            approx = apply_symbol(grid, lambda x, k: ts.s(x, k, +1), psi)
            diff = exact - approx
            smu_p = math.sqrt(p.mu_plus)
            tailless = apply_multiplier(grid, lambda k: smu_p * np.abs(k), psi)
            norm_exact = norm_sobolev(grid, exact, 0.0)
            row.update(
                err_hs=norm_sobolev(grid, diff, 0.0),
                err_hs_half=norm_sobolev(grid, diff, 0.5),
                norm_psi=norm_hdot_mu(grid, psi, 0.0, p.mu),
                err_tailless=norm_sobolev(grid, exact - tailless, 0.0),
                norm_exact=norm_exact,
            )
            row["ratio"] = row["err_hs"] / row["norm_psi"] if row["norm_psi"] else 0.0
            row["tailless_ratio"] = (
                row["err_tailless"] / norm_exact if norm_exact else 0.0
            )
        except TwoFluidError as exc:  # flagged, sweep continues
            row["failed"] = True
            row["error"] = str(exc)
        rows.append(row)
    return TailReport(rows=rows)


def ratio_symbol_error(state, f, which: str) -> dict:
    """Discrepancy between a composed exact operator and its single symbol.

    Choices for ``which``:
      * ``"dn_ratio"``   : (G⁻)⁻¹G⁺ vs Op(−S⁺/S⁻)
      * ``"coupled_ratio"``: (G⁻)⁻¹𝒢 vs (1/H̄⁺)Op(−S⁺/(S⁻ S_J))
      * ``"p2_mix"``     : 𝔓²𝒢̃⁻¹∂x vs Op(𝔓²/S̃)∂x

    Returns the measured discrepancy in the shallowness-adapted 1/2 norm
    together with the predicted small factors ε·μ^{−k/4}·|f|, k = 0, 1.
    """
    p = state.params
    grid = state.grid
    f = np.asarray(f, dtype=float) - float(np.mean(f))
    ts = TailSymbolSet(grid, state.zeta, p)
    if which == "dn_ratio":
        exact = state.layer(-1).solve_neumann(dn_apply(state.layer(+1), f))
        approx = apply_symbol(grid, ts.dn_ratio_symbol, f)
    elif which == "coupled_ratio":
        pp = invert_j(state, f)
        g = dn_apply(state.layer(+1), pp)
        exact = state.layer(-1).solve_neumann(g) / p.hbar_plus
        approx = apply_symbol(grid, ts.coupled_ratio_symbol, f)
    elif which == "p2_mix":
        df = deriv(grid, f)
        u = invert_g_tilde(state, df)
        exact = apply_multiplier(grid, lambda k: _p2(k, p.mu), u)
        approx = apply_symbol(grid, ts.p2_over_mix_symbol, df)
    else:
        raise ValueError(f"unknown comparison {which!r}")
    approx = approx - float(np.mean(approx))
    exact = exact - float(np.mean(exact))
    diff = exact - approx
    out = {
        "which": which,
        "discrepancy": norm_hdot_mu(grid, diff, 0.0, p.mu),
        "norm_exact": norm_hdot_mu(grid, exact, 0.0, p.mu),
    }
    for k in (0, 1):
        out[f"predicted_k{k}"] = (
            p.eps * p.mu ** (-k / 4.0) * norm_sobolev(grid, f, -k / 2.0)
        )
    return out
