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

J⁻¹, 𝒢, 𝒢̃⁻¹ and the transmission solve each run one CG solve on the two
strips glued at the interface row, whose Schur complement on that row is
the discrete 𝒢̃ (:func:`_glued_solve`); at ρ̄⁻ = 0 the layers decouple.
Traces are gauged by zero mean and zero Nyquist content.  Sign conventions
are pinned by the positivity of the associated quadratic forms, which the
tests check.
"""

from __future__ import annotations

import math
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
    _deflate,
    _mode_tridiag,
    _pcg,
    build_trivial_diffeo,
    dn_apply,
    solve_neumann,
)

DEFAULT_TOL = 1e-10


@dataclass
class InterfaceState:
    """Interface elevation and reduced potential with their parameters."""

    grid: PeriodicGrid
    zeta: np.ndarray
    psi: np.ndarray
    params: DimensionlessParams
    n_z: int = 32
    _diffeos: dict = field(default_factory=dict, repr=False, compare=False)

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

    def mean_v(self) -> np.ndarray:
        return 0.5 * (self.v_plus + self.v_minus)


class Workspace:
    """Warm-start cache for repeated solves on slowly varying states: the
    last glued potential Φ."""

    def __init__(self):
        self.phi = None


# -- flat multipliers ------------------------------------------------------------


def j_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat coupling map J (value ρ̄⁺ at ξ = 0 by the gauge)."""
    k = np.abs(np.asarray(k, dtype=float))
    tp = np.tanh(math.sqrt(params.mu_plus) * k)
    tm = np.tanh(math.sqrt(params.mu_minus) * k)
    out = np.full_like(k, params.rhobar_plus)
    nz = k > 0.0
    out[nz] = params.rhobar_plus + params.rhobar_minus * tp[nz] / tm[nz]
    return out


def coupled_dn_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat coupled operator 𝒢:

    √μ|ξ| tanh(√μ⁺|ξ|) tanh(√μ⁻|ξ|) / (ρ̄⁺tanh(√μ⁻|ξ|) + ρ̄⁻tanh(√μ⁺|ξ|)).
    """
    k = np.abs(np.asarray(k, dtype=float))
    tp = np.tanh(math.sqrt(params.mu_plus) * k)
    tm = np.tanh(math.sqrt(params.mu_minus) * k)
    den = params.rhobar_plus * tm + params.rhobar_minus * tp
    out = np.zeros_like(k)
    nz = k > 0.0
    out[nz] = math.sqrt(params.mu) * k[nz] * tp[nz] * tm[nz] / den[nz]
    return out


def dn_mix_flat_symbol(params: DimensionlessParams, k) -> np.ndarray:
    """Multiplier of the flat weighted DN sum 𝒢̃:

    √μ|ξ|(ρ̄⁻tanh(√μ⁺|ξ|) + ρ̄⁺tanh(√μ⁻|ξ|)).
    """
    k = np.abs(np.asarray(k, dtype=float))
    tp = np.tanh(math.sqrt(params.mu_plus) * k)
    tm = np.tanh(math.sqrt(params.mu_minus) * k)
    return math.sqrt(params.mu) * k * (
        params.rhobar_minus * tp + params.rhobar_plus * tm
    )


# -- composed operators -----------------------------------------------------------


def apply_j(state: InterfaceState, u, tol=DEFAULT_TOL) -> np.ndarray:
    """Apply J = ρ̄⁺ − ρ̄⁻(H̄⁻/H̄⁺)(G⁻)⁻¹G⁺ (the lower-trace coupling map)."""
    p = state.params
    u = np.asarray(u, dtype=float)
    if p.rhobar_minus == 0.0:
        return p.rhobar_plus * u
    f = dn_apply(state.diffeo(+1), u, tol=tol)
    sol = solve_neumann(state.diffeo(-1), f, tol=tol)
    tr = sol.interface_trace(state.diffeo(-1))
    return p.rhobar_plus * u - p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * tr


def _glued_solve(state: InterfaceState, b, tol, maxiter=None, workspace=None) -> np.ndarray:
    """Solve K Φ = b on the two strips glued at the interface row (ρ̄⁻ > 0).

    K = (ρ̄⁻/H̄⁺)A⁺ ⊕ (ρ̄⁺/H̄⁻)A⁻ acts on 2n_z+1 rows: the lower strip on rows
    0..n_z, the upper one on rows n_z..2n_z, sharing the interface row n_z.
    Eliminating every other row leaves the discrete 𝒢̃ on the shared row.
    K's kernel (constants and the z-independent Nyquist column) is projected
    out of Φ; b must be orthogonal to it.  The preconditioner is the flat
    glued column, exact at ζ = 0.
    """
    p = state.params
    m = state.n_z
    lower = state.diffeo(+1).operator()
    upper = state.diffeo(-1).operator()
    w_lower = p.rhobar_minus / p.hbar_plus
    w_upper = p.rhobar_plus / p.hbar_minus

    def k_apply(phi):
        out = np.zeros_like(phi)
        out[: m + 1] = w_lower * lower.apply(phi[: m + 1])
        out[m:] += w_upper * upper.apply(phi[m:])
        return out

    if "glued" not in state._diffeos:
        state._diffeos["glued"] = _mode_tridiag(
            state.grid, m, [(w_lower, p.mu_plus), (w_upper, p.mu_minus)], shift0=True
        )
    x0 = workspace.phi if workspace is not None else None
    phi, _, _ = _pcg(
        k_apply, b, state._diffeos["glued"].precondition, tol, maxiter, x0, _deflate
    )
    if workspace is not None:
        workspace.phi = phi
    return phi


def _couple(state: InterfaceState, psi, tol, maxiter=None, workspace=None) -> tuple:
    """(ψ⁻, (1/H̄±)G±ψ±) of the transmission problem for ψ = ρ̄⁺ψ⁺ − ρ̄⁻ψ⁻.

    𝒢̃ψ⁻ = −(1/H̄⁺)G⁺ψ is the Schur reduction of the glued data −(1/H̄⁺)A⁺ψ
    (ψ on the interface row); the upper block of Φ then extends ψ⁻, and one
    apply of A⁻ reads off the flux.  At ρ̄⁻ = 0 the layers decouple: the flux
    of ψ/ρ̄⁺ by a Dirichlet solve, ψ⁻ = H̄⁻(G⁻)⁻¹ of it by a Neumann solve.
    """
    p = state.params
    m = state.n_z
    # the inverse layer operator amplifies low-mode solver noise by ~1/mu,
    # so shallow configurations need proportionally tighter solves
    tol = tol * min(1.0, p.mu / 0.1)
    if p.rhobar_minus == 0.0:
        flux = dn_apply(state.diffeo(+1), psi / p.rhobar_plus, tol=tol) / p.hbar_plus
        d = state.diffeo(-1)
        trace = solve_neumann(d, flux, tol=tol, maxiter=maxiter).interface_trace(d)
        return p.hbar_minus * _deflate(trace), flux
    trace = np.zeros((m + 1, state.grid.n))
    trace[m] = psi
    b = np.zeros((2 * m + 1, state.grid.n))
    b[: m + 1] = state.diffeo(+1).operator().apply(trace) / -p.hbar_plus
    phi = _glued_solve(state, b, tol, maxiter, workspace)
    flux = -state.diffeo(-1).operator().apply(phi[m:])[0] / p.hbar_minus
    return _deflate(phi[m]), _deflate(flux)


def invert_j(
    state: InterfaceState,
    psi,
    tol=1e-11,
    maxiter=200,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Solve J ψ⁺ = ψ for the lower-layer trace ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺."""
    p = state.params
    psi = np.asarray(psi, dtype=float)
    if p.rhobar_minus == 0.0:
        return psi / p.rhobar_plus
    psi_minus, _ = _couple(state, psi, tol, maxiter, workspace)
    return (psi + p.rhobar_minus * psi_minus) / p.rhobar_plus


def apply_g(state: InterfaceState, psi, tol=DEFAULT_TOL, workspace=None) -> np.ndarray:
    """Coupled interface DN operator 𝒢 = (1/H̄⁺) G⁺ ∘ J⁻¹ (zero-mean output)."""
    p = state.params
    psi = np.asarray(psi, dtype=float)
    if p.rhobar_minus == 0.0:
        return dn_apply(state.diffeo(+1), psi / p.rhobar_plus, tol=tol) / p.hbar_plus
    # the flux carries the glued residual at first order, and the symmetry
    # of 𝒢 is only as good as that: solve a decade below the requested tol
    return _couple(state, psi, 0.1 * tol, workspace=workspace)[1]


def transmission_solve(
    state: InterfaceState, tol=DEFAULT_TOL, workspace: Workspace | None = None
) -> TraceBundle:
    """Recover both layer traces and interface velocities from (ζ, ψ).

    ψ⁻ and the common flux (1/H̄±)G±ψ± come from one glued solve (a
    Dirichlet and a Neumann solve at ρ̄⁻ = 0), and ψ⁺ = (ψ + ρ̄⁻ψ⁻)/ρ̄⁺, so
    the trace identity holds to rounding.  Then

        w± = ((1/H̄±) G±ψ± + εμ ζₓ ∂xψ±) / (1 + ε²μ ζₓ²),
        V± = ∂xψ± − ε w± ζₓ.
    """
    p = state.params
    grid = state.grid
    psi_minus, g_over_h = _couple(state, state.psi, tol, workspace=workspace)
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


def apply_g_tilde(state: InterfaceState, u, tol=DEFAULT_TOL) -> np.ndarray:
    """Weighted DN sum 𝒢̃ u = ρ̄⁻(1/H̄⁺)G⁺u − ρ̄⁺(1/H̄⁻)G⁻u (positive operator)."""
    p = state.params
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    if p.rhobar_minus > 0.0:
        out += p.rhobar_minus / p.hbar_plus * dn_apply(state.diffeo(+1), u, tol=tol)
    out -= p.rhobar_plus / p.hbar_minus * dn_apply(state.diffeo(-1), u, tol=tol)
    return out


def invert_g_tilde(
    state: InterfaceState,
    f,
    tol=1e-9,
    maxiter=400,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Solve 𝒢̃ u = f; the result has zero mean and zero Nyquist content.

    f must lie in the range of 𝒢̃: zero mean and no Nyquist component.  The
    glued solve with f on the shared row; at ρ̄⁻ = 0, 𝒢̃ = −(ρ̄⁺/H̄⁻)G⁻ and
    the upper-layer Neumann solve inverts it.
    """
    f = np.asarray(f, dtype=float)
    off = float(np.max(np.abs(f - _deflate(f))))
    if off > 1e-8 * max(float(np.max(np.abs(f))), 1.0):
        raise IncompatibleDataError(
            "inverse of the weighted DN sum needs data with zero mean and no "
            f"Nyquist component; they reach {off:.3e}"
        )
    p = state.params
    if p.rhobar_minus == 0.0:
        d = state.diffeo(-1)
        g = -(p.hbar_minus / p.rhobar_plus) * _deflate(f)
        return _deflate(solve_neumann(d, g, tol=tol, maxiter=maxiter).interface_trace(d))
    m = state.n_z
    b = np.zeros((2 * m + 1, state.grid.n))
    b[m] = f
    return _deflate(_glued_solve(state, b, tol, maxiter, workspace)[m])


def dense_g_tilde(state: InterfaceState, tol=1e-10) -> np.ndarray:
    """Dense symmetric matrix of 𝒢̃ on the grid (column-by-column assembly).

    Cached on the state.  The matrix has a two-dimensional null space
    (constants and the Nyquist column annihilated by the spectral
    derivative); use :func:`pinv_g_tilde` to invert on its range.
    """
    key = "dense_mix"
    if key not in state._diffeos:
        n = state.grid.n
        cols = np.empty((n, n))
        eye = np.eye(n)
        for j in range(n):
            cols[:, j] = apply_g_tilde(state, eye[:, j], tol=tol)
        state._diffeos[key] = 0.5 * (cols + cols.T)
    return state._diffeos[key]


def pinv_g_tilde(state: InterfaceState, tol=1e-10, cutoff=1e-11) -> np.ndarray:
    """Pseudo-inverse of the dense 𝒢̃ matrix on its range (cached)."""
    key = "dense_mix_pinv"
    if key not in state._diffeos:
        mat = dense_g_tilde(state, tol=tol)
        vals, vecs = np.linalg.eigh(mat)
        scale = float(np.max(np.abs(vals))) or 1.0
        inv = np.where(np.abs(vals) > cutoff * scale, 1.0 / vals, 0.0)
        state._diffeos[key] = (vecs * inv) @ vecs.T
    return state._diffeos[key]


def apply_e(state: InterfaceState, v, tol=1e-9, workspace=None) -> np.ndarray:
    """Shear operator ℰ v = −∂x 𝒢̃⁻¹ ∂x v; (ℰv, v) = (𝒢̃⁻¹∂xv, ∂xv) ≥ 0."""
    g = deriv(state.grid, np.asarray(v, dtype=float))
    u = invert_g_tilde(state, g, tol=tol, workspace=workspace)
    return -deriv(state.grid, u)


def e_quadratic_form(state: InterfaceState, v, tol=1e-9) -> float:
    """Quadratic form (ℰ v, v) evaluated without the outer derivative."""
    g = deriv(state.grid, np.asarray(v, dtype=float))
    u = invert_g_tilde(state, g, tol=tol)
    return inner(state.grid, u, g)
