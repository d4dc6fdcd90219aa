"""Shear-stability criteria for two-layer interfacial waves.

The criteria compare the vertical pressure-derivative jump at the interface
(the two-layer generalization of the bottom-pressure positivity condition)
against the destabilizing inertia of the tangential velocity jump, with
surface tension controlling the high frequencies.  In dimensionless form

    (SC)   Υ 𝔠(ζ) max_{|α|≤1} |∂^α⟦V⟧|∞⁴ < inf 𝔞,
    (SC')  Υ 𝔠(ζ) |⟦V⟧|∞⁴          < inf 𝔞,
    (SCs)  ε^{-2γ} Υ 𝔠(ζ) max_{|α|≤1} |∂^α⟦V⟧|∞⁴ < inf 𝔞   (0 ≤ γ ≤ 1),

where 𝔞 = 1 + ε⟦ρ̄±(∂t + εV±∂x)w±⟧ and ⟦V⟧ = V⁺ − V⁻.  The time
derivatives of w± and ⟦V⟧ are functions of the state (ζ, ψ): the tangent of
the transmission map along the state's own tendency, from the shape
derivative of the DN maps (:func:`stability_inputs`).  So each snapshot is
evaluated by itself, independent of the output cadence:
:func:`monitor_criterion` evaluates the snapshots of a run.  On the discrete DN
matrices that continuum formula is consistent to O(n_z⁻²), the order of the
vertical differences.  The geometric constant uses the sharp operator bound
𝔢(ζ) of the shear quadratic form,

    𝔠(ζ) = 𝔢(ζ)² (1 + ε²μ|∂xζ|∞²)^{3/2}.

On the grid 𝔢(ζ) is the top eigenvalue of the dense symmetric N×N matrix
of μ(1+√μ|D|)^{-1/2} ℰ (1+√μ|D|)^{-1/2}, found by LAPACK with no iteration
and no tolerance, from the Cholesky factor of 𝒢̃ + Π that the state holds
for its transmission solve (:func:`e_coeff`).  A flat interface takes the
same matrix path as any other state.  Its discrete ℰ is a Fourier
multiplier that vanishes on the Nyquist mode, so 𝔢(0) on the grid is the
maximum over 0 < |ξ| < ξ_max of the flat quotient

    x / ((1+x)(ρ̄⁻tanh(H̄⁺x) + ρ̄⁺tanh(H̄⁻x))),   x = √μ|ξ|,

with the tanh terms read from the discrete DN symbols, which match them to
O(n_z⁻²); test_e_coeff_flat_closed_form pins that maximum.  The quotient
tends to 1 as ξ → ∞.  Its supremum over the whole line is not computed.

The margins 𝔡 = inf 𝔞 − Υ𝔠·max⁴ and 𝔡' (with the plain sup) quantify by
how much a configuration clears the criteria.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgemm, dsyevr
from .errors import IncompatibleDataError, InvalidConfigError, NumericalError
from .evolution import TimeSeries, tendency
from .operators import InterfaceState, TraceBundle, e_quadratic_form
from .operators import transmission_tangent
# imported for the benchmark tracer, which wraps it under this module's name
from .operators import invert_g_tilde
from .params import DimensionlessParams, _check_real, _pow, practical_verdict
from .spectral import (PeriodicGrid, _finite, _gauge_constants, _one_field, _read_only,
                       apply_multiplier, deriv, inner)


@functools.lru_cache(maxsize=16)
def _shear_multiplier_t(grid: PeriodicGrid, mu: float) -> np.ndarray:
    """Read-only Mᵀ, M = D B^{-1/2} the matrix of the odd multiplier
    iξ/√(1+√μ|ξ|): the multiplier acts on each row of the identity."""
    m_t = apply_multiplier(grid, lambda k: 1j * k / np.sqrt(1.0 + math.sqrt(mu) * np.abs(k)),
                           np.eye(grid.n))
    return _read_only(m_t)


def e_coeff(state: InterfaceState) -> float:
    """Sharp constant 𝔢(ζ) of the shear quadratic form on the grid.

    𝔢(ζ) = sup_V μ(𝒢̃⁻¹∂xV, ∂xV)/|(1+√μ|D|)^{1/2}V|².  With M the matrix
    of the odd multiplier iξ/√(1+√μ|ξ|) and 𝒢̃⁺ the pseudo-inverse of the
    dense 𝒢̃, 𝔢 is the top eigenvalue of the symmetric N×N matrix μMᵀ𝒢̃⁺M.
    M's columns lie in the range of 𝒢̃, so it is μXXᵀ, X = MᵀL⁻ᵀ with L the
    state's Cholesky factor of 𝒢̃ + Π.  LAPACK's dsyevr finds the top
    eigenvalue with no tolerance; a failure raises :class:`NumericalError`.

    𝔢 holds to 1e-6 only while √μ±·ξ_max ≤ n_z²/2 in both layers, with
    μ± = μH̄±² and ξ_max = N/2 − 1: past that the vertical differences miss
    the boundary layer of width 1/(√μ±ξ_max) under the interface.  On a flat
    interface 𝔢 leaves the flat quotient by 1e-6 from √μ±·ξ_max ≈
    0.55–0.6·n_z² (measured for n_z = 8–64, N = 32–128 and depth ratios
    1/3–3; μ ≈ 335 at n_z = 32, N = 64, H̄± = 1).  Further out it rises above
    the quotient's supremum 1 (1.1528 at μ = 1e4), and nothing warns.
    """
    m_t = _shear_multiplier_t(state.grid, state.params.mu)
    # builds the factor and checks its true residual on one row of Mᵀ
    state._g_tilde(m_t[0])
    x = state._g_tilde.whiten(m_t)
    # μXXᵀ: (b, beta, c, trans_a, trans_b) positional
    c = dgemm(state.params.mu, x, x, 0.0, None, 0, 1)
    # (compute_v, range, lower, vl, vu, il, iu) positional; il, iu count from 1
    top, _, _, _, info = dsyevr(c, 0, "I", 1, 0.0, 0.0, len(c), len(c))
    if info != 0:
        raise NumericalError(f"top eigenvalue of the shear form failed (LAPACK info {info})")
    return float(top[0])


def a_field(
    grid: PeriodicGrid,
    params: DimensionlessParams,
    traces: TraceBundle,
    rates: TraceBundle,
) -> np.ndarray:
    """Pressure-jump coefficient 𝔞 = 1 + ε⟦ρ̄±(∂t + εV±∂x)w±⟧.

    ``rates`` holds the time derivative of each field of ``traces``, as
    :func:`~twofluid.operators.transmission_tangent` returns it; the ± terms
    are formed on their (2, N) stacks.
    """
    p = params
    material = rates.w + p.eps * traces.v * deriv(grid, traces.w)
    return 1.0 + p.eps * (p.rhobar_plus * material[0] - p.rhobar_minus * material[1])


@dataclass
class StabilityInputs:
    """Everything the criteria need about one instant of a configuration."""

    state: InterfaceState
    jump_v: np.ndarray
    djump_v_x: np.ndarray
    djump_v_t: np.ndarray
    a_values: np.ndarray


def stability_inputs(state: InterfaceState, traces: TraceBundle) -> StabilityInputs:
    """Criterion inputs of one snapshot, from its state and its own traces:
    ⟦V⟧, its x- and t-derivatives and the pressure-jump coefficient 𝔞.

    ∂t is the derivative along the state's tendency with no dealiasing
    (:func:`~twofluid.evolution.tendency`): the criterion is a property of
    the state, not of the 2/3-rule projection that
    :func:`~twofluid.evolution.rhs` applies.  The rates are the tangent of
    the transmission map, which reuses the state's DN matrices and 𝒢̃
    factor (:func:`~twofluid.operators.transmission_tangent`), as a bundle
    whose stacks of ẇ± and V̇± give 𝔞 and ∂t⟦V⟧.
    """
    grid = state.grid
    rates = transmission_tangent(state, traces, *tendency(state, traces))
    jump = traces.jump_v()
    return StabilityInputs(
        state=state, jump_v=jump, djump_v_x=deriv(grid, jump),
        djump_v_t=rates.jump_v(), a_values=a_field(grid, state.params, traces, rates),
    )


@dataclass
class StabilityReport:
    """Criterion evaluation with margins and the dimensional restatement."""

    upsilon: float
    c_coeff: float
    e_coeff: float
    inf_a: float
    jump_sup: float
    jump_sup_d1: float
    sc: bool
    sc_alt: bool
    sc_strong: bool
    margin_d: float
    margin_d_alt: float
    verdict: str
    gamma: float = 0.0
    dim_lhs: float = float("nan")
    dim_rhs: float = float("nan")
    dim_verdict: bool = False
    practical: str = ""
    # e_coeff either returns the converged top eigenvalue or raises
    e_converged: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _check_scalars(inf_a: float, **non_negative) -> None:
    """InvalidConfigError unless inf 𝔞 is finite and the others finite and >= 0."""
    _check_real("inf_a", inf_a)
    for name, value in non_negative.items():
        _check_real(name, value, 0.0)


def criteria_from_scalars(
    params: DimensionlessParams,
    e_value: float,
    grad_zeta_sup: float,
    inf_a: float,
    jump_sup: float,
    jump_sup_d1: float,
    gamma: float = 0.0,
) -> StabilityReport:
    """Evaluate all criteria from precomputed scalar ingredients.

    The dimensional restatement compares the pressure-derivative jump
    (ρ⁺+ρ⁻)g'·inf𝔞 against (1/4)(ρ⁺ρ⁻)²/(σ(ρ⁺+ρ⁻)²)·𝔠·|ω|⁴ with the
    physical velocity jump ω = ε√(g'H)·⟦V⟧; the two verdicts agree by
    construction and exercising both paths guards the scalings.  The
    strong variant (SCs) takes γ ∈ [0, 1].  Every scalar must be finite, and
    all but inf 𝔞 >= 0; other values raise :class:`InvalidConfigError`.  A
    derived quantity past the largest float raises :class:`NumericalError`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidConfigError(f"gamma must lie in [0, 1], got {gamma}")
    _check_scalars(inf_a, e_value=e_value, grad_zeta_sup=grad_zeta_sup, jump_sup=jump_sup,
                   jump_sup_d1=jump_sup_d1)
    p = params
    curvature = _pow(1.0 + p.eps**2 * p.mu * _pow(grad_zeta_sup, 2), 1.5)
    c_sq = _pow(e_value, 2) * curvature
    ups = p.upsilon
    if p.rhobar_minus == 0.0:
        rhs_sc = rhs_alt = rhs_strong = 0.0
    else:
        if math.isinf(ups):
            raise InvalidConfigError(
                "criteria need sigma > 0 (finite upsilon); the zero-surface-tension "
                "two-fluid problem has no stable regime to report"
            )
        rhs_sc = ups * c_sq * _pow(jump_sup_d1, 4)
        rhs_alt = ups * c_sq * _pow(jump_sup, 4)
        rhs_strong = _pow(p.eps, -2.0 * gamma) * rhs_sc if p.eps > 0 else rhs_sc
    sc = rhs_sc < inf_a
    sc_alt = rhs_alt < inf_a
    sc_strong = rhs_strong < inf_a
    # dimensional restatement (per the identity RHS/LHS = Υ𝔠⟦V⟧⁴/inf𝔞)
    dim_lhs = p.rho_total * p.g_reduced * inf_a
    if p.rhobar_minus > 0.0 and p.sigma > 0.0:
        rho_p = p.rhobar_plus * p.rho_total
        rho_m = p.rhobar_minus * p.rho_total
        omega_sup = p.eps * p.wave_speed * jump_sup
        dim_rhs = (
            0.25
            * (rho_p * rho_m) ** 2
            / (p.sigma * p.rho_total**2)
            * c_sq
            * _pow(omega_sup, 4)
        )
        _finite(dim_rhs, "the dimensional shear term")
        dim_verdict = dim_lhs > dim_rhs
    else:
        dim_rhs = 0.0 if p.rhobar_minus == 0.0 else float("nan")
        dim_verdict = dim_lhs > dim_rhs if not math.isnan(dim_lhs + dim_rhs) else sc_alt
    _finite((c_sq, rhs_strong, inf_a - rhs_sc, inf_a - rhs_alt, dim_lhs), "the criteria")
    verdict = "stable" if sc else "unstable"
    return StabilityReport(
        upsilon=ups,
        c_coeff=c_sq,
        e_coeff=e_value,
        inf_a=inf_a,
        jump_sup=jump_sup,
        jump_sup_d1=jump_sup_d1,
        sc=sc,
        sc_alt=sc_alt,
        sc_strong=sc_strong,
        margin_d=inf_a - rhs_sc,
        margin_d_alt=inf_a - rhs_alt,
        verdict=verdict,
        gamma=gamma,
        dim_lhs=dim_lhs,
        dim_rhs=dim_rhs,
        dim_verdict=dim_verdict,
        practical=practical_verdict(ups).value,
    )


def evaluate_criteria(inputs: StabilityInputs) -> StabilityReport:
    """Evaluate (SC), (SC'), the strong variant at γ = 0 and the dimensional
    check; :func:`criteria_from_scalars` takes another γ."""
    state = inputs.state
    jump_sup = float(np.max(np.abs(inputs.jump_v)))
    jump_sup_d1 = max(jump_sup, float(np.max(np.abs(inputs.djump_v_x))),
                      float(np.max(np.abs(inputs.djump_v_t))))
    e_value = e_coeff(state)
    zx_sup = float(np.max(np.abs(state.zeta_x)))
    inf_a = float(np.min(inputs.a_values))
    return criteria_from_scalars(
        state.params,
        e_value=e_value,
        grad_zeta_sup=zx_sup,
        inf_a=inf_a,
        jump_sup=jump_sup,
        jump_sup_d1=jump_sup_d1,
    )


def monitor_criterion(series: TimeSeries) -> list:
    """Evaluate the stability criteria at every recorded snapshot of a run
    (:func:`~twofluid.evolution.run`).

    Each snapshot is evaluated by itself, from its state and its recorded
    trace bundle (:func:`stability_inputs`), so neither the number of
    snapshots nor their cadence enters.  Returns (time, report) pairs
    aligned with the snapshot times.
    """
    return [
        (t, evaluate_criteria(stability_inputs(state, traces)))
        for t, state, traces in zip(series.times, series.states, series.traces)
    ]


def ins_form(u, inputs: StabilityInputs) -> float:
    """Quadratic form of the instability operator,

    (Ins u, u) = (𝔞u, u) − ε²μρ̄⁺ρ̄⁻(ℰ(u⟦V⟧), u⟦V⟧) + (1/Bo)(𝒦 ∂xu, ∂xu),

    with the d = 1 curvature weight 𝒦 = (1 + ε²μ ζₓ²)^{−3/2}.  Positive
    definiteness of this form is what the criteria certify.

    u must be finite (NumericalError) and have no Nyquist part above
    1e-8·‖u‖∞ (IncompatibleDataError): ∂x zeroes that mode, so the capillary
    term cannot bound what the shear term sees.
    """
    state = inputs.state
    p = state.params
    grid = state.grid
    u = _finite(_one_field(u, grid.n), "ins_form argument")
    # u over its sup, so that the Nyquist product cannot overflow
    sup = np.max(np.abs(u))
    if sup > 0.0 and abs((u / sup) @ _gauge_constants(grid.n)[0]) > 1e-8 * grid.n:
        raise IncompatibleDataError("ins_form needs u without a Nyquist component")
    a_term = inner(grid, inputs.a_values * u, u)
    shear = (
        p.eps**2
        * p.mu
        * p.rhobar_plus
        * p.rhobar_minus
        * e_quadratic_form(state, u * inputs.jump_v)
    )
    du = deriv(grid, u)
    return a_term - shear + inner(grid, state._slope_terms[1] ** -1.5 * du, du) / p.bond


@dataclass(frozen=True)
class MarginResult:
    value: float
    xi_argmin: float
    unbounded: bool


def modewise_margin(
    params: DimensionlessParams,
    inf_a: float,
    jump_sup: float,
    e_value: float,
    grad_zeta_sup: float = 0.0,
) -> MarginResult:
    """Minimize the per-mode margin A(ξ)/(1 + ξ²/Bo) over frequencies ξ ≥ 0.

    A(ξ) = inf𝔞 − √μ·a·|ξ| + (1/Bo)ξ²/(1+ε²μ|∂xζ|∞²)^{3/2} with
    a = ε²ρ̄⁺ρ̄⁻𝔢|⟦V⟧|∞².  Written as (a₀ − bξ + cξ²)/(1 + dξ²), the margin
    has a derivative of the sign of bdξ² + 2(c − a₀d)ξ − b.  For b > 0 that
    quadratic has exactly one positive root, the minimiser; for b = 0 the
    minimum is min(a₀, c/d), at ξ = 0 or in the limit ξ → ∞.  Under (SC)
    the minimum stays above 𝔡/2 (for inf𝔞 ≤ 1 + 𝔡/2); without surface
    tension the margin is unbounded below whenever a > 0.  The scalars, and
    what they overflow, are checked as in :func:`criteria_from_scalars`.
    """
    _check_scalars(inf_a, e_value=e_value, grad_zeta_sup=grad_zeta_sup, jump_sup=jump_sup)
    p = params
    a_coeff = p.eps**2 * p.rhobar_plus * p.rhobar_minus * e_value * _pow(jump_sup, 2)
    curvature = _pow(1.0 + p.eps**2 * p.mu * _pow(grad_zeta_sup, 2), 1.5)
    _finite((a_coeff, curvature), "the margin's coefficients")
    if math.isinf(p.bond):
        if a_coeff > 0.0:
            return MarginResult(value=-math.inf, xi_argmin=math.inf, unbounded=True)
        return MarginResult(value=inf_a, xi_argmin=0.0, unbounded=False)
    b = math.sqrt(p.mu) * a_coeff
    d = 1.0 / p.bond
    c = d / curvature
    if b == 0.0:
        if inf_a <= 1.0 / curvature:
            return MarginResult(value=inf_a, xi_argmin=0.0, unbounded=False)
        return MarginResult(value=1.0 / curvature, xi_argmin=math.inf, unbounded=False)
    # the positive root, in the form without cancellation for either sign of q
    q = c - inf_a * d
    root = math.sqrt(q * q + b * b * d)
    xi = b / (q + root) if q >= 0.0 else (root - q) / (b * d)
    xi_sq = _pow(xi, 2)
    value = (inf_a - b * xi + c * xi_sq) / (1.0 + d * xi_sq)
    _finite(value, "the margin")
    return MarginResult(value=value, xi_argmin=xi, unbounded=False)
