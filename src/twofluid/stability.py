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
for its transmission solve (:func:`e_coeff`).  In the continuum a flat
interface reduces 𝔢 to the mode-wise supremum (:func:`c_flat`)

    𝔢(0) = sup_{x≥0} x / ((1+x)(ρ̄⁻tanh(H̄⁺x) + ρ̄⁺tanh(H̄⁻x))).

On the grid ζ = 0 takes the same matrix path as any other state: the
discrete ℰ vanishes on the Nyquist mode, so the grid's 𝔢 maximises over
0 < |ξ| < ξ_max only, and at coarse n_z its discrete 𝒢̃ can put it above
:func:`c_flat`.

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
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dsyevr

from .errors import IncompatibleDataError, InvalidConfigError, NumericalError
from .evolution import TimeSeries, tendency
from .operators import InterfaceState, TraceBundle, e_quadratic_form
from .operators import transmission_tangent
# imported for the benchmark tracer, which wraps it under this module's name
from .operators import invert_g_tilde
from .params import DimensionlessParams, _check_real, practical_verdict
from .spectral import (PeriodicGrid, _finite, _gauge_constants, _read_only, apply_multiplier,
                       deriv, inner)
from .strip import flat_symbol


@dataclass(frozen=True)
class FlatConstant:
    """Result of the flat-interface mode-wise supremum."""

    value: float
    x_argmax: float
    at_infinity: bool


def _flat_quotient(x, rbp, rbm, hbp, hbm):
    # x² over (1 + x) times the flat 𝒢̃ at √μ|ξ| = x, from the layer symbols
    mix = (rbm / hbp) * flat_symbol(hbp**2, x) + (rbp / hbm) * flat_symbol(hbm**2, x)
    return x**2 / ((1.0 + x) * mix)


def c_flat(
    rhobar_plus: float,
    rhobar_minus: float,
    hbar_plus: float,
    hbar_minus: float,
) -> FlatConstant:
    """Flat-interface constant sup_x x/((1+x)(ρ̄⁻tanh(H̄⁺x)+ρ̄⁺tanh(H̄⁻x))).

    Log-spaced scan over x ∈ [1e-4, 1e4] with golden-section refinement.
    The x → ∞ limit equals 1 and the x → 0 limit equals
    1/(ρ̄⁻H̄⁺ + ρ̄⁺H̄⁻); whichever endpoint or interior point attains the
    supremum is reported (x → ∞ via ``at_infinity``).  InvalidConfigError
    unless all four are finite, H̄± > 0, ρ̄⁺ > 0 and ρ̄⁻ ≥ 0.
    """
    _check_real("rhobar_plus", rhobar_plus, 0.0, strict=True)
    _check_real("rhobar_minus", rhobar_minus, 0.0)
    _check_real("hbar_plus", hbar_plus, 0.0, strict=True)
    _check_real("hbar_minus", hbar_minus, 0.0, strict=True)
    # imported by its only user: at module level it would slow every package import
    from scipy.optimize import minimize_scalar

    xs = np.geomspace(1e-4, 1e4, 400)
    vals = _flat_quotient(xs, rhobar_plus, rhobar_minus, hbar_plus, hbar_minus)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    res = minimize_scalar(
        lambda x: -_flat_quotient(x, rhobar_plus, rhobar_minus, hbar_plus, hbar_minus),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    interior_val = max(float(vals[i]), float(-res.fun))
    interior_x = float(res.x) if -res.fun >= vals[i] else float(xs[i])
    limit_zero = 1.0 / (rhobar_minus * hbar_plus + rhobar_plus * hbar_minus)
    if limit_zero > interior_val and limit_zero >= 1.0:
        return FlatConstant(value=limit_zero, x_argmax=0.0, at_infinity=False)
    if interior_val >= 1.0:
        return FlatConstant(value=interior_val, x_argmax=interior_x, at_infinity=False)
    return FlatConstant(value=1.0, x_argmax=math.inf, at_infinity=True)


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
    """
    m_t = _shear_multiplier_t(state.grid, state.params.mu)
    # builds the factor and checks its true residual on one row of Mᵀ
    state._g_tilde(m_t[0])
    c = dsyrk(state.params.mu, state._g_tilde.whiten(m_t), lower=1)
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
    :func:`~twofluid.operators.transmission_tangent` returns it.
    """
    p = params
    wx = deriv(grid, np.array([traces.w_plus, traces.w_minus]))
    material_p = rates.w_plus + p.eps * traces.v_plus * wx[0]
    material_m = rates.w_minus + p.eps * traces.v_minus * wx[1]
    return 1.0 + p.eps * (p.rhobar_plus * material_p - p.rhobar_minus * material_m)


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
    :func:`~twofluid.evolution.rhs` applies.  The rates of w± and V± are the
    tangent of the transmission map, which reuses the state's DN matrices
    and 𝒢̃ factor (:func:`~twofluid.operators.transmission_tangent`).
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
    all but inf 𝔞 >= 0; other values raise :class:`InvalidConfigError`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidConfigError(f"gamma must lie in [0, 1], got {gamma}")
    _check_scalars(inf_a, e_value=e_value, grad_zeta_sup=grad_zeta_sup, jump_sup=jump_sup,
                   jump_sup_d1=jump_sup_d1)
    p = params
    curvature = (1.0 + p.eps**2 * p.mu * grad_zeta_sup**2) ** 1.5
    c_sq = e_value**2 * curvature
    ups = p.upsilon
    if p.rhobar_minus == 0.0:
        rhs_sc = rhs_alt = rhs_strong = 0.0
    else:
        if math.isinf(ups):
            raise InvalidConfigError(
                "criteria need sigma > 0 (finite upsilon); the zero-surface-tension "
                "two-fluid problem has no stable regime to report"
            )
        rhs_sc = ups * c_sq * jump_sup_d1**4
        rhs_alt = ups * c_sq * jump_sup**4
        rhs_strong = p.eps ** (-2.0 * gamma) * rhs_sc if p.eps > 0 else rhs_sc
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
            * omega_sup**4
        )
        dim_verdict = dim_lhs > dim_rhs
    else:
        dim_rhs = 0.0 if p.rhobar_minus == 0.0 else float("nan")
        dim_verdict = dim_lhs > dim_rhs if not math.isnan(dim_lhs + dim_rhs) else sc_alt
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
    u = _finite(u, "ins_form argument")
    if abs(u @ _gauge_constants(grid.n)[0]) > 1e-8 * grid.n * np.max(np.abs(u)):
        raise IncompatibleDataError("ins_form needs u without a Nyquist component")
    a_term = inner(grid, inputs.a_values * u, u)
    shear = 0.0
    if p.rhobar_minus > 0.0 and np.any(inputs.jump_v != 0.0):
        shear = (
            p.eps**2
            * p.mu
            * p.rhobar_plus
            * p.rhobar_minus
            * e_quadratic_form(state, u * inputs.jump_v)
        )
    cap = 0.0
    if not math.isinf(p.bond):
        kweight = (1.0 + p.eps**2 * p.mu * state.zeta_x**2) ** (-1.5)
        du = deriv(grid, u)
        cap = inner(grid, kweight * du, du) / p.bond
    return a_term - shear + cap


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
    tension the margin is unbounded below whenever a > 0.  The scalars are
    checked as in :func:`criteria_from_scalars`.
    """
    _check_scalars(inf_a, e_value=e_value, grad_zeta_sup=grad_zeta_sup, jump_sup=jump_sup)
    p = params
    a_coeff = p.eps**2 * p.rhobar_plus * p.rhobar_minus * e_value * jump_sup**2
    curvature = (1.0 + p.eps**2 * p.mu * grad_zeta_sup**2) ** 1.5
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
    value = (inf_a - b * xi + c * xi**2) / (1.0 + d * xi**2)
    return MarginResult(value=value, xi_argmin=xi, unbounded=False)
