"""Shear-stability criteria for two-layer interfacial waves.

The criteria compare the vertical pressure-derivative jump at the interface
(the two-layer generalization of the bottom-pressure positivity condition)
against the destabilizing inertia of the tangential velocity jump, with
surface tension controlling the high frequencies.  In dimensionless form

    (SC)   Υ 𝔠(ζ) max_{|α|≤1} |∂^α⟦V⟧|∞⁴ < inf 𝔞,
    (SC')  Υ 𝔠(ζ) |⟦V⟧|∞⁴          < inf 𝔞,
    (SCs)  ε^{-2γ} Υ 𝔠(ζ) max_{|α|≤1} |∂^α⟦V⟧|∞⁴ < inf 𝔞   (0 ≤ γ ≤ 1),

where 𝔞 = 1 + ε⟦ρ̄±(∂t + εV±∂x)w±⟧ and ⟦V⟧ = V⁺ − V⁻.  The geometric
constant uses the sharp operator bound 𝔢(ζ) of the shear quadratic form,

    𝔠(ζ) = 𝔢(ζ)² (1 + ε²μ|∂xζ|∞²)^{3/2};

the unsquared variant 𝔢(ζ)(1+·)^{3/2} is also reported, but the linear
Kelvin-threshold cross-validation selects the squared form.  At a flat
interface 𝔢 reduces to the mode-wise supremum

    𝔢(0) = sup_{x≥0} x / ((1+x)(ρ̄⁻tanh(H̄⁺x) + ρ̄⁺tanh(H̄⁻x))).

The margins 𝔡 = inf 𝔞 − Υ𝔠·max⁴ and 𝔡' (with the plain sup) quantify by
how much a configuration clears the criteria.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import InvalidConfigError, NumericalError
from .operators import InterfaceState, TraceBundle, e_quadratic_form, invert_g_tilde
from .params import DimensionlessParams, Verdict, practical_verdict
from .spectral import PeriodicGrid, deriv, inner, norm_h1_sigma
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
    n_scan: int = 400,
) -> FlatConstant:
    """Flat-interface constant sup_x x/((1+x)(ρ̄⁻tanh(H̄⁺x)+ρ̄⁺tanh(H̄⁻x))).

    Log-spaced scan over x ∈ [1e-4, 1e4] with golden-section refinement.
    The x → ∞ limit equals 1 and the x → 0 limit equals
    1/(ρ̄⁻H̄⁺ + ρ̄⁺H̄⁻); whichever endpoint or interior point attains the
    supremum is reported (x → ∞ via ``at_infinity``).
    """
    xs = np.geomspace(1e-4, 1e4, n_scan)
    vals = _flat_quotient(xs, rhobar_plus, rhobar_minus, hbar_plus, hbar_minus)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n_scan - 1)]
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


@dataclass
class ECoeffResult:
    value: float
    converged: bool
    iterations: int


def e_coeff(
    state: InterfaceState,
    tol: float = 1e-8,
    maxiter: int = 500,
    seed: int = 0,
) -> ECoeffResult:
    """Sharp constant 𝔢(ζ) of the shear quadratic form on the grid.

    𝔢(ζ) = sup_V μ(𝒢̃⁻¹∂xV, ∂xV)/|(1+√μ|D|)^{1/2}V|².  A flat interface
    reduces to the maximum of the mode-wise quotient over the grid
    wavenumbers; otherwise the generalized Rayleigh quotient is maximized
    by Lanczos iteration (ARPACK's ``eigsh`` with relative tolerance ``tol``,
    capped at ``maxiter`` restarts); ``iterations`` counts its operator
    applications.
    """
    p = state.params
    grid = state.grid
    if p.eps * float(np.max(np.abs(state.zeta))) == 0.0:
        k = np.abs(grid.wavenumbers)
        k = k[k > 0.0]
        x = math.sqrt(p.mu) * k
        vals = _flat_quotient(x, p.rhobar_plus, p.rhobar_minus, p.hbar_plus, p.hbar_minus)
        return ECoeffResult(value=float(np.max(vals)), converged=True, iterations=0)

    smu = math.sqrt(p.mu)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    from .operators import pinv_g_tilde

    mix_pinv = pinv_g_tilde(state)

    def b_inv_half(v):
        from .spectral import apply_multiplier

        return apply_multiplier(
            grid, lambda k: 1.0 / np.sqrt(1.0 + smu * np.abs(k)), v
        )

    matvecs = 0

    def c_apply(v):
        # symmetric operator B^{-1/2} (μ ℰ) B^{-1/2}
        nonlocal matvecs
        matvecs += 1
        w = b_inv_half(v)
        g = deriv(grid, w)
        u = mix_pinv @ g
        ev = -deriv(grid, u)
        return p.mu * b_inv_half(ev)

    # Krylov (Lanczos) maximization of the Rayleigh quotient.  Plain power
    # iteration stalls here: the top of the spectrum is nearly degenerate
    # (neighboring modes of the flat quotient differ by O(1/N)).
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(grid.n)
    v0 -= np.mean(v0)
    op = LinearOperator((grid.n, grid.n), matvec=c_apply)
    try:
        vals = eigsh(
            op, k=1, which="LA", v0=v0, tol=tol, maxiter=maxiter,
            return_eigenvectors=False,
        )
        return ECoeffResult(value=float(vals[0]), converged=True, iterations=matvecs)
    except ArpackNoConvergence as exc:
        best = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else float("nan")
        return ECoeffResult(value=best, converged=False, iterations=matvecs)


def a_field(
    grid: PeriodicGrid,
    params: DimensionlessParams,
    traces_now: TraceBundle,
    traces_prev: Optional[TraceBundle],
    traces_next: Optional[TraceBundle],
    dt: float,
) -> np.ndarray:
    """Pressure-jump coefficient 𝔞 = 1 + ε⟦ρ̄±(∂t + εV±∂x)w±⟧.

    Time derivatives of w± use centered differences over three consecutive
    trace bundles; at series ends pass only one neighbor for a one-sided
    difference.
    """
    if dt <= 0.0:
        raise InvalidConfigError("dt must be positive")
    if traces_prev is None and traces_next is None:
        raise InvalidConfigError("need at least one neighboring trace bundle")
    p = params

    def dt_w(sign):
        attr = "w_plus" if sign > 0 else "w_minus"
        now = getattr(traces_now, attr)
        if traces_prev is not None and traces_next is not None:
            return (getattr(traces_next, attr) - getattr(traces_prev, attr)) / (2 * dt)
        if traces_next is not None:
            return (getattr(traces_next, attr) - now) / dt
        return (now - getattr(traces_prev, attr)) / dt

    material_p = dt_w(+1) + p.eps * traces_now.v_plus * deriv(grid, traces_now.w_plus)
    material_m = dt_w(-1) + p.eps * traces_now.v_minus * deriv(grid, traces_now.w_minus)
    return 1.0 + p.eps * (p.rhobar_plus * material_p - p.rhobar_minus * material_m)


@dataclass
class StabilityInputs:
    """Everything the criteria need about one instant of a configuration."""

    state: InterfaceState
    traces: TraceBundle
    jump_v: np.ndarray
    djump_v_x: np.ndarray
    djump_v_t: Optional[np.ndarray]
    a_values: np.ndarray
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidConfigError(f"gamma must lie in [0, 1], got {self.gamma}")


def stability_inputs(
    state: InterfaceState,
    traces: TraceBundle,
    traces_prev: Optional[TraceBundle] = None,
    traces_next: Optional[TraceBundle] = None,
    dt: Optional[float] = None,
    gamma: float = 0.0,
) -> StabilityInputs:
    """Assemble criterion inputs from a trace bundle and optional history."""
    grid = state.grid
    jump = traces.jump_v()
    djx = deriv(grid, jump)
    djt = None
    a_vals = np.ones(grid.n)
    if dt is not None and (traces_prev is not None or traces_next is not None):
        a_vals = a_field(grid, state.params, traces, traces_prev, traces_next, dt)
        jp = traces_prev.jump_v() if traces_prev is not None else None
        jn = traces_next.jump_v() if traces_next is not None else None
        if jp is not None and jn is not None:
            djt = (jn - jp) / (2 * dt)
        elif jn is not None:
            djt = (jn - jump) / dt
        else:
            djt = (jump - jp) / dt
    return StabilityInputs(
        state=state, traces=traces, jump_v=jump, djump_v_x=djx, djump_v_t=djt,
        a_values=a_vals, gamma=gamma,
    )


@dataclass
class StabilityReport:
    """Criterion evaluation with margins and the dimensional restatement."""

    upsilon: float
    c_coeff: float
    c_coeff_unsquared: float
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
    time_derivative_missing: bool = False
    dim_lhs: float = float("nan")
    dim_rhs: float = float("nan")
    dim_verdict: bool = False
    practical: str = ""
    e_converged: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def criteria_from_scalars(
    params: DimensionlessParams,
    e_value: float,
    grad_zeta_sup: float,
    inf_a: float,
    jump_sup: float,
    jump_sup_d1: float,
    gamma: float = 0.0,
    time_derivative_missing: bool = False,
    e_converged: bool = True,
) -> StabilityReport:
    """Evaluate all criteria from precomputed scalar ingredients.

    The dimensional restatement compares the pressure-derivative jump
    (ρ⁺+ρ⁻)g'·inf𝔞 against (1/4)(ρ⁺ρ⁻)²/(σ(ρ⁺+ρ⁻)²)·𝔠·|ω|⁴ with the
    physical velocity jump ω = ε√(g'H)·⟦V⟧; the two verdicts agree by
    construction and exercising both paths guards the scalings.
    """
    p = params
    curvature = (1.0 + p.eps**2 * p.mu * grad_zeta_sup**2) ** 1.5
    c_sq = e_value**2 * curvature
    c_unsq = e_value * curvature
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
    if (
        p.rhobar_minus > 0.0
        and not math.isnan(p.rho_total)
        and p.sigma > 0.0
    ):
        rho_p = p.rhobar_plus * p.rho_total
        rho_m = p.rhobar_minus * p.rho_total
        omega_sup = p.eps * p.wave_speed * jump_sup
        dim_lhs = p.rho_total * p.g_reduced * inf_a
        dim_rhs = (
            0.25
            * (rho_p * rho_m) ** 2
            / (p.sigma * p.rho_total**2)
            * c_sq
            * omega_sup**4
        )
        dim_verdict = dim_lhs > dim_rhs
    else:
        dim_lhs = p.rho_total * p.g_reduced * inf_a if not math.isnan(p.rho_total) else float("nan")
        dim_rhs = 0.0 if p.rhobar_minus == 0.0 else float("nan")
        dim_verdict = dim_lhs > dim_rhs if not math.isnan(dim_lhs + dim_rhs) else sc_alt
    effective_sc = sc_alt if time_derivative_missing else sc
    verdict = "stable" if effective_sc else "unstable"
    practical = (
        practical_verdict(ups).value if (0.0 < ups < math.inf) else
        ("stable" if p.rhobar_minus == 0.0 else "unstable")
    )
    return StabilityReport(
        upsilon=ups,
        c_coeff=c_sq,
        c_coeff_unsquared=c_unsq,
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
        time_derivative_missing=time_derivative_missing,
        dim_lhs=dim_lhs,
        dim_rhs=dim_rhs,
        dim_verdict=dim_verdict,
        practical=practical,
        e_converged=e_converged,
    )


def evaluate_criteria(inputs: StabilityInputs) -> StabilityReport:
    """Evaluate (SC), (SC'), the strong variant and the dimensional check."""
    state = inputs.state
    grid = state.grid
    jump_sup = float(np.max(np.abs(inputs.jump_v)))
    sups = [jump_sup, float(np.max(np.abs(inputs.djump_v_x)))]
    missing = inputs.djump_v_t is None
    if not missing:
        sups.append(float(np.max(np.abs(inputs.djump_v_t))))
    jump_sup_d1 = max(sups)
    e_res = e_coeff(state)
    zx_sup = float(np.max(np.abs(deriv(grid, state.zeta))))
    inf_a = float(np.min(inputs.a_values))
    return criteria_from_scalars(
        state.params,
        e_value=e_res.value,
        grad_zeta_sup=zx_sup,
        inf_a=inf_a,
        jump_sup=jump_sup,
        jump_sup_d1=jump_sup_d1,
        gamma=inputs.gamma,
        time_derivative_missing=missing,
        e_converged=e_res.converged,
    )


def ins_form(state: InterfaceState, u, inputs: StabilityInputs) -> float:
    """Quadratic form of the instability operator,

    (Ins u, u) = (𝔞u, u) − ε²μρ̄⁺ρ̄⁻(ℰ(u⟦V⟧), u⟦V⟧) + (1/Bo)(𝒦 ∂xu, ∂xu),

    with the d = 1 curvature weight 𝒦 = (1 + ε²μ ζₓ²)^{−3/2}.  Positive
    definiteness of this form is what the criteria certify.
    """
    p = state.params
    grid = state.grid
    u = np.asarray(u, dtype=float)
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
        zx = deriv(grid, state.zeta)
        kweight = (1.0 + p.eps**2 * p.mu * zx**2) ** (-1.5)
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
    n_scan: int = 600,
) -> MarginResult:
    """Minimize the per-mode margin A(ξ)/(1 + ξ²/Bo) over frequencies.

    A(ξ) = inf𝔞 − √μ·a·|ξ| + (1/Bo)ξ²/(1+ε²μ|∂xζ|∞²)^{3/2} with
    a = ε²ρ̄⁺ρ̄⁻𝔢|⟦V⟧|∞².  Under (SC) the minimum stays above 𝔡/2 (for
    inf𝔞 ≤ 1 + 𝔡/2); without surface tension the margin is unbounded
    below whenever a > 0.
    """
    p = params
    a_coeff = p.eps**2 * p.rhobar_plus * p.rhobar_minus * e_value * jump_sup**2
    curvature = (1.0 + p.eps**2 * p.mu * grad_zeta_sup**2) ** 1.5
    inv_bo = 0.0 if math.isinf(p.bond) else 1.0 / p.bond
    if inv_bo == 0.0 and a_coeff > 0.0:
        return MarginResult(value=-math.inf, xi_argmin=math.inf, unbounded=True)

    smu = math.sqrt(p.mu)

    def margin(xi):
        a_of_xi = inf_a - smu * a_coeff * xi + inv_bo * xi**2 / curvature
        return a_of_xi / (1.0 + inv_bo * xi**2)

    if a_coeff == 0.0:
        return MarginResult(value=margin(0.0), xi_argmin=0.0, unbounded=False)
    # vertex of the unweighted quadratic, always included in the bracket
    xi_vertex = smu * a_coeff * curvature / (2.0 * inv_bo)
    xi_hi = max(1e4, 100.0 * xi_vertex)
    xs = np.sort(np.concatenate(([0.0], np.geomspace(1e-4, xi_hi, n_scan), [xi_vertex])))
    vals = np.array([margin(x) for x in xs])
    i = int(np.argmin(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    if hi <= lo:
        lo, hi = 0.0, max(hi, 2.0 * xi_vertex)
    res = minimize_scalar(margin, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    if res.fun < vals[i]:
        return MarginResult(value=float(res.fun), xi_argmin=float(res.x), unbounded=False)
    return MarginResult(value=float(vals[i]), xi_argmin=float(xs[i]), unbounded=False)
