import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from twofluid import (
    IncompatibleDataError,
    InvalidConfigError,
    MarginResult,
    NumericalError,
    PeriodicGrid,
    TraceBundle,
    a_field,
    apply_g_tilde,
    apply_multiplier,
    config_from_dimensionless,
    criteria_from_scalars,
    derive_params,
    e_coeff,
    evaluate_criteria,
    inner,
    ins_form,
    modewise_margin,
    stability_inputs,
    tendency,
    transmission_solve,
)
from twofluid import strip
from twofluid.operators import pinv_g_tilde
from twofluid.spectral import deriv
from conftest import flat_quotient, make_state, shear_form_matrix, smooth_field


def h1_sigma_norm2(grid, u, bond):
    """|u|²_{L²} + (1/Bo)|∂xu|²_{L²} by Parseval, mode by mode."""
    weight = 1.0 + grid.wavenumbers**2 / bond
    return grid.length / grid.n**2 * float(np.sum(weight * np.abs(np.fft.fft(u)) ** 2))


def zero_traces(n):
    z = np.zeros((2, n))
    return TraceBundle(z, z.copy(), z.copy(), z.copy(), np.zeros(n))


def random_traces(rng, grid):
    """A bundle of smooth random fields: four ± stacks and the flux."""
    return TraceBundle(*(np.array([smooth_field(rng, grid), smooth_field(rng, grid)])
                         for _ in range(4)), smooth_field(rng, grid))


# -- e coefficient ----------------------------------------------------------------


def test_e_coeff_flat_closed_form(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, mu=0.5)
    p = st.params
    e_val = e_coeff(st)
    # mode-wise quotient maximized over the grid wavenumbers but the Nyquist
    # one, on which the discrete ℰ vanishes
    k = np.abs(grid64.wavenumbers)
    k = k[(k > 0) & (k < grid64.k_max)]
    assert e_val == pytest.approx(float(np.max(flat_quotient(p, k))), rel=1e-12)


def flat_e_coeff(n, **config):
    """(𝔢 of a flat interface on PeriodicGrid(n), the flat quotient on the
    modes ξ = 1 … n/2 − 1 of that grid, the interface's parameters)."""
    grid = PeriodicGrid(n)
    st = make_state(grid, np.zeros(n), np.zeros(n), eps=0.0, **config)
    return e_coeff(st), flat_quotient(st.params, np.arange(1.0, n // 2)), st.params


def zero_limit(p):
    """The ξ → 0 limit 1/(ρ̄⁻H̄⁺ + ρ̄⁺H̄⁻) of the flat quotient; its ξ → ∞
    limit is 1."""
    return 1.0 / (p.rhobar_minus * p.hbar_plus + p.rhobar_plus * p.hbar_minus)


def test_e_coeff_flat_deep_limit():
    # layers deep next to every wavelength: tanh = 1 on the grid, so 𝔢 is
    # x/(1 + x) at the top mode x = √μ·31, below the ξ → ∞ limit 1
    e_val, vals, p = flat_e_coeff(64, mu=100.0, rbm=0.4, ratio=1.0)
    x = math.sqrt(p.mu) * 31.0
    assert e_val == pytest.approx(x / (1.0 + x), rel=1e-10)
    assert e_val == pytest.approx(float(vals[-1]), rel=1e-10)
    assert 0.0 < 1.0 - e_val <= 1.0 / (1.0 + x) * (1.0 + 1e-8)


def test_e_coeff_flat_symmetric_unit_depths():
    # H̄± = 1: the quotient x/((1 + x)tanh x) stays below 1 at every finite
    # x and rises to it, so 𝔢 grows with the grid towards 1 from below
    vals = []
    for n in (16, 64, 256):
        e_val, quotient, p = flat_e_coeff(n, mu=0.5, rbm=0.4, ratio=1.0)
        assert p.hbar_plus == p.hbar_minus == 1.0
        assert np.all(quotient < 1.0)
        assert e_val == pytest.approx(float(quotient[-1]), rel=1e-5)
        vals.append(e_val)
    assert vals[0] < vals[1] < vals[2] < 1.0
    assert vals[2] > 0.98


def test_e_coeff_flat_grue_geometry():
    # the zero limit is below the deep one, so 𝔢 sits at the top mode,
    # under the quotient's supremum 1
    e_val, vals, p = flat_e_coeff(64, mu=0.1, rbm=0.4943, ratio=0.62 / 0.15)
    assert zero_limit(p) < 1.0
    assert int(np.argmax(vals)) == vals.size - 1
    assert e_val == pytest.approx(float(vals[-1]), rel=1e-6)
    assert e_val < 1.0


def test_e_coeff_flat_zero_limit_can_dominate():
    # strongly asymmetric split: the ξ → 0 end exceeds the deep limit, and
    # on a long wave the lowest mode carries 𝔢, just below that end
    e_val, vals, p = flat_e_coeff(64, mu=1e-4, rbm=0.1, ratio=9.0)
    assert (p.hbar_plus, p.hbar_minus) == pytest.approx((1.8, 0.2), rel=1e-14)
    assert zero_limit(p) == pytest.approx(1.0 / 0.36, rel=1e-14)
    assert int(np.argmax(vals)) == 0
    assert e_val == pytest.approx(float(vals[0]), rel=1e-6)
    assert 1.0 < e_val < zero_limit(p)


def test_e_coeff_flat_interior_maximum():
    # a deep light layer over a thin heavy one: the quotient peaks inside
    # the grid's band, above both end limits, and 𝔢 is its grid maximum
    # at the mode next to the peak
    e_val, vals, p = flat_e_coeff(64, mu=0.01, rbm=0.01, ratio=901.0)
    assert p.hbar_plus == pytest.approx(10.0, rel=1e-14)
    i = int(np.argmax(vals))
    assert 0 < i < vals.size - 1
    assert e_val == pytest.approx(float(vals[i]), rel=1e-6)
    assert e_val > max(1.0, zero_limit(p), vals[0], vals[-1])
    peak = minimize_scalar(lambda xi: -float(flat_quotient(p, xi)), bounds=(i, i + 2.0),
                           method="bounded", options={"xatol": 1e-10})
    assert i < peak.x < i + 2.0
    assert vals[i] <= -peak.fun <= vals[i] * (1.0 + 1e-3)


def test_e_coeff_flat_two_code_paths(grid64):
    # on a (numerically) flat state, the top eigenvalue of the dense matrix
    # path must agree with the diagonal mode-wise quotient of the same
    # discrete weighted DN sum
    st = make_state(grid64, 1e-30 * np.cos(grid64.nodes), np.zeros(64), eps=0.3, mu=0.5)
    p = st.params
    dense = e_coeff(st)
    smu = math.sqrt(p.mu)
    best = 0.0
    for k in range(1, 32):
        u = np.cos(k * grid64.nodes)
        gk = inner(grid64, apply_g_tilde(st, u), u) / inner(grid64, u, u)
        best = max(best, p.mu * k**2 / (gk * (1.0 + smu * k)))
    assert dense == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("rbm", [0.0, 0.4])
@pytest.mark.parametrize("ratio", [1.0, 1.5])
def test_e_coeff_matches_the_pseudo_inverse_oracle(n, rbm, ratio):
    grid = PeriodicGrid(n)
    rng = np.random.default_rng([n, int(10 * rbm), int(10 * ratio)])
    st = make_state(grid, smooth_field(rng, grid, 4, 1.0), np.zeros(n), rbm=rbm, ratio=ratio,
                    n_z=12)
    smu = math.sqrt(st.params.mu)
    m_t = apply_multiplier(grid, lambda k: 1j * k / np.sqrt(1.0 + smu * np.abs(k)), np.eye(n))
    oracle = st.params.mu * m_t @ pinv_g_tilde(st) @ m_t.T
    top = float(np.linalg.eigvalsh(0.5 * (oracle + oracle.T))[-1])
    assert e_coeff(st) == pytest.approx(top, rel=1e-12)


def test_e_coeff_checks_the_residual_of_its_factor(grid32, monkeypatch):
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), np.zeros(32), n_z=8)
    monkeypatch.setattr(strip, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError):
        e_coeff(st)


def test_e_coeff_checks_its_factor_after_a_solve_with_zero_data(grid32, monkeypatch):
    # at ψ = 0 the transmission solve with 𝒢̃ has zero data and passes any
    # residual bound; e_coeff still makes its own check of the factor
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), np.zeros(32), n_z=8)
    monkeypatch.setattr(strip, "RESIDUAL_TOL", 0.0)
    transmission_solve(st)
    with pytest.raises(NumericalError):
        e_coeff(st)


def test_e_coeff_continuity_in_amplitude(grid64):
    zeta = np.cos(grid64.nodes)
    flat = e_coeff(make_state(grid64, 1e-30 * zeta, np.zeros(64), eps=0.3))
    # ζ = 0 itself is no special case
    assert e_coeff(make_state(grid64, 0.0 * zeta, np.zeros(64), eps=0.3)) == pytest.approx(
        flat, rel=1e-12
    )
    diffs = []
    for amp in (0.4, 0.2, 0.1):
        st = make_state(grid64, amp * zeta, np.zeros(64), eps=0.3)
        e_val = e_coeff(st)
        top = float(np.linalg.eigvalsh(shear_form_matrix(st)[0])[-1])
        assert e_val == pytest.approx(top, rel=1e-10)
        diffs.append(abs(e_val - flat))
    assert diffs[0] < 0.5
    assert diffs[2] <= diffs[0] + 1e-9
    # roughly linear decay of the perturbation
    assert diffs[2] < 0.6 * diffs[0] + 1e-9


# -- pressure-jump coefficient ----------------------------------------------------


def test_a_field_rest_state(grid64):
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    tr = zero_traces(64)
    vals = a_field(grid64, p, tr, tr)
    assert np.allclose(vals, 1.0, atol=1e-15)


def test_a_field_zero_amplitude(grid64, rng):
    p = derive_params(config_from_dimensionless(0.0, 0.5, 0.4, 1.5, 100.0))
    tr = random_traces(rng, grid64)
    tr2 = random_traces(rng, grid64)
    vals = a_field(grid64, p, tr, tr2)
    assert np.allclose(vals, 1.0, atol=1e-15)


@pytest.mark.parametrize(
    "rbm, a_bound, jump_bound",
    [(0.4, 3e-6, 4e-5), (0.0, 3e-5, 3e-4)],
    ids=["two_fluid", "water_waves"],
)
def test_one_state_rates_match_directional_difference(grid64, rbm, a_bound, jump_bound):
    # the tangent of the transmission map against a centred difference of
    # transmission_solve along the state's tendency (δ = 1e-5); bounds about
    # twice the errors measured at n_z = 16 (1.4e-6, 1.7e-5 at ρ̄⁻ = 0.4 and
    # 1.3e-5, 1.3e-4 at ρ̄⁻ = 0, against |∂t⟦V⟧|∞ ≈ 3), and the continuum
    # shape derivative on the discrete DN matrices is consistent at O(n_z⁻²)
    x = grid64.nodes
    zeta = 0.8 * np.cos(x) + 0.3 * np.sin(2 * x + 0.3) + 0.1 * np.cos(4 * x)
    psi = 0.3 * np.sin(x + 0.4) + 0.1 * np.cos(3 * x)
    delta = 1e-5
    errs = []
    for n_z in (16, 32, 64):
        st = make_state(grid64, zeta, psi, rbm=rbm, n_z=n_z)
        tr = transmission_solve(st)
        inputs = stability_inputs(st, tr)
        dz, dp = tendency(st, tr)
        plus, minus = (
            transmission_solve(st.replace_fields(zeta + s * delta * dz, psi + s * delta * dp))
            for s in (1.0, -1.0)
        )
        rates = TraceBundle(*(
            (getattr(plus, f.name) - getattr(minus, f.name)) / (2 * delta)
            for f in dataclasses.fields(TraceBundle)
        ))
        errs.append((
            np.max(np.abs(inputs.a_values - a_field(grid64, st.params, tr, rates))),
            np.max(np.abs(inputs.djump_v_t - rates.jump_v())),
        ))
    errs = np.array(errs)
    assert errs[0, 0] <= a_bound and errs[0, 1] <= jump_bound
    assert np.all(errs[:-1] >= 3.0 * errs[1:])


# -- criteria ---------------------------------------------------------------------


def test_criteria_rest_state_stable(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.2)
    tr = transmission_solve(st)
    inputs = stability_inputs(st, tr)
    rep = evaluate_criteria(inputs)
    assert rep.inf_a == pytest.approx(1.0, abs=1e-12)
    assert rep.jump_sup == 0.0
    assert rep.margin_d == pytest.approx(1.0, abs=1e-12)
    assert rep.sc and rep.sc_alt and rep.sc_strong
    assert rep.verdict == "stable"
    assert rep.dim_verdict


def test_criteria_water_waves_reduction(grid64, rng):
    st = make_state(grid64, 0.2 * np.cos(grid64.nodes), smooth_field(rng, grid64),
                    rbm=0.0, ratio=1.0)
    tr = transmission_solve(st)
    inputs = stability_inputs(st, tr)
    rep = evaluate_criteria(inputs)
    # with a massless upper layer the criteria reduce to inf a > 0
    assert rep.sc == (rep.inf_a > 0.0)
    assert rep.margin_d == pytest.approx(rep.inf_a, rel=1e-12)


def test_criteria_report_fields_and_json(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64))
    tr = transmission_solve(st)
    rep = evaluate_criteria(stability_inputs(st, tr))
    payload = json.loads(rep.to_json())
    for key in (
        "upsilon", "c_coeff", "e_coeff", "inf_a",
        "jump_sup", "jump_sup_d1", "sc", "sc_alt", "sc_strong",
        "margin_d", "margin_d_alt", "verdict", "e_converged",
    ):
        assert key in payload


def test_dimensional_consistency_randomized(rng):
    for _ in range(50):
        p = derive_params(
            config_from_dimensionless(
                eps=rng.uniform(0.01, 0.8),
                mu=rng.uniform(0.01, 1.0),
                rhobar_minus=rng.uniform(0.01, 0.49),
                depth_ratio=rng.uniform(0.3, 3.0),
                bond=rng.uniform(5.0, 1e6),
            )
        )
        rep = criteria_from_scalars(
            p,
            e_value=rng.uniform(0.5, 3.0),
            grad_zeta_sup=rng.uniform(0.0, 2.0),
            inf_a=rng.uniform(0.2, 1.5),
            jump_sup=rng.uniform(0.0, 3.0),
            jump_sup_d1=rng.uniform(0.0, 3.0),
        )
        assert rep.dim_verdict == rep.sc_alt
        assert rep.margin_d == pytest.approx(
            rep.inf_a - rep.upsilon * rep.c_coeff * rep.jump_sup_d1**4, rel=1e-12
        )


def test_criteria_strong_variant_scales_by_eps_power():
    # (SCs) compares ε^{-2γ} times the (SC) term with inf 𝔞: placing inf 𝔞 just
    # above and below that product flips sc_strong and leaves sc true
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    args = dict(e_value=1.2, grad_zeta_sup=0.5, jump_sup=1.0, jump_sup_d1=2.0)
    gamma = 0.5
    ref = criteria_from_scalars(p, inf_a=1.0, gamma=gamma, **args)
    strong = p.eps ** (-2.0 * gamma) * (ref.inf_a - ref.margin_d)
    assert strong == pytest.approx(
        p.upsilon * ref.c_coeff * args["jump_sup_d1"] ** 4 / p.eps, rel=1e-12
    )
    above = criteria_from_scalars(p, inf_a=strong * (1 + 1e-9), gamma=gamma, **args)
    below = criteria_from_scalars(p, inf_a=strong * (1 - 1e-9), gamma=gamma, **args)
    assert above.sc and above.sc_strong
    assert below.sc and not below.sc_strong
    assert criteria_from_scalars(p, inf_a=strong * (1 - 1e-9), **args).sc_strong


def test_criteria_are_even_in_psi(grid32, rng):
    # the flow is reversible, (ζ, ψ, t) → (ζ, −ψ, −t): w± and ⟦V⟧ change
    # sign with ψ, and ∂t w± and V±∂x w± do not, so neither does 𝔞; the
    # criteria read |⟦V⟧| alone and Kelvin's sign symmetry holds exactly
    for _ in range(3):
        zeta, psi = smooth_field(rng, grid32, amplitude=0.3), smooth_field(rng, grid32)
        reports = []
        for sign in (1.0, -1.0):
            st = make_state(grid32, zeta, sign * psi)
            reports.append(evaluate_criteria(stability_inputs(st, transmission_solve(st))))
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].jump_sup > 0.0


def test_criteria_jump_threshold_scales_like_c_to_the_minus_quarter():
    # (SC') holds while Υ𝔠|⟦V⟧|⁴ < inf 𝔞, so its critical jump is
    # (inf 𝔞/(Υ𝔠))^{1/4}: doubling 𝔢 makes 𝔠 fourfold and divides that jump
    # by √2, and the dimensional restatement flips with (SC')
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    caps = []
    for e_value in (1.2, 2.4):
        def report(jump):
            return criteria_from_scalars(p, e_value=e_value, grad_zeta_sup=0.5, inf_a=1.0,
                                         jump_sup=jump, jump_sup_d1=jump)
        cap = (1.0 / (p.upsilon * report(0.0).c_coeff)) ** 0.25
        for factor, holds in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
            rep = report(factor * cap)
            assert rep.sc == rep.sc_alt == rep.dim_verdict == holds
        caps.append(cap)
    assert caps[1] == pytest.approx(caps[0] / math.sqrt(2.0), rel=1e-12)
    # a single fluid has no critical jump
    dry = derive_params(config_from_dimensionless(0.3, 0.5, 0.0, 1.5, 100.0))
    rep = criteria_from_scalars(dry, e_value=1.2, grad_zeta_sup=0.5, inf_a=1.0, jump_sup=1e50,
                                jump_sup_d1=1e50)
    assert rep.sc and rep.sc_alt and rep.dim_verdict


@pytest.mark.parametrize("gamma", [-0.1, 1.5, 5.0, math.nan])
def test_criteria_reject_gamma_outside_unit_interval(gamma):
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    with pytest.raises(InvalidConfigError):
        criteria_from_scalars(p, e_value=1.0, grad_zeta_sup=0.0, inf_a=1.0,
                              jump_sup=0.5, jump_sup_d1=0.5, gamma=gamma)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_practical_verdict_follows_upsilon(eps):
    # Υ ∝ ε⁴: a flat interface (Υ = 0) and a tiny amplitude are both in the
    # stable band of the practical criterion, like any Υ < 0.1
    p = derive_params(config_from_dimensionless(eps, 0.5, 0.4, 1.0, 100.0))
    rep = criteria_from_scalars(p, e_value=1.0, grad_zeta_sup=0.0, inf_a=1.0,
                                jump_sup=0.0, jump_sup_d1=0.0)
    assert rep.upsilon < 0.1
    assert rep.practical == "stable"


def test_criteria_reject_zero_surface_tension():
    # σ = 0 with a second fluid and a wave: Υ = ∞, no stable regime to report
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.0))
    assert p.sigma == 0.0 and math.isinf(p.upsilon)
    with pytest.raises(InvalidConfigError):
        criteria_from_scalars(p, e_value=1.0, grad_zeta_sup=0.0, inf_a=1.0,
                              jump_sup=0.5, jump_sup_d1=0.5)


def test_rhs_vanishes_linearly_in_rhobar_minus(rng):
    # the criterion right-hand side scales like (rhobar_minus)^2 at fixed sigma
    vals = []
    for rbm in (0.02, 0.01, 0.005):
        p = derive_params(config_from_dimensionless(0.3, 0.5, rbm, 1.0, bond=1e3))
        rep = criteria_from_scalars(
            p, e_value=1.0, grad_zeta_sup=0.0, inf_a=1.0, jump_sup=1.0, jump_sup_d1=1.0
        )
        rhs = rep.inf_a - rep.margin_d_alt
        vals.append(rhs / rbm**2)
    # bond fixed means sigma varies; normalize by the sigma-scaling instead
    ratios = [vals[i] / vals[i + 1] for i in range(2)]
    for r in ratios:
        assert r == pytest.approx(1.0, rel=0.25)


# -- instability quadratic form ----------------------------------------------------


def test_ins_form_reduces_to_h1_sigma(grid64, rng):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.2, bond=50.0)
    tr = zero_traces(64)
    inputs = stability_inputs(st, tr)
    u = smooth_field(rng, grid64)
    val = ins_form(u, inputs)
    assert val == pytest.approx(h1_sigma_norm2(grid64, u, 50.0), rel=1e-10)


@pytest.mark.parametrize("rbm, jump", [(0.0, None), (0.4, 0.0)], ids=["rhobar_minus=0", "jump=0"])
def test_ins_form_without_shear_is_its_a_and_capillary_terms(grid64, rng, rbm, jump):
    # the shear term is a product with ρ̄⁻ and with ⟦V⟧, which is exactly 0
    st = make_state(grid64, 0.2 * np.cos(grid64.nodes), smooth_field(rng, grid64), rbm=rbm,
                    bond=40.0)
    inputs = stability_inputs(st, transmission_solve(st))
    assert np.any(inputs.jump_v != 0.0)
    if jump is not None:
        inputs.jump_v = np.full(64, jump)
    u = smooth_field(rng, grid64)
    du = deriv(grid64, u)
    capillary = inner(grid64, st._slope_terms[1] ** -1.5 * du, du) / st.params.bond
    assert ins_form(u, inputs) == inner(grid64, inputs.a_values * u, u) + capillary


def test_ins_form_infinite_bond(grid64, rng):
    st = make_state(grid64, 0.1 * np.cos(grid64.nodes), np.zeros(64), bond=math.inf)
    tr = zero_traces(64)
    inputs = stability_inputs(st, tr)
    inputs.a_values = 1.0 + 0.2 * np.cos(grid64.nodes)
    u = smooth_field(rng, grid64)
    assert ins_form(u, inputs) == pytest.approx(
        inner(grid64, inputs.a_values * u, u), rel=1e-12
    )


def test_ins_form_flat_constant_jump_diagonal(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.3, mu=0.5, bond=80.0)
    p = st.params
    jump = 0.7
    tr = zero_traces(64)
    inputs = stability_inputs(st, tr)
    inputs.jump_v = jump * np.ones(64)
    for k in (1, 3):
        u = np.cos(k * grid64.nodes)
        # diagonal value through the empirical flat eigenvalue of the DN mix
        mix_u = apply_g_tilde(st, u)
        gk = inner(grid64, mix_u, u) / inner(grid64, u, u)
        expected = (
            1.0
            - p.eps**2 * p.mu * p.rhobar_plus * p.rhobar_minus * jump**2 * k**2 / gk
            + k**2 / p.bond
        ) * inner(grid64, u, u)
        got = ins_form(u, inputs)
        assert got == pytest.approx(expected, abs=1e-8 * abs(expected))


def test_ins_form_bounded_by_h1_sigma(grid64, rng):
    zeta = smooth_field(rng, grid64, 3, 0.8)
    st = make_state(grid64, zeta, np.zeros(64), eps=0.25, mu=0.4, bond=60.0)
    tr = transmission_solve(st)
    inputs = stability_inputs(st, tr)
    inputs.jump_v = smooth_field(rng, grid64, 2, 0.5)
    ratios = []
    for _ in range(10):
        u = smooth_field(rng, grid64)
        ratios.append(abs(ins_form(u, inputs)) / h1_sigma_norm2(grid64, u, 60.0))
    assert max(ratios) < 50.0


def test_ins_form_rejects_a_nyquist_component(grid64, rng):
    # ∂x zeroes the Nyquist mode, so the capillary term cannot bound it while
    # the shear term aliases u⟦V⟧ onto the highest resolved modes
    st = make_state(grid64, 0.3 * np.cos(grid64.nodes), np.zeros(64), bond=20.0)
    inputs = stability_inputs(st, zero_traces(64))
    inputs.jump_v = smooth_field(rng, grid64, 2, 0.5)
    u = smooth_field(rng, grid64)
    nyq = np.cos(np.pi * np.arange(64))
    with pytest.raises(IncompatibleDataError):
        ins_form(u + 1e-6 * nyq, inputs)
    with pytest.raises(IncompatibleDataError):
        ins_form(nyq, inputs)
    assert ins_form(u + 1e-10 * nyq, inputs) == pytest.approx(ins_form(u, inputs), rel=1e-8)
    assert np.isfinite(ins_form(np.full(64, 2.0), inputs))
    with pytest.raises(NumericalError):
        ins_form(np.where(np.arange(64) == 3, np.nan, u), inputs)


# -- mode-wise margin ---------------------------------------------------------------


def test_margin_zero_jump(grid64):
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    res = modewise_margin(p, inf_a=0.8, jump_sup=0.0, e_value=1.3)
    assert res.value == pytest.approx(0.8, rel=1e-12)
    assert res.xi_argmin == 0.0
    assert not res.unbounded


def test_margin_continuous_at_zero_jump():
    # inf a above 1/curvature: the infimum over ξ is the ξ → ∞ limit
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    args = dict(inf_a=1.0, e_value=1.2, grad_zeta_sup=1.0)
    at_zero = modewise_margin(p, jump_sup=0.0, **args)
    near_zero = modewise_margin(p, jump_sup=1e-8, **args)
    curvature = (1.0 + p.eps**2 * p.mu) ** 1.5
    assert at_zero.value == pytest.approx(1.0 / curvature, rel=1e-12)
    assert near_zero.value == pytest.approx(at_zero.value, rel=1e-9)


def test_margin_borderline_threshold():
    p = derive_params(config_from_dimensionless(0.4, 0.5, 0.4, 1.5, 200.0))
    e_val = 1.2
    inf_a = 1.0
    c_val = e_val**2
    # shear tuned so that upsilon*c*jump^4 = inf_a exactly
    jump = (inf_a / (p.upsilon * c_val)) ** 0.25
    res = modewise_margin(p, inf_a=inf_a, jump_sup=jump, e_value=e_val)
    assert abs(res.value) < 1e-6
    assert not res.unbounded


def test_margin_unbounded_without_surface_tension():
    p = derive_params(config_from_dimensionless(0.4, 0.5, 0.4, 1.5, math.inf))
    res = modewise_margin(p, inf_a=1.0, jump_sup=0.5, e_value=1.0)
    assert res.unbounded
    assert res.value == -math.inf


def test_margin_without_surface_tension_or_shear_is_inf_a():
    # Bo = ∞ and no velocity jump: nothing depends on ξ, and the margin is inf 𝔞
    p = derive_params(config_from_dimensionless(0.4, 0.5, 0.4, 1.5, math.inf))
    res = modewise_margin(p, inf_a=0.7, jump_sup=0.0, e_value=1.0, grad_zeta_sup=2.0)
    assert res == MarginResult(value=0.7, xi_argmin=0.0, unbounded=False)


def test_margin_at_least_half_d_under_sc(rng):
    for _ in range(40):
        p = derive_params(
            config_from_dimensionless(
                eps=rng.uniform(0.05, 0.8),
                mu=rng.uniform(0.02, 1.0),
                rhobar_minus=rng.uniform(0.05, 0.49),
                depth_ratio=rng.uniform(0.3, 3.0),
                bond=rng.uniform(10.0, 1e5),
            )
        )
        e_val = rng.uniform(0.8, 2.5)
        inf_a = rng.uniform(0.3, 1.0)  # the half-margin bound needs inf a <= 1 + d/2
        c_val = e_val**2
        jump_cap = (inf_a / (p.upsilon * c_val)) ** 0.25
        jump = rng.uniform(0.0, 0.999) * jump_cap
        d_val = inf_a - p.upsilon * c_val * jump**4
        assert d_val > 0.0
        res = modewise_margin(p, inf_a=inf_a, jump_sup=jump, e_value=e_val)
        assert res.value >= 0.5 * d_val - 1e-8


def test_package_import_leaves_scipy_optimize_unloaded():
    # the package has no use for scipy.optimize, and reads BLAS and LAPACK
    # without the package import of scipy.linalg (twofluid._lapack): either
    # would slow every package import; the exit status holds under python -O
    import twofluid

    src = os.path.dirname(os.path.dirname(twofluid.__file__))
    code = ("import sys, twofluid\n"
            "sys.exit(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules)) or None)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, (out.returncode, out.stderr)
