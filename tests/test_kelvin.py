"""Kelvin–Helmholtz stability of two uniform streams, in the package's variables.

The oracle is `kelvin_threshold` of conftest: mode ξ grows exactly when
ε²ρ̄⁺ρ̄⁻⟦V⟧² exceeds it.  Dimensional settings enter through
`config_from_dimensionless`, whose effective depth is H = 1 m, and a
dimensional velocity jump is ⟦c⟧ = ε√(g'H)⟦V⟧.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from twofluid import config_from_dimensionless, derive_params
from twofluid.operators import _g_tilde_of
from conftest import flat_symbols, kelvin_threshold

GRAVITY = 9.81


def streams(rho_plus, rho_minus, sigma, mu=1.0):
    """Parameters of two streams of densities ρ± and equal depths H = 1 m,
    with the tension σ, gravity g and the wavelength scale λ = H/√μ."""
    rho_total = rho_plus + rho_minus
    rbm = rho_minus / rho_total
    g_reduced = (1.0 - 2.0 * rbm) * GRAVITY
    bond = rho_total * g_reduced / (mu * sigma) if sigma > 0.0 else math.inf
    return derive_params(config_from_dimensionless(
        0.1, mu, rbm, 1.0, bond, GRAVITY, rho_total=rho_total))


def critical_shear(p):
    """(⟦c⟧ at the infimum over ξ > 0 of the threshold, the ξ reaching it).

    A log-spaced scan over ξ ∈ [1e-4, 1e8], refined by minimize_scalar in
    log ξ between the neighbours of the scan's minimum."""
    xs = np.geomspace(1e-4, 1e8, 1201)
    i = int(np.argmin(kelvin_threshold(p, xs)))
    res = minimize_scalar(lambda t: float(kelvin_threshold(p, math.exp(t))),
                          bounds=(math.log(xs[max(i - 1, 0)]), math.log(xs[min(i + 1, 1200)])),
                          method="bounded", options={"xatol": 1e-12})
    return jump_of(p, res.fun), math.exp(res.x)


def jump_of(p, threshold):
    """The dimensional jump ⟦c⟧ at which ε²ρ̄⁺ρ̄⁻⟦V⟧² equals the threshold."""
    return p.wave_speed * math.sqrt(threshold / (p.rhobar_plus * p.rhobar_minus))


def package_threshold(p, xi):
    """The threshold from the package's symbols, (1 + ξ²/Bo)S̃/(μξ²) with
    S̃ = 𝒢̃'s symbol of the flat layer symbols, a flat TailSymbolSet's S±."""
    ts = flat_symbols(p)
    mix = _g_tilde_of(p, ts.s(0.0, xi, +1), ts.s(0.0, xi, -1))
    return (1.0 + xi**2 / p.bond) * mix / (p.mu * xi**2)


@pytest.mark.parametrize("mu", [1.0, 0.01])
def test_deep_water_threshold_is_the_classical_one(mu):
    # air over water, 1 m deep: the marginal mode k* = √(gΔρ/σ) has
    # k*H ≈ 371, and the classical threshold (ρ⁺ρ⁻/(ρ⁺+ρ⁻))U² = 2√(gΔρσ)
    # is the quartic |⟦c⟧|⁴ = 4σgΔρ(ρ⁺+ρ⁻)²/(ρ⁺ρ⁻)²
    rho_plus, rho_minus, sigma = 1025.0, 1.2, 0.073
    p = streams(rho_plus, rho_minus, sigma, mu)
    assert p.sigma == pytest.approx(sigma, rel=1e-14)
    drho, rho_total = rho_plus - rho_minus, rho_plus + rho_minus
    u_star = (4.0 * sigma * GRAVITY * drho * rho_total**2 / (rho_plus * rho_minus) ** 2) ** 0.25
    k_star = math.sqrt(GRAVITY * drho / sigma)
    wavelength = 1.0 / math.sqrt(mu)
    assert jump_of(p, kelvin_threshold(p, k_star * wavelength)) == pytest.approx(u_star,
                                                                                 rel=1e-12)
    u_crit, xi_crit = critical_shear(p)
    assert u_crit == pytest.approx(u_star, rel=1e-10)
    assert u_crit == pytest.approx(6.7, rel=0.01)
    assert xi_crit / wavelength == pytest.approx(k_star, rel=1e-7)


def test_deep_water_marginal_mode():
    # the package's symbols put the classical marginal shear u* at
    # k* = √(gΔρ/σ): modes there grow just above u* and not just below,
    # and the neighbouring modes need more shear
    rho_plus, rho_minus, sigma = 1025.0, 1.2, 0.073
    p = streams(rho_plus, rho_minus, sigma)
    drho, rho_total = rho_plus - rho_minus, rho_plus + rho_minus
    u_star = (4.0 * sigma * GRAVITY * drho * rho_total**2 / (rho_plus * rho_minus) ** 2) ** 0.25
    xi_star = math.sqrt(GRAVITY * drho / sigma) / math.sqrt(p.mu)
    threshold = float(package_threshold(p, xi_star))
    assert jump_of(p, threshold) == pytest.approx(u_star, rel=1e-12)
    for factor, grows in ((0.999, False), (1.001, True)):
        # ε²ρ̄⁺ρ̄⁻⟦V⟧² of the jump ⟦c⟧ = ε√(g'H)⟦V⟧
        shear = p.rhobar_plus * p.rhobar_minus * (factor * u_star / p.wave_speed) ** 2
        assert (shear > threshold) == grows
    assert np.all(package_threshold(p, xi_star * np.array([0.999, 1.001])) > threshold)


def test_equal_densities_no_tension_critical_jump_vanishes():
    # without surface tension the critical jump of mode k solves
    # t⁺t⁻⟦c⟧²/(t⁺ + t⁻) = gΔρ/k, t± = ρ±coth(kH±), so it is
    # √(gΔρ(ρ⁺ + ρ⁻)tanh(k)/(kρ⁺ρ⁻)) at H± = 1 m and vanishes like √Δρ as
    # the densities meet; the package's symbols give it mode by mode
    xis = np.geomspace(1e-2, 1e3, 30)
    crit = []
    for drho in (200.0, 2.0, 0.02):
        rho_plus, rho_minus = 1000.0 + drho / 2.0, 1000.0 - drho / 2.0
        p = streams(rho_plus, rho_minus, 0.0)
        k = xis * math.sqrt(p.mu)
        tp, tm = rho_plus / np.tanh(k), rho_minus / np.tanh(k)
        closed = np.sqrt(GRAVITY * drho * (tp + tm) / (k * tp * tm))
        jumps = np.array([jump_of(p, t) for t in package_threshold(p, xis)])
        assert jumps == pytest.approx(closed, rel=1e-10)
        crit.append(jumps)
    fall = math.sqrt(0.02 / 200.0 * (1100.0 * 900.0) / (1000.01 * 999.99))
    assert crit[2] / crit[0] == pytest.approx(fall, rel=1e-10)


def test_no_shear_is_stable(rng):
    # ⟦V⟧ = 0 leaves no mode growing: the threshold is positive and finite
    xis = np.geomspace(1e-3, 1e4, 50)
    for _ in range(20):
        p = derive_params(config_from_dimensionless(
            rng.uniform(0.05, 0.6), rng.uniform(1e-3, 1.0), rng.uniform(0.0, 0.49),
            rng.uniform(0.2, 5.0), rng.choice([math.inf, rng.uniform(1.0, 1e6)])))
        threshold = kelvin_threshold(p, xis)
        assert np.all((threshold > 0.0) & np.isfinite(threshold))


def test_sigma_to_zero_threshold_to_zero():
    # water over a lighter fluid, 1 m deep: in deep water the threshold falls
    # like σ^{1/4}, and without surface tension it vanishes like 1/ξ
    vals = [critical_shear(streams(1100.0, 900.0, s))[0] for s in (0.05, 0.005, 0.0005)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.5 * vals[0]
    assert vals[1] / vals[0] == pytest.approx(0.1**0.25, rel=1e-10)
    assert vals[2] / vals[1] == pytest.approx(0.1**0.25, rel=1e-10)
    p = streams(1100.0, 900.0, 0.0)
    xis = np.geomspace(1e2, 1e12, 11)
    assert kelvin_threshold(p, xis) * math.sqrt(p.mu) * xis == pytest.approx(1.0, rel=1e-15)


def test_single_stream_has_no_unstable_shear():
    # with ρ̄⁻ = 0, ε²ρ̄⁺ρ̄⁻⟦V⟧² = 0 whatever the shear, below every threshold
    for bond in (math.inf, 100.0):
        p = derive_params(config_from_dimensionless(0.3, 0.5, 0.0, 1.5, bond))
        threshold = kelvin_threshold(p, np.geomspace(1e-4, 1e8, 200))
        assert p.rhobar_minus == 0.0
        assert np.all((threshold > 0.0) & np.isfinite(threshold))


def test_threshold_matches_the_package_flat_symbols():
    # the threshold from the package's symbols is the oracle's
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(200):
        p = derive_params(config_from_dimensionless(
            rng.uniform(0.0, 0.6), 10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(1e-3, 0.49),
            10.0 ** rng.uniform(math.log10(0.2), math.log10(5.0)),
            10.0 ** rng.uniform(0.0, 6.0)))
        xi = 10.0 ** rng.uniform(-2.0, 4.0, 50)
        ratio = package_threshold(p, xi) / kelvin_threshold(p, xi)
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
    assert worst <= 1e-13


def test_critical_shear_degenerate_configurations():
    # at the edges of the parameter domain, a single stream or no surface
    # tension, the package's threshold stays the oracle's far out in ξ; with
    # Bo = ∞ it decays like 1/(√μξ), so its infimum 0 is reached only as
    # ξ → ∞
    xi = np.geomspace(1e-4, 1e12, 161)
    for rbm, bond in ((0.0, 100.0), (0.0, math.inf), (0.3, math.inf), (0.49, math.inf)):
        p = derive_params(config_from_dimensionless(0.3, 0.5, rbm, 1.5, bond))
        package = package_threshold(p, xi)
        assert np.all((package > 0.0) & np.isfinite(package))
        assert package == pytest.approx(kelvin_threshold(p, xi), rel=1e-13)
        if math.isinf(bond):
            tail = xi >= 1e2
            assert package[tail] * math.sqrt(p.mu) * xi[tail] == pytest.approx(1.0, rel=1e-15)
            assert np.all(np.diff(package[tail]) < 0.0)
