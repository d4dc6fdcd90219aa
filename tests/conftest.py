import math

import numpy as np
import pytest

from twofluid import (InterfaceState, PeriodicGrid, TailSymbolSet, config_from_dimensionless,
                      derive_params, invert_g_tilde)
from twofluid.spectral import deriv


@pytest.fixture
def grid64():
    return PeriodicGrid(64)


@pytest.fixture
def grid32():
    return PeriodicGrid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_state(grid, zeta, psi, eps=0.3, mu=0.5, rbm=0.4, ratio=1.5, bond=100.0, n_z=32):
    """An InterfaceState on the grid with the parameters of config_from_dimensionless."""
    p = derive_params(config_from_dimensionless(eps, mu, rbm, ratio, bond))
    return InterfaceState(grid=grid, zeta=zeta, psi=psi, params=p, n_z=n_z)


def smooth_field(rng, grid, k_max=6, amplitude=1.0):
    """Random band-limited real field, reproducible from the rng state."""
    x = grid.nodes
    u = np.zeros(grid.n)
    for k in range(1, k_max + 1):
        u += rng.normal() * np.cos(k * x)
        u += rng.normal() * np.sin(k * x)
    return amplitude * u / max(np.max(np.abs(u)), 1e-30)


def flat_symbols(params):
    """The tail symbols of a flat interface, which are its flat multipliers
    (test_tail_symbols_of_a_flat_interface_are_the_flat_multipliers)."""
    return TailSymbolSet(PeriodicGrid(8), np.zeros(8), params)


def flat_dn_symbol(mu_layer, xi):
    """y·tanh y with y = √μ±|ξ|: the DN symbol of one flat layer of unit
    depth, S± with G± = ±Op(S±).  Written with tanh, not with the package's
    symbols, so that it can check them."""
    y = math.sqrt(mu_layer) * np.abs(np.asarray(xi, dtype=float))
    return y * np.tanh(y)


def curved_layer_dn(grid, zeta_modes, eps_layer, mu_layer, layer_sign, modes):
    """(ζ, ψ, G±ψ) of one layer over a curved interface, in closed form.

    ζ = Σ (a cos kx + b sin kx) over the triples (k, a, b) of zeta_modes.
    φ = Σ a_k cosh(√μ±k(1 ± z)) cos kx over the pairs (k, a_k) of modes
    solves μ±∂x²φ + ∂z²φ = 0 with no flux at the wall z = ∓1, for any ζ.
    So ψ = φ(x, ε±ζ) is its Dirichlet trace on the interface z = ε±ζ, and
    G±ψ = ∂zφ − μ±ε±ζₓ∂xφ there is the exact DN value, the upward conormal
    flux.  On a flat interface G±ψ/ψ is ±flat_dn_symbol.  Written without
    the package, so that it can check the discrete maps.
    """
    x = grid.nodes
    zeta, zeta_x = np.zeros(grid.n), np.zeros(grid.n)
    for k, a, b in zeta_modes:
        zeta += a * np.cos(k * x) + b * np.sin(k * x)
        zeta_x += k * (b * np.cos(k * x) - a * np.sin(k * x))
    psi, phi_x, phi_z = np.zeros(grid.n), np.zeros(grid.n), np.zeros(grid.n)
    for k, a in modes:
        c = math.sqrt(mu_layer) * k
        arg = c * (1.0 + layer_sign * eps_layer * zeta)
        psi += a * np.cosh(arg) * np.cos(k * x)
        phi_x -= a * k * np.cosh(arg) * np.sin(k * x)
        phi_z += a * layer_sign * c * np.sinh(arg) * np.cos(k * x)
    return zeta, psi, phi_z - mu_layer * eps_layer * zeta_x * phi_x


def flat_coupled_symbol(params, k):
    """𝒢₀(k) = s⁺/(H̄⁺·J) of a flat interface at k ≠ 0."""
    ts = flat_symbols(params)
    return float(ts.s(0.0, k, +1) / (params.hbar_plus * ts.j_symbol(0.0, k)))


def _flat_mix_ratio(params, xi, depths=None):
    """S̃(ξ)/(μξ²) of two flat layers at the modes ξ ≠ 0, in closed form.

    S̃ = (ρ̄⁻/d⁺)y⁺tanh y⁺ + (ρ̄⁺/d⁻)y⁻tanh y⁻ with y± = √μ d±|ξ| is the
    symbol of 𝒢̃ for layers of depths d± in units of H: H̄± by default, or
    the local depths h± of a uniform state.  Written with tanh, not with the
    package's flat symbols, so that it can check them.
    """
    dp, dm = (params.hbar_plus, params.hbar_minus) if depths is None else depths
    xi = np.abs(np.asarray(xi, dtype=float))
    smu = math.sqrt(params.mu)
    tanhs = (params.rhobar_minus * np.tanh(smu * dp * xi)
             + params.rhobar_plus * np.tanh(smu * dm * xi))
    return tanhs / (smu * xi)


def kelvin_threshold(params, xi, depths=None):
    """Kelvin–Helmholtz threshold of two uniform streams at the modes ξ ≠ 0.

    Two flat layers of depths d± (see :func:`_flat_mix_ratio`) slide past
    each other with the velocity jump ⟦V⟧ in units of ε√(g'H).  Mode ξ grows
    exactly when ε²ρ̄⁺ρ̄⁻⟦V⟧² exceeds (1 + ξ²/Bo)S̃(ξ)/(μξ²), the value
    returned.  This is the streams' dispersion relation
    t⁺(c − c⁺)² + t⁻(c − c⁻)² = (g(ρ⁺−ρ⁻) + σk²)/k, t± = ρ±coth(kH±), in
    the package's variables: k = ξ/λ and ⟦c⟧ = ε√(g'H)⟦V⟧.
    """
    return (1.0 + xi**2 / params.bond) * _flat_mix_ratio(params, xi, depths)


def flat_quotient(params, xi):
    """μξ²/((1 + √μ|ξ|)S̃(ξ)) at the rest depths: the shear form's quotient
    on the mode ξ of a flat interface, whose maximum over the grid's modes
    is that interface's 𝔢 (test_e_coeff_flat_closed_form)."""
    return 1.0 / ((1.0 + math.sqrt(params.mu) * np.abs(xi)) * _flat_mix_ratio(params, xi))


def apply_e(state, v):
    """ℰv = −∂x𝒢̃⁻¹∂xv, the shear operator through the checked solve with 𝒢̃."""
    g = deriv(state.grid, np.asarray(v, dtype=float))
    return -deriv(state.grid, invert_g_tilde(state, g))


def linear_mode_rates(params, grid, n_z, k):
    """Rates (a, b) of the program's own linear flow on the mode cos(kx).

    On that mode the semi-discrete linearisation reads ∂tζ = a ψ, ∂tψ = −b ζ,
    so a = 𝒢_h(k)/μ carries the discrete coupled symbol, the invariant is
    b|ζ̂ₖ|² + a|ψ̂ₖ|² and the frequency the time stepper sees is ω_h = √(ab).
    Both rates are read from `rhs` on (ζ, ψ) = (0, δ cos kx) and
    (δ cos kx, 0); the nonlinear terms enter at O((εδ)²) of them.
    """
    from twofluid import rhs

    mode = 1e-3 * np.cos(k * grid.nodes)
    zero = np.zeros(grid.n)
    dzeta, _ = rhs(InterfaceState(grid=grid, zeta=zero, psi=mode, params=params, n_z=n_z))
    _, dpsi = rhs(InterfaceState(grid=grid, zeta=mode, psi=zero, params=params, n_z=n_z))
    norm = float(mode @ mode)
    return float(dzeta @ mode) / norm, -float(dpsi @ mode) / norm


def shear_form_matrix(state):
    """(μB^{-1/2}ℰB^{-1/2}, B^{-1/2}) on the grid, B = 1 + √μ|D|.

    The first is assembled column by column from `apply_e`, which solves
    with 𝒢̃ and does not use its pseudo-inverse; its top eigenvalue is 𝔢.
    """
    from twofluid import apply_multiplier

    smu = np.sqrt(state.params.mu)
    b_inv_half = apply_multiplier(
        state.grid, lambda k: 1.0 / np.sqrt(1.0 + smu * np.abs(k)), np.eye(state.grid.n)
    )
    cols = np.array([apply_e(state, col) for col in b_inv_half])
    mat = state.params.mu * b_inv_half @ cols.T
    return 0.5 * (mat + mat.T), b_inv_half
