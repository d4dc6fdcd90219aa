import numpy as np
import pytest

from twofluid import PeriodicGrid


@pytest.fixture
def grid64():
    return PeriodicGrid(64)


@pytest.fixture
def grid32():
    return PeriodicGrid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def smooth_field(rng, grid, k_max=6, amplitude=1.0):
    """Random band-limited real field, reproducible from the rng state."""
    x = grid.nodes
    u = np.zeros(grid.n)
    for k in range(1, k_max + 1):
        u += rng.normal() * np.cos(k * grid.k_fundamental * x)
        u += rng.normal() * np.sin(k * grid.k_fundamental * x)
    return amplitude * u / max(np.max(np.abs(u)), 1e-30)


def linear_mode_rates(params, grid, n_z, k):
    """Rates (a, b) of the program's own linear flow on the mode cos(kx).

    On that mode the semi-discrete linearisation reads ∂tζ = a ψ, ∂tψ = −b ζ,
    so a = 𝒢_h(k)/μ carries the discrete coupled symbol, the invariant is
    b|ζ̂ₖ|² + a|ψ̂ₖ|² and the frequency the time stepper sees is ω_h = √(ab).
    Both rates are read from `rhs` on (ζ, ψ) = (0, δ cos kx) and
    (δ cos kx, 0); the nonlinear terms enter at O((εδ)²) of them.
    """
    from twofluid import InterfaceState, rhs

    mode = 1e-3 * np.cos(k * grid.k_fundamental * grid.nodes)
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
    from twofluid import apply_e, apply_multiplier

    smu = np.sqrt(state.params.mu)
    b_inv_half = apply_multiplier(
        state.grid, lambda k: 1.0 / np.sqrt(1.0 + smu * np.abs(k)), np.eye(state.grid.n)
    )
    cols = np.array([apply_e(state, col) for col in b_inv_half])
    mat = state.params.mu * b_inv_half @ cols.T
    return 0.5 * (mat + mat.T), b_inv_half
