import math

import numpy as np
import pytest

from twofluid import (
    InvalidConfigError,
    NumericalError,
    PeriodicGrid,
    antideriv,
    apply_multiplier,
    apply_symbol,
    dealias,
    deriv,
    inner,
    norm_hdot_mu,
    norm_sobolev,
)
from twofluid.spectral import (_check_range, _dealias_projector, _gauge_constants, _retained,
                               fourier_interpolate)
from conftest import smooth_field


def test_grid_invariants():
    with pytest.raises(InvalidConfigError):
        PeriodicGrid(7)
    with pytest.raises(InvalidConfigError):
        PeriodicGrid(6)
    g = PeriodicGrid(16)
    assert g.length == 2 * math.pi and g.k_max == 8
    assert g.dx == pytest.approx(2 * math.pi / 16, rel=1e-15)
    assert np.allclose(np.diff(g.nodes), g.dx)


@pytest.mark.parametrize("n", [8, 16, 98, 196, 1024])
def test_grid_wavenumbers_are_the_exact_integers(n):
    # 0, 1, …, n/2 − 1, −n/2, …, −1 in float64; fftfreq(n, 1/n) is an ulp
    # off an integer at n = 98 and 196
    k = PeriodicGrid(n).wavenumbers
    assert k.dtype == float
    assert np.array_equal(k, np.concatenate([np.arange(n // 2), np.arange(-(n // 2), 0)]))


def test_grid_arrays_are_read_only():
    # an in-place edit of a cached array would change every later operator
    # on the grid
    g = PeriodicGrid(16)
    for name in ("nodes", "wavenumbers", "deriv_matrix_t", "deriv_gram"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1.0


def test_multiplier_identity(grid64, rng):
    u = smooth_field(rng, grid64)
    out = apply_multiplier(grid64, lambda k: np.ones_like(k), u)
    assert np.allclose(out, u, atol=1e-14)


def test_multiplier_abs_on_sine(grid64):
    x = grid64.nodes
    u = np.sin(3 * x)
    out = apply_multiplier(grid64, np.abs, u)
    assert np.allclose(out, 3 * np.sin(3 * x), atol=1e-12)


def test_multiplier_tanh_on_cosine(grid64):
    x = grid64.nodes
    out = apply_multiplier(grid64, lambda k: np.tanh(np.abs(k)), np.cos(2 * x))
    assert np.allclose(out, math.tanh(2.0) * np.cos(2 * x), atol=1e-12)


def test_multiplier_rejects_nan(grid64, rng):
    u = smooth_field(rng, grid64)
    with pytest.raises(NumericalError):
        apply_multiplier(grid64, lambda k: np.where(k == 0, np.nan, 1.0), u)


def test_deriv_and_antideriv(grid64, rng):
    x = grid64.nodes
    assert np.allclose(deriv(grid64, np.sin(4 * x)), 4 * np.cos(4 * x), atol=1e-11)
    u = smooth_field(rng, grid64)
    u -= np.mean(u)
    assert np.allclose(deriv(grid64, antideriv(grid64, u)), u, atol=1e-11)
    # the real-FFT path agrees with the multiplier iξ, row by row on a stack
    for n in (16, 64, 256):
        g = PeriodicGrid(n)
        v = rng.standard_normal((3, n))
        ref = apply_multiplier(g, lambda k: 1j * k, v)
        assert np.max(np.abs(deriv(g, v) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_symbol_identity_and_collapse(grid64, rng):
    u = smooth_field(rng, grid64)
    out = apply_symbol(grid64, lambda x, k: np.ones(np.broadcast_shapes(x.shape, k.shape)), u)
    assert np.allclose(out, u, atol=1e-12)
    # x-independent symbol must match the multiplier path to rounding
    m = lambda k: np.tanh(0.7 * np.abs(k)) + 0.3
    out_sym = apply_symbol(grid64, lambda x, k: m(k) + 0.0 * x, u)
    out_mul = apply_multiplier(grid64, m, u)
    assert np.max(np.abs(out_sym - out_mul)) <= 1e-13 * max(1.0, np.max(np.abs(u)))


def test_symbol_pointwise_product(grid64, rng):
    u = smooth_field(rng, grid64)
    a = 1.0 + 0.5 * np.cos(grid64.nodes)
    out = apply_symbol(
        grid64, lambda x, k: np.interp(x, grid64.nodes, a, period=grid64.length) + 0.0 * k, u
    )
    assert np.allclose(out, a * u, atol=1e-12)


def test_symbol_deterministic(grid64, rng):
    u = smooth_field(rng, grid64)
    s = lambda x, k: np.cos(x) * np.tanh(np.abs(k)) + 1.0
    out1 = apply_symbol(grid64, s, u)
    out2 = apply_symbol(grid64, s, u)
    assert np.array_equal(out1, out2)


def test_parseval(grid64, rng):
    u = smooth_field(rng, grid64)
    assert norm_sobolev(grid64, u, 0.0) == pytest.approx(math.sqrt(inner(grid64, u, u)),
                                                         rel=1e-12)


def test_sobolev_single_mode_ratio(grid64):
    u = np.cos(5 * grid64.nodes)
    ratio = norm_sobolev(grid64, u, 1.0) / norm_sobolev(grid64, u, 0.0)
    assert ratio == pytest.approx(math.sqrt(1 + 25), rel=1e-12)
    assert norm_sobolev(grid64, np.zeros(64), 2.0) == 0.0


@pytest.mark.filterwarnings("error")
def test_sobolev_norm_with_a_large_finite_weight():
    # the Nyquist mode cos(8x) on 16 nodes has |u|_{H^s} = √(2π)·65^{s/2}; at
    # s = 169 the weight 65^169 times |û|² = 256 overflows, although the
    # norm, 3.893e153, is finite.  A norm past the largest float raises.
    grid = PeriodicGrid(16)
    u = np.cos(8 * grid.nodes)
    for s in (100.0, 169.0):
        exact = math.sqrt(2 * math.pi) * 65.0 ** (s / 2)
        assert norm_sobolev(grid, u, s) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(NumericalError, match="overflows"):
        norm_sobolev(grid, 1e160 * u, 169.0)


def test_hdot_mu_norm(grid64):
    # constants vanish; single-mode value |xi|/(1+sqrt(mu)|xi|)^{1/2}
    assert norm_hdot_mu(grid64, np.ones(64), 0.0, 0.5) == 0.0
    u = np.cos(4 * grid64.nodes)
    val = norm_hdot_mu(grid64, u, 0.0, 1.0) / norm_sobolev(grid64, u, 0.0)
    assert val == pytest.approx(4.0 / math.sqrt(5.0), rel=1e-12)
    # mode-wise monotone nonincreasing in mu
    v1 = norm_hdot_mu(grid64, u, 0.0, 0.1)
    v2 = norm_hdot_mu(grid64, u, 0.0, 0.9)
    assert v2 <= v1
    for mu in (-1.0, -math.inf):
        with pytest.raises(InvalidConfigError):
            norm_hdot_mu(grid64, u, 0.0, mu)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("factor", [2, 8, 16])
def test_fourier_interpolate_is_the_trigonometric_interpolant(n, factor, rng):
    grid, fine = PeriodicGrid(n), PeriodicGrid(n * factor)
    # on the coarse nodes it is the identity, Nyquist mode included: the
    # Nyquist bin used to be counted one and a half times, an error of
    # 1.0·‖u‖∞ on cos(πj)
    nyq = np.cos(np.pi * np.arange(n))
    for u in (nyq, np.cos(3 * grid.nodes) + 0.25 * nyq, rng.standard_normal(n)):
        err = np.max(np.abs(fourier_interpolate(grid, u, fine.n)[::factor] - u))
        assert err <= 1e-14 * np.max(np.abs(u))

    # a band-limited field, its Nyquist part the even cos(ξ_N x), is its own
    # interpolant on the fine grid
    def band_limited(x):
        return (0.5 + np.cos(3 * x) - 0.7 * np.sin((n // 2 - 1) * x)
                + 0.3 * np.cos(n // 2 * x))

    err = np.max(np.abs(fourier_interpolate(grid, band_limited(grid.nodes), fine.n)
                        - band_limited(fine.nodes)))
    assert err <= 1e-13


@pytest.mark.parametrize("rows", [2, 3, 16])
def test_fourier_interpolate_maps_each_row_of_a_stack(rows, rng):
    # each row's Nyquist bin is halved: halving uh[-1] halved the last row's
    # whole transform instead, an error of 0.8 to 1.3 on these stacks
    grid = PeriodicGrid(16)
    stack = rng.standard_normal((rows, grid.n))
    alone = np.array([fourier_interpolate(grid, u, 64) for u in stack])
    err = np.max(np.abs(fourier_interpolate(grid, stack, 64) - alone))
    assert err <= 1e-15 * np.max(np.abs(alone))


def _dealias_fft(grid, u):
    """The real-FFT 2/3-rule projection: the oracle of the cached projector."""
    uh = np.fft.rfft(u, axis=-1)
    uh[..., ~_retained(grid, grid.wavenumbers)[: grid.n // 2 + 1]] = 0.0
    return np.fft.irfft(uh, n=grid.n, axis=-1)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_dealias_matches_the_real_fft(n, rng):
    grid = PeriodicGrid(n)
    for _ in range(100):
        u = rng.standard_normal((2, n))
        # measured at most 1.2e-15·‖u‖∞ on these draws (N = 128), 1.6e-15
        # over four seeds
        err = np.max(np.abs(dealias(grid, u) - _dealias_fft(grid, u)))
        assert err <= 3e-15 * np.max(np.abs(u))


def test_deriv_is_in_the_range_of_a_dn_matrix(rng):
    # the product with Dᵀ leaves rounding on constants and the Nyquist mode,
    # which the projection takes down to rounding of the derivative itself
    for n in (16, 64, 256):
        g = PeriodicGrid(n)
        proj = _gauge_constants(n)[1]
        stack = np.array([np.full(n, 3.0), np.cos(np.pi * np.arange(n)),
                          *rng.standard_normal((3, n))])
        out = deriv(g, stack)
        for row, d in zip(stack, out):
            assert np.max(np.abs(d @ proj)) <= 1e-14 * np.max(np.abs(d))
            _check_range(d, n, "derivative")
            # a row by itself agrees with its row of the stack, to rounding of
            # the terms each entry sums: a matrix-vector product sums them in
            # another order than a matrix product
            terms = np.max(np.abs(stack)) * np.max(np.sum(np.abs(g.deriv_matrix_t), axis=0))
            assert np.max(np.abs(deriv(g, row) - d)) <= 1e-15 * terms


def test_dealias_acts_on_each_row_of_a_stack(grid64, rng):
    rows = np.array([smooth_field(rng, grid64, k_max=30), rng.standard_normal(64)])
    stacked = dealias(grid64, rows)
    assert stacked.shape == rows.shape
    for row, out in zip(rows, stacked):
        assert np.array_equal(out, dealias(grid64, row))


def test_dealias_builds_one_projector_per_grid_value():
    # a fresh grid of the same size reuses the projector, which is
    # read-only; another size gets its own
    p = _dealias_projector(PeriodicGrid(32))
    assert _dealias_projector(PeriodicGrid(32)) is p and not p.flags.writeable
    other = _dealias_projector(PeriodicGrid(16))
    assert other is not p and other.shape == (16, 16)
