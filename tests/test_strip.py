import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twofluid import (
    DegenerateGeometryError,
    IncompatibleDataError,
    InterfaceState,
    NumericalError,
    PeriodicGrid,
    StripOperator,
    apply_multiplier,
    config_from_dimensionless,
    derive_params,
    dn_apply,
    inner,
    invert_j,
)
from twofluid import strip
from twofluid.spectral import deriv
from conftest import curved_layer_dn, flat_dn_symbol, smooth_field


def test_trivial_diffeo_fields(grid64):
    x = grid64.nodes
    zeta = 0.5 * np.cos(x)
    d = StripOperator(grid64, zeta, 0.4, 1.0, +1, n_z=16)
    assert np.allclose(d.p11, 1.0 + 0.2 * np.cos(x)[None, :], atol=1e-14)
    # at x = 0 the slope vanishes, so p12 = 0 and p22 = 1/p11 there
    assert d.p12[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert d.p22[0, 0] == pytest.approx(1.0 / 1.2, rel=1e-6)
    # hand check of p entries at a generic node against the closed forms
    j = 5
    zx = deriv(grid64, zeta)
    for iz in (0, 7, 15):
        z_half = -1.0 + (iz + 0.5) / 16
        sx = 0.4 * (1.0 + z_half) * zx[j]
        assert d.p12[iz, j] == pytest.approx(-1.0 * sx, rel=1e-10)
        assert d.p22[iz, j] == pytest.approx(
            (1.0 + sx**2) / (1.0 + 0.4 * zeta[j]), rel=1e-10
        )


def test_trivial_diffeo_flat_is_identity(grid64):
    d = StripOperator(grid64, np.zeros(64), 0.4, 0.7, -1, n_z=8)
    assert np.allclose(d.p11, 1.0)
    assert np.allclose(d.p12, 0.0)
    assert np.allclose(d.p22, 1.0)
    d0 = StripOperator(grid64, 0.3 * np.cos(grid64.nodes), 0.0, 0.7, -1, n_z=8)
    assert np.allclose(d0.p12, 0.0)


def test_depth_violation_raises(grid64):
    # a standalone layer checks its own depth; only a state passes one in
    for sign in (+1, -1):
        with pytest.raises(DegenerateGeometryError):
            StripOperator(grid64, -1.05 * sign * np.ones(64), 1.0, 1.0, sign, n_z=8)


def test_dirichlet_constant_is_exact(grid64):
    d = StripOperator(grid64, 0.3 * np.cos(grid64.nodes), 0.3, 0.5, +1, n_z=16)
    sol = d.solve_dirichlet(2.5 * np.ones(64))
    assert np.allclose(sol.phi, 2.5, atol=1e-9)


def test_dirichlet_flat_separable_solution(grid64):
    mu = 0.49
    k = 2
    smu = math.sqrt(mu)
    # rows run from the wall to the interface: f is the distance from the wall
    f = np.arange(65) / 64.0
    exact = np.cos(k * grid64.nodes)[None, :] * (
        np.cosh(smu * k * f) / math.cosh(smu * k)
    )[:, None]
    for sign in (+1, -1):
        d = StripOperator(grid64, np.zeros(64), 0.0, mu, sign, n_z=64)
        sol = d.solve_dirichlet(np.cos(k * grid64.nodes))
        assert np.max(np.abs(sol.phi - exact)) < 2e-4


@pytest.mark.parametrize("eps, mu", [(0.0, 0.5), (0.4, 0.05), (0.6, 2.0)])
def test_upper_layer_over_minus_zeta_is_lower_layer_over_zeta(grid64, eps, mu):
    # the two layers pose one problem seen from opposite walls: with rows
    # numbered from the wall, the upper layer over −ζ is the lower layer over ζ
    zeta = 0.5 * np.cos(grid64.nodes) + 0.2 * np.sin(3 * grid64.nodes)
    lower = StripOperator(grid64, zeta, eps, mu, +1, n_z=16)
    upper = StripOperator(grid64, -zeta, eps, mu, -1, n_z=16)
    assert np.array_equal(upper.dn_matrix, lower.dn_matrix)
    assert np.array_equal(dn_apply(upper, zeta), -dn_apply(lower, zeta))
    # the same field, row j at the same distance from the wall
    psi = np.sin(2 * grid64.nodes) + 0.3
    assert np.array_equal(upper.solve_dirichlet(psi).phi, lower.solve_dirichlet(psi).phi)


def test_dirichlet_residual_reduction_under_z_refinement(grid64):
    zeta = 0.1 * np.cos(grid64.nodes)
    psi = np.sin(grid64.nodes)
    ref = dn_apply(
        StripOperator(grid64, zeta, 0.3, 0.8, +1, n_z=512), psi
    )
    errs = []
    for nz in (32, 64, 128):
        g = dn_apply(StripOperator(grid64, zeta, 0.3, 0.8, +1, n_z=nz), psi)
        errs.append(np.linalg.norm(g - ref))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for o in orders:
        assert 1.7 <= o <= 2.3


def test_neumann_zero_data(grid64):
    d = StripOperator(grid64, 0.2 * np.cos(grid64.nodes), 0.3, 0.5, -1, n_z=16)
    assert np.allclose(d.solve_neumann(np.zeros(64)), 0.0, atol=1e-12)


def test_neumann_flat_inverse_multiplier(grid64):
    mu = 0.81
    k = 3
    d = StripOperator(grid64, np.zeros(64), 0.0, mu, -1, n_z=256)
    g = np.cos(k * grid64.nodes)
    tr = d.solve_neumann(g)
    smu = math.sqrt(mu)
    expected = -np.cos(k * grid64.nodes) / (smu * k * math.tanh(smu * k))
    assert np.max(np.abs(tr - expected)) < 5e-5


def test_neumann_rejects_nonzero_mean(grid64):
    d = StripOperator(grid64, np.zeros(64), 0.0, 0.5, -1, n_z=16)
    with pytest.raises(IncompatibleDataError):
        d.solve_neumann(np.cos(grid64.nodes) + 0.7)
    # the bound is relative: a mean ten times the oscillation of small data
    # is not rounding, while unit data may carry a rounding-level mean
    c2 = np.cos(2 * grid64.nodes)
    with pytest.raises(IncompatibleDataError):
        d.solve_neumann(1e-10 * c2 + 1e-9)
    d.solve_neumann(c2 + 1e-9)


def test_neumann_rejects_nyquist_data():
    # the Nyquist flux lies outside the range of the discrete operator, like
    # the mean: dropping it would answer a different problem
    grid = PeriodicGrid(16)
    d = StripOperator(grid, np.zeros(16), 0.0, 0.5, -1, n_z=16)
    nyq = np.cos(np.pi * np.arange(16))
    with pytest.raises(IncompatibleDataError):
        d.solve_neumann(np.cos(grid.nodes) + 0.5 * nyq)
    d.solve_neumann(np.cos(grid.nodes) + 1e-10 * nyq)


def test_neumann_dirichlet_round_trip(grid64, rng):
    d = StripOperator(grid64, 0.25 * np.cos(grid64.nodes), 0.3, 0.6, -1, n_z=48)
    g = smooth_field(rng, grid64)
    g -= np.mean(g)
    tr = d.solve_neumann(g)
    back = dn_apply(d, tr)
    assert np.max(np.abs(back - g)) < 1e-7 * max(1.0, np.max(np.abs(g)))


def test_solves_exit_on_the_true_residual(grid64, monkeypatch):
    d = StripOperator(grid64, 0.25 * np.cos(grid64.nodes), 0.3, 0.6, -1, n_z=16)
    psi = np.sin(grid64.nodes)
    assert 0.0 < d.solve_dirichlet(psi).residual_norm <= 1e-12
    # the Neumann solve is checked on S, through the DN map
    u = d.solve_neumann(psi)
    assert np.linalg.norm(dn_apply(d, u) - psi) <= 1e-12 * np.linalg.norm(psi)
    for solve in (d.solve_dirichlet, d.solve_neumann):
        # non-finite data never comes back as an answer
        with pytest.raises(NumericalError):
            solve(np.where(np.arange(64) == 3, np.nan, psi))
    # the residual check runs: no answer meets a bound below rounding
    monkeypatch.setattr(strip, "RESIDUAL_TOL", 1e-300)
    for solve in (d.solve_dirichlet, d.solve_neumann):
        with pytest.raises(NumericalError):
            solve(psi)


def test_range_solver_rejects_a_matrix_without_a_cholesky_factor():
    # -I + Π is not positive definite: the factorization fails, and the
    # failure is the package's NumericalError, not LAPACK's info code
    with pytest.raises(NumericalError, match="Cholesky factorization failed"):
        strip._RangeSolver(-np.eye(16), "negative definite")


def test_dn_constant_maps_to_zero(grid64):
    d = StripOperator(grid64, 0.3 * np.sin(grid64.nodes), 0.2, 0.4, +1, n_z=24)
    out = dn_apply(d, np.ones(64))
    assert np.max(np.abs(out)) < 1e-10
    assert abs(np.mean(out)) < 1e-12


def curved_dn_error(n, zeta_modes, eps, mu, sign, modes, n_z):
    """max|G±ψ − exact|/max|exact| of one layer on N = n points against the
    closed form of curved_layer_dn."""
    grid = PeriodicGrid(n)
    zeta, psi, exact = curved_layer_dn(grid, zeta_modes, eps, mu, sign, modes)
    out = dn_apply(StripOperator(grid, zeta, eps, mu, sign, n_z=n_z), psi)
    return float(np.max(np.abs(out - exact)) / np.max(np.abs(exact)))


def test_curved_dn_map_converges_at_second_order_in_n_z():
    # ε ≤ 0.6, μ ∈ [0.05, 1], sup|ζ| = 1 on modes 1 and 2, ψ on mode 1 and
    # a mode k ≤ 3, both layers: each doubling of n_z from 8 to 32 divides
    # the error by 3.94–4.01 over 300 draws (N = 32, 64), 5.8e-5 at most at
    # n_z = 32; on 32 points a mode k = 4 of ψ brings the x error in
    rng = np.random.default_rng(26)
    for _ in range(8):
        eps, mu, n = rng.uniform(0.0, 0.6), rng.uniform(0.05, 1.0), int(rng.choice([32, 64]))
        c = rng.uniform(-1.0, 1.0, 4) * [1.0, 1.0, 0.3, 0.3]
        c /= np.sum(np.abs(c))
        zeta_modes = [(1, c[0], c[1]), (2, c[2], c[3])]
        modes = [(1, rng.normal()), (int(rng.integers(2, 4)), rng.normal())]
        for sign in (+1, -1):
            e = [curved_dn_error(n, zeta_modes, eps, mu, sign, modes, n_z) for n_z in (8, 16, 32)]
            assert 3.9 <= e[0] / e[1] <= 4.05 and 3.9 <= e[1] / e[2] <= 4.05
            assert e[2] <= 1e-4


@pytest.mark.parametrize("sign", [+1, -1])
def test_curved_dn_map_error_floor_is_the_x_resolution(sign):
    # ζ = cos x + 0.3 cos 4x at ε = 0.6, μ = 1 thins the upper layer to 0.22
    # and the lower one to 0.4: on 32 points the error stops at 3.3e-3
    # (lower) or 5.2e-3 (upper) however fine n_z, on 64 points it is the
    # O(n_z⁻²) error again, and each doubling of N divides it by 37 or more
    zeta_modes, modes = [(1, 1.0, 0.0), (4, 0.3, 0.0)], [(1, 1.0), (3, 0.3)]

    def error(n, n_z):
        return curved_dn_error(n, zeta_modes, 0.6, 1.0, sign, modes, n_z)

    assert error(32, 32) == pytest.approx(error(32, 64), rel=0.02)
    assert 3.9 <= error(64, 32) / error(64, 64) <= 4.05
    assert error(16, 64) >= 20.0 * error(32, 64) >= 400.0 * error(64, 64)


def test_dn_flat_matches_multiplier(grid64):
    mu = 1.0
    d = StripOperator(grid64, np.zeros(64), 0.0, mu, +1, n_z=256)
    psi = np.cos(grid64.nodes)
    g = dn_apply(d, psi)
    exact = math.tanh(1.0) * np.cos(grid64.nodes)
    assert np.linalg.norm(g - exact) / np.linalg.norm(exact) < 1e-6
    assert np.allclose(apply_multiplier(grid64, lambda k: flat_dn_symbol(mu, k), psi), exact,
                       atol=1e-12)


def test_dn_flat_sign_and_small_mu(grid64):
    psi = np.cos(2 * grid64.nodes)
    mu = 1e-6
    # G⁻ = −Op(flat_dn_symbol) on the upper layer
    out = apply_multiplier(grid64, lambda k: -flat_dn_symbol(mu, k), psi)
    # tanh(y) ~ y: leading order -mu k^2 psi
    assert np.allclose(out, -mu * 4 * psi, rtol=1e-3)
    assert np.allclose(apply_multiplier(grid64, lambda k: flat_dn_symbol(0.7, k), np.ones(64)),
                       0.0, atol=1e-14)


def test_dn_symmetry_sign_mean(grid64, rng):
    zeta = smooth_field(rng, grid64, k_max=3, amplitude=1.0)
    for sign, eps_l, mu_l in ((+1, 0.3, 0.5), (-1, 0.25, 0.9), (+1, 0.1, 0.05)):
        d = StripOperator(grid64, zeta, eps_l, mu_l, sign, n_z=32)
        for _ in range(7):
            p1 = smooth_field(rng, grid64)
            p2 = smooth_field(rng, grid64)
            g1 = dn_apply(d, p1)
            g2 = dn_apply(d, p2)
            s12 = inner(grid64, p1, g2)
            s21 = inner(grid64, p2, g1)
            scale = max(abs(s12), abs(s21), 1e-30)
            assert abs(s12 - s21) / scale < 1e-9
            assert sign * inner(grid64, p1, g1) >= -1e-12
            assert abs(np.mean(g1)) < 1e-10 * max(1.0, np.max(np.abs(g1)))


@pytest.mark.parametrize("sign", [+1, -1], ids=["lower", "upper"])
@pytest.mark.parametrize("base", [0.0, 0.3], ids=["flat", "wavy"])
def test_dn_shape_derivative_oracle(grid64, sign, base):
    # finite-difference quotient around the interface ζ₀ = base·sin 2x against
    # the exact first variation G(ζ₀)[h]ψ = −G(hw) − μ∂x(hV), with the layer's
    # w = (Gψ + μζ₀ₓψₓ)/(1 + μζ₀ₓ²) and V = ψₓ − wζ₀ₓ, first order in the amplitude
    mu_l = 0.64
    h = np.cos(grid64.nodes)
    psi = np.sin(grid64.nodes)
    zeta0 = base * np.sin(2 * grid64.nodes)
    zx, psix = deriv(grid64, zeta0), deriv(grid64, psi)
    d0 = StripOperator(grid64, zeta0, 1.0, mu_l, sign, n_z=192)
    g0 = dn_apply(d0, psi)
    w = (g0 + mu_l * zx * psix) / (1.0 + mu_l * zx**2)
    v = psix - w * zx
    exact = -dn_apply(d0, h * w) - mu_l * deriv(grid64, h * v)
    errs = []
    eps_list = (0.04, 0.02, 0.01, 0.005)
    for ep in eps_list:
        d1 = StripOperator(grid64, zeta0 + ep * h, 1.0, mu_l, sign, n_z=192)
        fd = (dn_apply(d1, psi) - g0) / ep
        errs.append(np.linalg.norm(fd - exact) / np.linalg.norm(exact))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.0, 0.6),
    mu=st.floats(1e-3, 2.0),
    sign=st.sampled_from((+1, -1)),
    n_z=st.integers(2, 24),
)
def test_block_elimination_properties(seed, eps, mu, sign, n_z):
    grid = PeriodicGrid(16)
    n = grid.n
    rng = np.random.default_rng(seed)
    zeta = smooth_field(rng, grid, k_max=3)
    d = StripOperator(grid, zeta, eps, mu, sign, n_z=n_z)
    # the row and off-diagonal blocks assemble to the matrix-free operator
    a = np.zeros((n_z + 1, n, n_z + 1, n))
    rows, offs_t = d._blocks()
    for i in range(n_z + 1):
        a[i, :, i] = rows[i]
    for i in range(n_z):
        a[i, :, i + 1] = offs_t[i].T
        a[i + 1, :, i] = offs_t[i]
    phi = rng.standard_normal((n_z + 1, n))
    ref = d.apply(phi).ravel()
    blocks = a.reshape(ref.size, ref.size) @ phi.ravel()
    assert np.linalg.norm(blocks - ref) <= 1e-12 * np.linalg.norm(ref)
    # S: symmetric, positive semi-definite, zero on constants and Nyquist
    s = d.dn_matrix
    scale = np.linalg.norm(s, 2)
    assert np.array_equal(s, s.T)
    for v in (np.ones(n), np.cos(np.pi * np.arange(n))):
        assert np.linalg.norm(s @ v) <= 1e-12 * scale * np.linalg.norm(v) * n_z
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-12 * scale * n_z
    assert np.allclose(dn_apply(d, np.ones(n)), 0.0, atol=1e-12 * scale * n_z)
    # S against an oracle that shares nothing with the sweep: the dense
    # operator from the matrix-free apply, and its Schur complement on the
    # interface row.  S is A_II minus a product of about the same size: at
    # μ = 1e-3 it is 1e3 times smaller than the interface block A_II, and any
    # elimination loses those digits (up to 1.8e-12 of ‖S‖ but 1.8e-15 of
    # ‖A_II‖, measured for this sweep and for the cell-by-cell one before
    # it), so the bound is relative to ‖A_II‖
    size = (n_z + 1) * n
    dense = np.column_stack([d.apply(e.reshape(n_z + 1, n)).ravel() for e in np.eye(size)])
    iface = np.arange(n_z * n, (n_z + 1) * n)
    rest = np.setdiff1d(np.arange(size), iface)
    a_ii = dense[np.ix_(iface, iface)]
    schur = a_ii - dense[np.ix_(iface, rest)] @ np.linalg.solve(
        dense[np.ix_(rest, rest)], dense[np.ix_(rest, iface)]
    )
    assert np.linalg.norm(s - schur) <= 1e-13 * np.linalg.norm(a_ii)
    # non-finite data raises in both field solves and in the coupled solve
    bad = np.where(np.arange(n) == 5, np.inf, np.sin(grid.nodes))
    for solve in (d.solve_dirichlet, d.solve_neumann):
        with pytest.raises(NumericalError):
            solve(bad)
    p = derive_params(config_from_dimensionless(max(eps, 0.01), mu, 0.4, 1.0, 100.0))
    state = InterfaceState(grid=grid, zeta=zeta, psi=np.sin(grid.nodes), params=p, n_z=n_z)
    with pytest.raises(NumericalError):
        invert_j(state, bad)


def test_dn_matrix_factors_each_eliminated_row_once(grid64, monkeypatch):
    factored = []
    cholesky = strip._cholesky

    def counted(a):
        factored.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(strip, "_cholesky", counted)
    n_z = 12
    d = StripOperator(grid64, 0.25 * np.cos(grid64.nodes), 0.3, 0.6, -1, n_z=n_z)
    d.dn_matrix
    assert factored == [(64, 64)] * n_z
    d.dn_matrix
    assert len(factored) == n_z


def test_neumann_solve_reuses_s_without_a_sweep(grid64, monkeypatch):
    factored, swept = [], []
    cholesky, sweep = strip._cholesky, StripOperator._sweep

    def counted_cholesky(a):
        factored.append(a.shape)
        return cholesky(a)

    def counted_sweep(self):
        swept.append(self.sign)
        return sweep(self)

    monkeypatch.setattr(strip, "_cholesky", counted_cholesky)
    monkeypatch.setattr(StripOperator, "_sweep", counted_sweep)
    d = StripOperator(grid64, 0.25 * np.cos(grid64.nodes), 0.3, 0.6, -1, n_z=12)
    d.dn_matrix
    factored.clear()
    swept.clear()
    d.solve_neumann(np.sin(grid64.nodes))
    d.solve_neumann(np.cos(3 * grid64.nodes))
    # one factor of S + Π, kept for the second call
    assert factored == [(64, 64)]
    assert swept == []
