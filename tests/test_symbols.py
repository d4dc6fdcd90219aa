import math

import numpy as np
import pytest

from twofluid import (
    InterfaceState,
    PeriodicGrid,
    TailSymbolSet,
    apply_symbol,
    config_from_dimensionless,
    apply_multiplier,
    derive_params,
    norm_hdot_mu,
    norm_sobolev,
    symbol_comparisons,
)
from twofluid.spectral import _gauge_constants
from twofluid.symbols import _arctan_ratio
from conftest import flat_dn_symbol, smooth_field


def make_symbols(grid, zeta, eps=0.3, mu=0.5, rbm=0.4, ratio=1.5):
    p = derive_params(config_from_dimensionless(eps, mu, rbm, ratio, 100.0))
    return TailSymbolSet(grid, zeta, p), p


def test_tail_flat_cases(grid64):
    ts, p = make_symbols(grid64, np.zeros(64))
    xi = np.array([0.5, 1.0, 3.0])
    assert np.allclose(ts.t(0.0, xi, +1), np.abs(xi), atol=1e-14)
    # constant zeta: slope vanishes, depth factor (1 +- eps_l * c) survives
    ts_c, p_c = make_symbols(grid64, 0.5 * np.ones(64))
    assert np.allclose(
        ts_c.t(1.0, xi, +1), (1 + p_c.eps_plus * 0.5) * np.abs(xi), rtol=1e-12
    )
    assert np.allclose(
        ts_c.t(1.0, xi, -1), (1 - p_c.eps_minus * 0.5) * np.abs(xi), rtol=1e-12
    )


def test_tail_unit_slope_factor(grid64):
    # where eps*sqrt(mu)*zeta_x = 1 the slope factor is arctan(1)/1 = pi/4
    ts, p = make_symbols(grid64, np.cos(grid64.nodes), eps=0.5, mu=0.25)
    scale = p.eps * math.sqrt(p.mu)
    zeta = np.cos(grid64.nodes) / scale  # slope -sin(x)/1 at scale 1
    ts = TailSymbolSet(grid64, zeta, p)
    x_star = 3 * math.pi / 2  # zeta_x = 1/scale there, so scaled slope = 1
    got = ts.t(x_star, 1.0, +1)
    depth = 1.0 + p.eps_plus * float(np.interp(x_star, grid64.nodes, zeta))
    assert got == pytest.approx(depth * math.pi / 4.0, rel=1e-6)


def test_arctan_ratio_at_its_removable_singularity():
    # 1 at y = 0, and the series 1 − y²/3 + y⁴/5 to within 1 ulp near it
    assert _arctan_ratio(0.0) == 1.0
    small = np.geomspace(1e-300, 1e-6, 400, endpoint=False)
    for y in (small, -small):
        series = 1.0 - y**2 / 3.0 + y**4 / 5.0
        assert np.all(np.abs(_arctan_ratio(y) - series) <= np.spacing(series))


def t_quadrature(ts, x, xi, sign):
    """Tail symbol t±(x, ξ) by its vertical-average definition, independent
    of the closed form: 96-point Gauss-Legendre integration of
    |ξ| / (1 + ε²μ(1+z)²(∂xζ)²) over z ∈ [−1, 0]."""
    p = ts.params
    eps_l, _ = p.layer(sign)
    zv = ts._at(x, ts.zeta)
    zxv = ts._at(x, ts.zeta_x)
    nodes, weights = np.polynomial.legendre.leggauss(96)
    z = 0.5 * (nodes - 1.0)  # map [-1,1] -> [-1,0]
    a2 = p.eps**2 * p.mu * zxv**2
    integ = sum(0.5 * wj / (1.0 + a2 * (1.0 + zj) ** 2) for zj, wj in zip(z, weights))
    return (1.0 + sign * eps_l * zv) * integ * np.abs(xi)


def test_tail_closed_form_matches_quadrature(grid64, rng):
    zeta = smooth_field(rng, grid64, 4, 1.0)
    ts, p = make_symbols(grid64, zeta, eps=0.45, mu=0.8)
    xs = rng.uniform(0, grid64.length, size=200)
    xis = rng.uniform(-8, 8, size=200)
    for sign in (+1, -1):
        closed = ts.t(xs, xis, sign)
        quad = t_quadrature(ts, xs, xis, sign)
        assert np.max(np.abs(closed - quad)) < 1e-10 * max(1.0, np.max(np.abs(closed)))


def test_s_basic_properties(grid64, rng):
    zeta = smooth_field(rng, grid64, 3, 1.0)
    ts, p = make_symbols(grid64, zeta, eps=0.3, mu=0.7)
    x = grid64.nodes[7]
    assert ts.s(x, 0.0, +1) == 0.0
    # even in xi, strictly increasing in |xi|
    xis = np.linspace(0.25, 12.0, 40)
    for sign in (+1, -1):
        sv = ts.s(x, xis, sign)
        assert np.allclose(sv, ts.s(x, -xis, sign), rtol=1e-14)
        assert np.all(np.diff(sv) > 0.0)
        assert np.all(sv > 0.0)


def test_s_flat_value(grid64):
    p = derive_params(config_from_dimensionless(0.0, 1.0, 0.3, 1.0, 100.0))
    # equal depths: hbar = 1 so mu_layer = 1
    ts = TailSymbolSet(grid64, np.zeros(64), p)
    assert ts.s(0.3, 1.0, +1) == pytest.approx(math.tanh(1.0), rel=1e-12)


def test_flat_symbol_equals_dn_flat(grid64, rng):
    ts, p = make_symbols(grid64, np.zeros(64), eps=0.0, mu=0.6)
    psi = smooth_field(rng, grid64)
    for sign, mu_l in ((+1, p.mu_plus), (-1, p.mu_minus)):
        out = apply_symbol(grid64, lambda x, k: ts.s(x, k, sign), psi)
        exact = apply_multiplier(grid64, lambda k: flat_dn_symbol(mu_l, k), psi)
        assert np.max(np.abs(out - exact)) < 1e-12


def test_tail_symbols_of_a_flat_interface_are_the_flat_multipliers(grid64):
    # the one source of flat multipliers: at zeta = 0 the composed tail
    # symbols equal their closed forms in the flat layer symbols s± on every
    # grid wavenumber, including xi = 0, where J takes the gauged value
    # J.1 = rhobar_plus and the ratios 0; the xi -> 0 limit of J would be 1.2 here
    ts, p = make_symbols(grid64, np.zeros(64))
    x, k = grid64.nodes[:, None], grid64.wavenumbers
    sp, sm = flat_dn_symbol(p.mu_plus, k), flat_dn_symbol(p.mu_minus, k)
    ratio = np.divide(sp, sm, out=np.zeros(64), where=k != 0.0)
    j = p.rhobar_plus + p.rhobar_minus * (p.hbar_minus / p.hbar_plus) * ratio
    mix = sp * (p.rhobar_minus / p.hbar_plus) + sm * (p.rhobar_plus / p.hbar_minus)
    assert k[0] == 0.0 and j[0] == p.rhobar_plus == 0.6
    for got, want in (
        (ts.j_symbol(x, k), j),
        (ts.mix_symbol(x, k), mix),
        (ts.dn_ratio_symbol(x, k), -ratio),
        (ts.coupled_ratio_symbol(x, k), -ratio / (p.hbar_plus * j)),
    ):
        assert got.shape == (64, 64)
        np.testing.assert_allclose(got, np.broadcast_to(want, got.shape), rtol=1e-14, atol=0.0)


def make_state(grid, zeta, eps, mu, rbm=0.4, ratio=1.5, bond=100.0, n_z=96):
    p = derive_params(config_from_dimensionless(eps, mu, rbm, ratio, bond))
    return InterfaceState(grid=grid, zeta=zeta, psi=np.zeros(grid.n), params=p, n_z=n_z)


def dn_errors(eps_mu, n_z=128):
    """Per (ε, μ): the L² and H^{1/2} errors of Op(S⁺) against G⁺, the L²
    error of the tail-less symbol and ‖G⁺ψ‖, on ζ = cos x and ψ = sin x at
    ρ̄⁻ = 0.4, equal layer depths and no surface tension."""
    grid = PeriodicGrid(64)
    zeta, psi = np.cos(grid.nodes), np.sin(grid.nodes)
    rows = {}
    for eps, mu in eps_mu:
        st = make_state(grid, zeta, eps, mu, ratio=1.0, bond=math.inf, n_z=n_z)
        pairs = symbol_comparisons(st, psi)
        exact, symbol = pairs["dn"]
        tailless = pairs["dn_tailless"][1]
        rows[eps, mu] = {
            "err_hs": norm_sobolev(grid, exact - symbol, 0.0),
            "err_hs_half": norm_sobolev(grid, exact - symbol, 0.5),
            "err_tailless": norm_sobolev(grid, exact - tailless, 0.0),
            "norm_exact": norm_sobolev(grid, exact, 0.0),
        }
    return rows


def test_dn_symbol_error_flat_row_and_eps_slope():
    rows = dn_errors([(0.0, 0.5), (0.05, 0.5), (0.1, 0.5), (0.2, 0.5)])
    # flat row sits at the discretization floor, far below the eps > 0 rows
    assert rows[0.0, 0.5]["err_hs"] < 5e-6
    assert rows[0.0, 0.5]["err_hs"] < 1e-3 * rows[0.05, 0.5]["err_hs"]
    eps = [0.05, 0.1, 0.2]
    errs = [rows[e, 0.5]["err_hs_half"] for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
    assert 0.8 <= slope <= 1.2


def test_dn_tailless_error_does_not_vanish():
    rows = list(dn_errors([(0.1, m) for m in (0.5, 0.1, 0.02)]).values())
    ratios = [r["err_tailless"] / r["norm_exact"] for r in rows]
    with_tail = [r["err_hs"] / r["norm_exact"] for r in rows]
    # tail-less relative error grows toward shallow water; with tail it stays small
    assert ratios[-1] > 0.5
    assert ratios[-1] >= ratios[0]
    assert with_tail[-1] < 0.1 * ratios[-1]


def ratio_errors(state, f):
    """Per ratio comparison: its discrepancy and the norm of its exact side,
    in the shallowness-adapted 1/2 norm."""
    pairs, mu = symbol_comparisons(state, f), state.params.mu
    return {key: (norm_hdot_mu(state.grid, pairs[key][0] - pairs[key][1], 0.0, mu),
                  norm_hdot_mu(state.grid, pairs[key][0], 0.0, mu))
            for key in ("dn_ratio", "coupled_ratio", "p2_mix")}


def test_ratio_symbol_sides_take_the_gauge_of_the_exact_solves(rng):
    # the exact sides come from gauged solves; each symbol side is projected
    # with the same Π, so neither has a mean or a Nyquist part
    grid = PeriodicGrid(32)
    zeta = np.cos(grid.nodes) + 0.3 * np.sin(2.0 * grid.nodes)
    pairs = symbol_comparisons(make_state(grid, zeta, 0.3, 0.05, n_z=16),
                               smooth_field(rng, grid, k_max=8))
    nyq = _gauge_constants(grid.n)[0]
    for key in ("dn_ratio", "coupled_ratio", "p2_mix"):
        for side in pairs[key]:
            top = np.max(np.abs(side))
            assert abs(np.mean(side)) <= 1e-14 * top
            assert abs(side @ nyq) / grid.n <= 1e-14 * top


def test_ratio_symbol_flat_is_floor(grid64, rng):
    f = smooth_field(rng, grid64)
    st = make_state(grid64, np.zeros(64), 0.0, 0.5, n_z=256)
    for discrepancy, norm_exact in ratio_errors(st, f).values():
        assert discrepancy < 5e-5 * max(norm_exact, 1.0)


def test_ratio_symbol_eps_slope(grid64):
    f = np.sin(grid64.nodes)
    zeta = np.cos(grid64.nodes)
    errs = []
    eps_list = (0.05, 0.1, 0.2)
    for eps in eps_list:
        st = make_state(grid64, zeta, eps, 0.5, n_z=128)
        errs.append(ratio_errors(st, f)["dn_ratio"][0])
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_ratio_symbol_water_waves_collapse(grid64, rng):
    # with a massless upper fluid the coupling symbol is the constant rhobar_plus,
    # so the coupled comparison collapses onto the plain DN ratio
    zeta = 0.4 * np.cos(grid64.nodes)
    st = make_state(grid64, zeta, 0.25, 0.5, rbm=0.0, ratio=1.0)
    ts = TailSymbolSet(grid64, zeta, st.params)
    k = grid64.wavenumbers
    sj = ts.j_symbol(grid64.nodes[:, None], k[None, :])
    assert np.allclose(sj, st.params.rhobar_plus, atol=1e-14)
    f = smooth_field(rng, grid64)
    errs = ratio_errors(st, f)
    assert errs["dn_ratio"][0] == pytest.approx(errs["coupled_ratio"][0], rel=1e-6)
