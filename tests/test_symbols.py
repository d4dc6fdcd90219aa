import math

import numpy as np
import pytest

from twofluid import (
    InterfaceState,
    PeriodicGrid,
    TailSymbolSet,
    apply_symbol,
    config_from_dimensionless,
    derive_params,
    dn_flat,
    ratio_symbol_error,
    tail_error_report,
)
from conftest import smooth_field


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


def test_tail_closed_form_matches_quadrature(grid64, rng):
    zeta = smooth_field(rng, grid64, 4, 1.0)
    ts, p = make_symbols(grid64, zeta, eps=0.45, mu=0.8)
    xs = rng.uniform(0, grid64.length, size=200)
    xis = rng.uniform(-8, 8, size=200)
    for sign in (+1, -1):
        closed = ts.t(xs, xis, sign)
        quad = ts.t_quadrature(xs, xis, sign)
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
        exact = sign * dn_flat(grid64, mu_l, sign, psi)
        assert np.max(np.abs(out - exact)) < 1e-12


def test_tail_report_flat_row_and_eps_slope():
    grid = PeriodicGrid(64)
    zeta = np.cos(grid.nodes)
    psi = np.sin(grid.nodes)
    sweep = [(0.0, 0.5), (0.05, 0.5), (0.1, 0.5), (0.2, 0.5)]
    rep = tail_error_report(grid, zeta, psi, sweep, n_z=128)
    rows = {r["eps"]: r for r in rep.rows}
    assert not any(r["failed"] for r in rep.rows)
    # flat row sits at the discretization floor, far below the eps > 0 rows
    assert rows[0.0]["err_hs"] < 5e-6
    assert rows[0.0]["err_hs"] < 1e-3 * rows[0.05]["err_hs"]
    slope = rep.fit_eps_exponent(mu=0.5)
    assert 0.8 <= slope <= 1.2


def test_tail_report_tailless_ratio_does_not_vanish():
    grid = PeriodicGrid(64)
    zeta = np.cos(grid.nodes)
    psi = np.sin(grid.nodes)
    sweep = [(0.1, m) for m in (0.5, 0.1, 0.02)]
    rep = tail_error_report(grid, zeta, psi, sweep, n_z=128)
    ratios = [r["tailless_ratio"] for r in rep.rows]
    with_tail = [r["err_hs"] / r["norm_exact"] for r in rep.rows]
    # tail-less relative error grows toward shallow water; with tail it stays small
    assert ratios[-1] > 0.5
    assert ratios[-1] >= ratios[0]
    assert with_tail[-1] < 0.1 * ratios[-1]


def test_tail_report_flags_degenerate_rows_and_raises_on_bad_input():
    grid = PeriodicGrid(32)
    zeta = np.cos(grid.nodes)
    psi = np.sin(grid.nodes)
    # at eps = 5 the lower layer pinches off: that row is flagged, the rest run
    rep = tail_error_report(grid, zeta, psi, [(0.1, 0.5), (5.0, 0.5), (0.2, 0.5)], n_z=32)
    assert [r["failed"] for r in rep.rows] == [False, True, False]
    assert "depth vanishes" in rep.rows[1]["error"]
    # a zeta of the wrong shape is a caller error, not a failed row
    with pytest.raises(ValueError):
        tail_error_report(grid, zeta[:-1], psi, [(0.1, 0.5)], n_z=32)


def make_state(grid, zeta, eps, mu, rbm=0.4, ratio=1.5, n_z=96):
    p = derive_params(config_from_dimensionless(eps, mu, rbm, ratio, 100.0))
    return InterfaceState(grid=grid, zeta=zeta, psi=np.zeros(grid.n), params=p, n_z=n_z)


def test_ratio_symbol_flat_is_floor(grid64, rng):
    f = smooth_field(rng, grid64)
    st = make_state(grid64, np.zeros(64), 0.0, 0.5, n_z=256)
    for which in ("dn_ratio", "coupled_ratio", "p2_mix"):
        out = ratio_symbol_error(st, f, which)
        assert out["discrepancy"] < 5e-5 * max(out["norm_exact"], 1.0)


def test_ratio_symbol_eps_slope(grid64):
    f = np.sin(grid64.nodes)
    zeta = np.cos(grid64.nodes)
    errs = []
    eps_list = (0.05, 0.1, 0.2)
    for eps in eps_list:
        st = make_state(grid64, zeta, eps, 0.5, n_z=128)
        errs.append(ratio_symbol_error(st, f, "dn_ratio")["discrepancy"])
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
    a = ratio_symbol_error(st, f, "dn_ratio")
    b = ratio_symbol_error(st, f, "coupled_ratio")
    assert a["discrepancy"] == pytest.approx(b["discrepancy"], rel=1e-6)
