import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from twofluid import (
    DegenerateGeometryError,
    IncompatibleDataError,
    InterfaceState,
    InvalidConfigError,
    NumericalError,
    PeriodicGrid,
    StripOperator,
    SWState,
    TailSymbolSet,
    apply_g_tilde,
    apply_j,
    apply_multiplier,
    config_from_dimensionless,
    derive_params,
    dn_apply,
    e_coeff,
    e_quadratic_form,
    flux,
    hyperbolicity_indicator,
    inner,
    invert_g_tilde,
    invert_j,
    norm_hdot_mu,
    transmission_solve,
)
from twofluid import operators, strip
from twofluid.spectral import _deflate, deriv
from conftest import (apply_e, flat_coupled_symbol, flat_symbols, make_state, shear_form_matrix,
                      smooth_field)


def apply_g(state, psi):
    """𝒢ψ = (1/H̄⁺)G⁺J⁻¹ψ, the flux of the transmission problem."""
    return operators._couple(state, psi)[1]


def test_state_depth_guard(grid64):
    with pytest.raises(DegenerateGeometryError):
        make_state(grid64, -5.0 * np.ones(64), np.zeros(64), eps=0.5)


@pytest.mark.parametrize("n_z", [0, -3, 2.0, True])
def test_constructors_reject_a_bad_n_z(grid32, n_z):
    # rejected at construction: n_z = 0 used to construct and divide by zero
    # in the first solve, -3, 2.0 and True to fail inside numpy
    zeta = 0.1 * np.cos(grid32.nodes)
    with pytest.raises(InvalidConfigError):
        make_state(grid32, zeta, np.zeros(32), n_z=n_z)
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    with pytest.raises(InvalidConfigError):
        StripOperator(grid32, zeta, p.eps_plus, p.mu_plus, +1, n_z=n_z)


@pytest.mark.parametrize("build", [
    lambda g, f, p: make_state(g, f, np.zeros(g.n)),
    lambda g, f, p: make_state(g, np.zeros(g.n), f),
    lambda g, f, p: StripOperator(g, f, p.eps_plus, p.mu_plus, +1, n_z=4),
    lambda g, f, p: SWState(grid=g, zeta=f, v=np.zeros(g.n), params=p),
    lambda g, f, p: SWState(grid=g, zeta=np.zeros(g.n), v=f, params=p),
    lambda g, f, p: TailSymbolSet(g, f, p),
], ids=["state-zeta", "state-psi", "strip", "sw-zeta", "sw-v", "tail"])
def test_constructors_check_their_grid_fields(build):
    # a field of another length used to construct an SWState whose fv_step
    # died on a numpy broadcast; a NaN ζ gave a StripOperator and a
    # TailSymbolSet whose symbols were NaN
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    with pytest.raises(ValueError):
        build(grid, np.zeros(10), p)
    with pytest.raises(NumericalError):
        build(grid, np.where(np.arange(16) == 3, np.nan, 0.0), p)


def _three_states(grid, zeta, second):
    """An InterfaceState (ψ = second), an SWState (v = second) and a
    TailSymbolSet over the same ζ."""
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
    return (make_state(grid, zeta, second, n_z=8),
            SWState(grid=grid, zeta=zeta, v=second, params=p),
            TailSymbolSet(grid, zeta, p))


def _results(states):
    st, sw, ts = states
    tr = transmission_solve(st)
    return [np.array(getattr(tr, f.name)) for f in dataclasses.fields(tr)] + [
        np.array(flux(sw)), hyperbolicity_indicator(sw),
        ts.s(ts.grid.nodes, 3.0, -1),
    ]


def test_states_do_not_follow_the_callers_buffers(grid32):
    # each class used to keep the caller's arrays: after a solve, zeroing ζ
    # left the state's ζ flat but its cached S± in place
    x = grid32.nodes
    zeta, second = 0.5 * np.cos(x), np.sin(2 * x)
    # a read-only view of a writeable buffer is copied too
    view = second.view()
    view.flags.writeable = False
    states = _three_states(grid32, zeta, view)
    before = _results(states)
    zeta[:] = 0.0
    second[:] = 0.0
    fresh = _three_states(grid32, 0.5 * np.cos(x), np.sin(2 * x))
    for a, b, c in zip(before, _results(states), _results(fresh)):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_states_are_read_only(grid32):
    # a field reassigned after a read used to leave the caches stale: an
    # SWState reported its old hyperbolicity indicator
    x = grid32.nodes
    for st in _three_states(grid32, 0.5 * np.cos(x), np.sin(x)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.zeta = np.zeros(32)
        for name in ("zeta", "zeta_x", "psi", "v"):
            if hasattr(st, name):
                with pytest.raises(ValueError):
                    getattr(st, name)[0] = 1.0
    st = _three_states(grid32, 0.5 * np.cos(x), np.sin(x))[0]
    with pytest.raises(ValueError):
        st.layer(+1).dn_matrix[0, 0] = 1.0


@pytest.mark.parametrize("name", ["_layers", "_g_tilde", "_x"])
def test_state_takes_no_caches(grid32, name):
    # caches of another state used to be accepted, and gave wrong traces
    a = make_state(grid32, 0.5 * np.cos(grid32.nodes), np.sin(grid32.nodes), n_z=8)
    with pytest.raises(TypeError):
        InterfaceState(grid=a.grid, zeta=a.zeta, psi=a.psi, params=a.params, n_z=8,
                       **{name: None})


def test_layers_are_built_lazily_once(grid64, monkeypatch):
    # the first layer() builds both layers, a second read builds none, and
    # each layer sweeps when its own S is first read
    builds, sweeps = [], []
    init, sweep = StripOperator.__init__, StripOperator._sweep

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counted_sweep(self):
        sweeps.append(self.sign)
        return sweep(self)

    monkeypatch.setattr(StripOperator, "__init__", counted_init)
    monkeypatch.setattr(StripOperator, "_sweep", counted_sweep)
    st = make_state(grid64, 0.3 * np.cos(grid64.nodes), np.zeros(64), n_z=8)
    assert builds == []
    assert st.layer(+1) is st.layer(+1)
    assert len(builds) == 2
    s = st.layer(+1).dn_matrix
    assert st.layer(+1).dn_matrix is s
    assert sweeps == [+1]
    st.layer(-1)
    assert len(builds) == 2
    st.layer(-1).dn_matrix
    assert sweeps == [+1, -1]


def test_state_checks_each_depth_once(grid32, monkeypatch):
    calls = []
    check = strip.layer_depth

    def counted(*args):
        calls.append(args[2])
        return check(*args)

    # the state calls it under the operators name, a standalone layer under strip's
    monkeypatch.setattr(strip, "layer_depth", counted)
    monkeypatch.setattr(operators, "layer_depth", counted)
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), np.zeros(32), n_z=8)
    st.layer(+1), st.layer(-1)
    assert sorted(calls) == [-1, +1]


def test_x_matrices_are_freed_after_the_sweeps(grid32):
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), np.sin(grid32.nodes), n_z=8)
    x = weakref.ref(st.layer(+1)._x)
    assert st.layer(-1)._x is x()
    transmission_solve(st)
    assert x() is None
    # a second sweep of a layer rebuilds them from ζ
    p, psi = st.params, np.cos(3 * grid32.nodes)
    alone = StripOperator(grid32, st.zeta, p.eps_minus, p.mu_minus, -1, n_z=8)
    phi = alone.solve_dirichlet(psi).phi
    assert np.allclose(st.layer(-1).solve_dirichlet(psi).phi, phi, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("sign", [+1, -1], ids=["lower", "upper"])
def test_state_layers_share_one_set_of_x_matrices(grid32, sign, monkeypatch):
    # ε± and μ± differ (depth ratio 1.5, ρ̄⁻ = 0.4), so a layer built with the
    # other layer's parameters or sign would not match the standalone one
    built = []
    init = strip._XMatrices.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(strip._XMatrices, "__init__", counted)
    zeta = 0.6 * np.cos(grid32.nodes) + 0.2 * np.sin(3 * grid32.nodes)
    st = make_state(grid32, zeta, np.zeros(32), eps=0.4, rbm=0.4, ratio=1.5, n_z=12)
    p = st.params
    assert p.eps_plus != p.eps_minus and p.mu_plus != p.mu_minus
    s_state = st.layer(sign).dn_matrix
    st.layer(-sign).dn_matrix
    # the ζ-dependent product Dᵀdiag(ζ)D is formed once for both layers
    assert len(built) == 1
    eps_l, mu_l = (p.eps_plus, p.mu_plus) if sign > 0 else (p.eps_minus, p.mu_minus)
    alone = StripOperator(grid32, zeta, eps_l, mu_l, sign, n_z=12).dn_matrix
    assert len(built) == 2
    assert np.linalg.norm(s_state - alone) <= 1e-13 * np.linalg.norm(alone)


def test_apply_j_water_waves_identity(grid64, rng):
    u = smooth_field(rng, grid64)
    st = make_state(grid64, 0.4 * np.cos(grid64.nodes), np.zeros(64), rbm=0.0, ratio=1.0)
    assert np.allclose(apply_j(st, u), u, atol=1e-14)
    assert np.allclose(invert_j(st, u), u, atol=1e-14)


def test_apply_j_constants(grid64):
    st = make_state(grid64, 0.2 * np.cos(grid64.nodes), np.zeros(64))
    out = apply_j(st, 3.0 * np.ones(64))
    assert np.allclose(out, 3.0 * st.params.rhobar_plus, atol=1e-8)


def test_apply_j_flat_multiplier(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, n_z=192)
    p = st.params
    for k in (1, 3):
        u = np.cos(k * grid64.nodes)
        expected = float(flat_symbols(p).j_symbol(0.0, float(k))) * u
        out = apply_j(st, u)
        assert np.max(np.abs(out - expected)) < 2e-5


def test_invert_j_round_trip(grid64, rng):
    st = make_state(grid64, smooth_field(rng, grid64, 3, 0.8), np.zeros(64))
    for _ in range(3):
        psi = smooth_field(rng, grid64)
        x = invert_j(st, psi)
        back = apply_j(st, x)
        assert np.linalg.norm(back - psi) <= 1e-9 * np.linalg.norm(psi)


def test_invert_j_flat_closed_form(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, n_z=192)
    p = st.params
    k = 2
    psi = np.cos(k * grid64.nodes)
    expected = psi / float(flat_symbols(p).j_symbol(0.0, float(k)))
    assert np.max(np.abs(invert_j(st, psi) - expected)) < 2e-5


def test_invert_j_round_trips_on_a_steep_interface(grid64, rng):
    # a steep interface still inverts J to the round-trip tolerance
    zeta = 0.9 * np.cos(grid64.nodes)
    st = make_state(grid64, zeta, np.zeros(64), eps=0.7, mu=0.3, n_z=32)
    assert st.params.eps * np.max(np.abs(zeta)) > 0.5
    psi = smooth_field(rng, grid64)
    x = invert_j(st, psi)
    assert np.linalg.norm(apply_j(st, x) - psi) <= 1e-9 * np.linalg.norm(psi)


def test_apply_g_flat_multiplier(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, mu=0.7, n_z=192)
    p = st.params
    for k in (1, 4):
        psi = np.sin(k * grid64.nodes)
        expected = flat_coupled_symbol(p, float(k)) * psi
        out = apply_g(st, psi)
        assert np.max(np.abs(out - expected)) < 5e-5


def test_apply_g_water_waves_single_layer(grid64, rng):
    zeta = 0.3 * np.cos(grid64.nodes)
    st = make_state(grid64, zeta, np.zeros(64), rbm=0.0, ratio=1.0)
    psi = smooth_field(rng, grid64)
    out = apply_g(st, psi)
    single = dn_apply(st.layer(+1), psi) / st.params.hbar_plus
    assert np.allclose(out, single, atol=1e-12)


def test_apply_g_constants_and_mean(grid64, rng):
    st = make_state(grid64, 0.25 * np.sin(grid64.nodes), np.zeros(64))
    assert np.max(np.abs(apply_g(st, np.ones(64)))) < 1e-8
    out = apply_g(st, smooth_field(rng, grid64))
    assert abs(np.mean(out)) < 1e-10


def test_g_symmetry_and_coercivity(grid64, rng):
    zeta = smooth_field(rng, grid64, 3, 1.0)
    coercivity = []
    for eps, mu in ((0.1, 0.9), (0.3, 0.3), (0.5, 0.05)):
        st = make_state(grid64, zeta, np.zeros(64), eps=eps, mu=mu)
        for _ in range(4):
            p1 = smooth_field(rng, grid64)
            p2 = smooth_field(rng, grid64)
            g1 = apply_g(st, p1)
            g2 = apply_g(st, p2)
            s12 = inner(grid64, g1, p2)
            s21 = inner(grid64, g2, p1)
            assert abs(s12 - s21) / max(abs(s12), abs(s21), 1e-30) < 1e-9
            quad = inner(grid64, p1, g1) / mu
            pnorm = norm_hdot_mu(grid64, p1, 0.0, mu) ** 2
            assert quad > 0.0
            coercivity.append(quad / pnorm)
    # uniformly coercive across the sweep
    assert min(coercivity) > 0.05


def test_transmission_zero_psi(grid64):
    st = make_state(grid64, 0.3 * np.cos(grid64.nodes), np.zeros(64))
    tr = transmission_solve(st)
    for f in (tr.psi_plus, tr.psi_minus, tr.v_plus, tr.v_minus, tr.w_plus, tr.w_minus):
        assert np.allclose(f, 0.0, atol=1e-12)


def test_transmission_reconstruction_and_flux(grid64, rng):
    # 1.17e-3 is the air-water density ratio, where ψ⁻ carries little weight
    for rbm in (0.4, 1.17e-3):
        zeta = smooth_field(rng, grid64, 3, 1.0)
        st = make_state(grid64, zeta, smooth_field(rng, grid64), eps=0.25, mu=0.6, rbm=rbm)
        tr = transmission_solve(st)
        p = st.params
        recon = p.rhobar_plus * tr.psi_plus - p.rhobar_minus * tr.psi_minus
        assert np.max(np.abs(recon - st.psi)) < 1e-8
        # flux continuity re-verified through independent solves of both layers
        gp = dn_apply(st.layer(+1), tr.psi_plus) / p.hbar_plus
        gm = dn_apply(st.layer(-1), tr.psi_minus) / p.hbar_minus
        assert np.max(np.abs(gp - gm)) < 1e-8 * max(1.0, np.max(np.abs(gp)))


def test_transmission_flat_traces(grid64):
    st = make_state(grid64, np.zeros(64), np.cos(2 * grid64.nodes), eps=0.0, mu=0.8,
                    n_z=192)
    p = st.params
    tr = transmission_solve(st)
    k = 2.0
    j0 = float(flat_symbols(p).j_symbol(0.0, k))
    smu_p = math.sqrt(p.mu_plus)
    w_expected = (
        (1.0 / p.hbar_plus) * smu_p * k * math.tanh(smu_p * k) / j0
    ) * np.cos(2 * grid64.nodes)
    assert np.max(np.abs(tr.psi_plus - np.cos(2 * grid64.nodes) / j0)) < 5e-5
    assert np.max(np.abs(tr.w_plus - w_expected)) < 5e-5
    assert np.max(np.abs(tr.v_plus - deriv(grid64, tr.psi_plus))) < 1e-10


def test_transmission_water_waves_reduction(grid64, rng):
    zeta = 0.3 * np.cos(grid64.nodes)
    psi = smooth_field(rng, grid64)
    st = make_state(grid64, zeta, psi, rbm=0.0, ratio=1.0)
    tr = transmission_solve(st)
    assert np.allclose(tr.psi_plus, psi, atol=1e-12)
    p = st.params
    zx = deriv(grid64, zeta)
    g = dn_apply(st.layer(+1), psi) / p.hbar_plus
    w_expected = (g + p.eps * p.mu * zx * deriv(grid64, psi)) / (
        1.0 + p.eps**2 * p.mu * zx**2
    )
    assert np.allclose(tr.w_plus, w_expected, atol=1e-10)
    assert np.allclose(
        tr.v_plus, deriv(grid64, psi) - p.eps * w_expected * zx, atol=1e-10
    )


@pytest.mark.parametrize("n", [16, 32, 64])
def test_bundle_slopes_and_flux(n, rng):
    # ∂xψ± = V± + εw±ζₓ to rounding (measured 2.0e-16 of ‖∂xψ‖∞), and the flux
    # is 𝒢ψ = (1/H̄⁺)S⁺ψ⁺, deflated (measured 8.4e-15 of ‖𝒢ψ‖∞), which flux
    # continuity makes −(1/H̄⁻)S⁻ψ⁻ to the residual of the 𝒢̃ solve (3.4e-14)
    grid = PeriodicGrid(n)
    for rbm in (0.0, 0.4):
        st = make_state(grid, smooth_field(rng, grid, 3, 1.0), smooth_field(rng, grid, 3, 0.5),
                        rbm=rbm, n_z=16)
        tr = transmission_solve(st)
        p = st.params
        slope = tr.v + p.eps * tr.w * st.zeta_x
        assert np.max(np.abs(tr.psi_x - slope)) <= 1e-15 * np.max(np.abs(tr.psi_x))
        scale = np.max(np.abs(tr.flux))
        lower = _deflate(tr.psi_plus @ st.layer(+1).dn_matrix) / p.hbar_plus
        upper = -(tr.psi_minus @ st.layer(-1).dn_matrix) / p.hbar_minus
        assert np.max(np.abs(tr.flux - lower)) <= 3e-14 * scale
        assert np.max(np.abs(tr.flux - upper)) <= 1e-13 * scale


def test_bundle_rows_are_read_only_views(grid64, rng):
    st = make_state(grid64, smooth_field(rng, grid64, 3, 1.0), smooth_field(rng, grid64), n_z=8)
    tr = transmission_solve(st)
    for stack in ("psi", "v", "w"):
        for row, sign in enumerate(("plus", "minus")):
            view = getattr(tr, f"{stack}_{sign}")
            assert np.shares_memory(view, getattr(tr, stack))
            assert np.array_equal(view, getattr(tr, stack)[row])
            assert not view.flags.writeable
    assert tr.psi.shape == tr.psi_x.shape == tr.w.shape == tr.v.shape == (2, 64)
    assert tr.flux.shape == (64,)


def test_g_tilde_flat_symbol_and_positivity(grid64, rng):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, mu=0.6, n_z=192)
    p = st.params
    k = 3.0
    u = np.sin(3 * grid64.nodes)
    expected = float(flat_symbols(p).mix_symbol(0.0, k)) * u
    assert np.max(np.abs(apply_g_tilde(st, u) - expected)) < 5e-5
    st2 = make_state(grid64, smooth_field(rng, grid64, 3, 0.8), np.zeros(64))
    for _ in range(5):
        v = smooth_field(rng, grid64)
        assert inner(grid64, v, apply_g_tilde(st2, v)) >= -1e-12


def test_g_tilde_invert_round_trip(grid64, rng):
    # ρ̄⁻ = 0 leaves only the upper layer in 𝒢̃
    for rbm in (0.4, 0.0):
        st = make_state(grid64, 0.3 * np.cos(grid64.nodes), np.zeros(64), rbm=rbm)
        f = smooth_field(rng, grid64)
        f -= np.mean(f)
        u = invert_g_tilde(st, f)
        back = apply_g_tilde(st, u)
        assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)
        assert abs(np.mean(u)) < 1e-13
        with pytest.raises(IncompatibleDataError):
            invert_g_tilde(st, f + 1.0)
        # the bound is relative to the data, as in the Neumann solve
        c2 = np.cos(2 * grid64.nodes)
        with pytest.raises(IncompatibleDataError):
            invert_g_tilde(st, 1e-10 * c2 + 1e-9)
        invert_g_tilde(st, c2 + 1e-9)


def test_g_tilde_invert_rejects_nyquist_data():
    # data with a Nyquist component lies outside the range of 𝒢̃; once it is
    # removed, a tight tolerance gives a gauged answer with a small true residual
    grid = PeriodicGrid(16)
    st = make_state(grid, 0.3 * np.cos(grid.nodes), np.zeros(16))
    f = np.random.default_rng(5).standard_normal(16)
    f -= np.mean(f)
    with pytest.raises(IncompatibleDataError):
        invert_g_tilde(st, f)
    nyq = np.cos(np.pi * np.arange(16))
    f -= np.mean(f * nyq) * nyq
    u = invert_g_tilde(st, f)
    back = apply_g_tilde(st, u)
    assert np.linalg.norm(back - f) <= 1e-9 * np.linalg.norm(f)
    assert abs(np.mean(u * nyq)) < 1e-12 * np.max(np.abs(u))


def test_apply_e_constant_field(grid64):
    st = make_state(grid64, 0.2 * np.cos(grid64.nodes), np.zeros(64))
    assert np.allclose(apply_e(st, 2.0 * np.ones(64)), 0.0, atol=1e-12)


def test_apply_e_flat_diagonal(grid64):
    st = make_state(grid64, np.zeros(64), np.zeros(64), eps=0.0, mu=0.5, n_z=192)
    p = st.params
    k = 2.0
    v = np.cos(2 * grid64.nodes)
    expected = (k**2 / float(flat_symbols(p).mix_symbol(0.0, k))) * v
    assert np.max(np.abs(apply_e(st, v) - expected)) < 1e-4


def test_apply_e_positivity_and_bound(grid64, rng):
    from twofluid import e_coeff

    zeta = smooth_field(rng, grid64, 3, 0.9)
    st = make_state(grid64, zeta, np.zeros(64), eps=0.25, mu=0.4)
    e_val = e_coeff(st)
    smu = math.sqrt(st.params.mu)
    for _ in range(20):
        v = smooth_field(rng, grid64)
        q = e_quadratic_form(st, v)
        assert q >= -1e-12
        uh = np.abs(np.fft.fft(v)) ** 2
        k = np.abs(grid64.wavenumbers)
        bnorm2 = grid64.length / grid64.n**2 * float(np.sum((1.0 + smu * k) * uh))
        assert st.params.mu * q <= e_val * bnorm2 * (1.0 + 1e-6)


def test_e_quadratic_form_rejects_a_stack_before_it_solves():
    # the field rule on entry: an (N, N) stack builds no factor of 𝒢̃ and
    # solves with none of its rows
    grid = PeriodicGrid(16)
    st = make_state(grid, 0.3 * np.cos(grid.nodes), np.sin(grid.nodes), n_z=8)
    stack = 0.1 * np.sin((np.arange(16)[:, None] % 7 + 1) * grid.nodes)
    with pytest.raises(ValueError, match="is not one field"):
        e_quadratic_form(st, stack)
    assert "_g_tilde" not in vars(st)


def test_a_repeated_transmission_solve_matches_a_fresh_state(grid64, rng):
    # a second solve on the same state reuses its cached factors
    zeta = 0.2 * np.cos(grid64.nodes)
    psi = smooth_field(rng, grid64)
    st = make_state(grid64, zeta, psi)
    fresh = transmission_solve(make_state(grid64, zeta, psi))
    transmission_solve(st)
    cached = transmission_solve(st)
    assert np.max(np.abs(fresh.psi_plus - cached.psi_plus)) < 1e-9
    assert np.max(np.abs(fresh.w_minus - cached.w_minus)) < 1e-9


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    seed=hst.integers(0, 2**32 - 1),
    eps=hst.floats(0.0, 0.6),
    mu=hst.floats(1e-2, 2.0),
    rbm=hst.sampled_from((0.0, 1.17e-3, 0.4)),
    n_z=hst.integers(2, 16),
)
def test_composed_identities_properties(seed, eps, mu, rbm, n_z):
    # worst of 400 random states (N = 16, same ranges): J J⁻¹ 5.9e-15,
    # asymmetry of 𝒢 1.1e-13, negative part of 𝒢 3.3e-16, (ℰv, v) never
    # negative, the maximizer's quotient within 2.0e-15 of 𝔢
    grid = PeriodicGrid(16)
    n = grid.n
    rng = np.random.default_rng(seed)
    st = make_state(grid, smooth_field(rng, grid, k_max=3), np.zeros(n), eps=eps, mu=mu,
                    rbm=rbm, n_z=n_z)
    # J J⁻¹ = I on gauged data; apply_j goes through the Neumann solve
    psi = _deflate(rng.standard_normal(n))
    back = apply_j(st, invert_j(st, psi))
    assert np.linalg.norm(back - psi) <= 1e-13 * np.linalg.norm(psi)
    # 𝒢 is symmetric and positive semi-definite
    g = np.array([apply_g(st, col) for col in np.eye(n)]).T
    scale = np.linalg.norm(g, 2)
    assert np.linalg.norm(g - g.T, 2) <= 1e-11 * scale
    assert np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) >= -1e-13 * scale
    # 0 ≤ μ(ℰv, v) ≤ 𝔢|B^{1/2}v|², and the bound is attained
    e_val = e_coeff(st)
    smu = math.sqrt(mu)
    k = np.abs(grid.wavenumbers)

    def b_norm2(v):
        return grid.length / n**2 * float(np.sum((1.0 + smu * k) * np.abs(np.fft.fft(v)) ** 2))

    for _ in range(4):
        v = rng.standard_normal(n)
        q = e_quadratic_form(st, v)
        assert q >= 0.0
        assert mu * q <= e_val * b_norm2(v) * (1.0 + 1e-9)
    mat, b_inv_half = shear_form_matrix(st)
    v_top = b_inv_half @ np.linalg.eigh(mat)[1][:, -1]
    assert mu * e_quadratic_form(st, v_top) == pytest.approx(e_val * b_norm2(v_top), rel=1e-12)
