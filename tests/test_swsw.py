import math

import numpy as np
import pytest

from twofluid import (
    EvolutionConfig,
    IncompatibleDataError,
    NumericalError,
    PeriodicGrid,
    SWState,
    ShearConfig,
    compare_with_full,
    config_from_dimensionless,
    derive_params,
    fv_step,
    hyperbolicity_indicator,
    jacobian_eigs,
    mode_growth,
    run_swsw,
)
from twofluid import swsw
from twofluid.swsw import heights, max_wave_speed
from conftest import smooth_field


def random_state(rng, grid):
    p = derive_params(config_from_dimensionless(
        eps=rng.uniform(0.1, 1.0), mu=0.1, rhobar_minus=rng.uniform(0.0, 0.49),
        depth_ratio=rng.uniform(0.5, 2.0),
    ))
    # keep both layers at least a tenth of their rest depth
    zeta = smooth_field(rng, grid, 4, 0.9 / max(p.eps_plus, p.eps_minus))
    v = smooth_field(rng, grid, 4, rng.uniform(0.5, 8.0))
    return SWState(grid=grid, zeta=zeta, v=v, params=p)


def jacobian_entries(state):
    """(j11, j12, j21, j22) of the flux Jacobian, differentiated by hand from
    the fluxes A(ζ)·v and ζ + (ε/2)b(ζ)·v², A = h⁺h⁻/d and
    b = (ρ̄⁺h⁻² − ρ̄⁻h⁺²)/d², d = ρ̄⁺h⁻ + ρ̄⁻h⁺, with ∂ζh± = ±ε."""
    p, v = state.params, state.v
    hp, hm = heights(p, state.zeta)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    drho = p.rhobar_minus - p.rhobar_plus
    b_num = p.rhobar_plus * hm**2 - p.rhobar_minus * hp**2
    da = ((p.eps * hm - p.eps * hp) * den - hp * hm * (p.eps * drho)) / den**2
    db = -2.0 * p.eps * (den**2 + drho * b_num) / den**3
    return da * v, hp * hm / den, 1.0 + 0.5 * p.eps * db * v**2, p.eps * (b_num / den**2) * v


def test_indicator_sign_matches_discriminant(grid64):
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(40):
        st = random_state(rng, grid64)
        j11, j12, j21, j22 = jacobian_entries(st)
        disc = (j11 - j22) ** 2 + 4.0 * j12 * j21
        ind = hyperbolicity_indicator(st)
        clear = np.abs(ind) > 1e-9
        assert np.array_equal(np.sign(ind[clear]), np.sign(disc[clear]))
        seen.update(np.sign(ind[clear]).tolist())
        root = np.sqrt(disc.astype(complex))
        for lam, ref in zip(jacobian_eigs(st), (0.5 * (j11 + j22 + root),
                                                0.5 * (j11 + j22 - root))):
            assert np.max(np.abs(lam - ref) / (1.0 + np.abs(ref))) <= 1e-13
    # the sample reaches both the hyperbolic and the elliptic side
    assert seen == {-1.0, 1.0}


def flat_streams(p, zeta0):
    """The uniform state ζ₀ as two uniform streams of the local depths h±H
    without surface tension, the critical v of the long-wave closed form, and
    the map from v to the physical velocity jump ⟦V⟧ of those streams: zero
    net volume flux h⁺V⁺ + h⁻V⁻ = 0 and ρ̄⁺V⁺ − ρ̄⁻V⁻ = v."""
    hp, hm = heights(p, zeta0)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    v_crit = den * math.sqrt(den / (p.rhobar_plus * p.rhobar_minus)) / (p.eps * (hp + hm))
    streams = ShearConfig(
        rho_plus=p.rhobar_plus * p.rho_total, rho_minus=p.rhobar_minus * p.rho_total,
        depth_plus=hp * p.h_eff, depth_minus=hm * p.h_eff, sigma=0.0,
        gravity=p.g_reduced / (p.rhobar_plus - p.rhobar_minus),
    )
    return streams, v_crit, lambda v: p.eps * p.wave_speed * (hp + hm) * v / den


@pytest.mark.parametrize("zeta0", [0.0, 0.5])
@pytest.mark.parametrize("eps, mu, rbm, ratio", [
    (0.3, 0.05, 0.4, 1.0), (0.5, 0.1, 0.1, 2.0), (0.2, 0.02, 0.45, 0.5),
])
def test_indicator_matches_long_wave_kelvin_helmholtz(eps, mu, rbm, ratio, zeta0):
    # a uniform state (ζ₀, v) is hyperbolic exactly when two uniform streams
    # of the local depths h±H are stable to long waves without surface tension
    p = derive_params(config_from_dimensionless(
        eps=eps, mu=mu, rhobar_minus=rbm, depth_ratio=ratio))
    streams, v_crit, jump = flat_streams(p, zeta0)
    k = 1e-3 / max(streams.depth_plus, streams.depth_minus)
    grid = PeriodicGrid(8)
    for factor in (0.95, 1.05):
        v = factor * v_crit
        st = SWState(grid=grid, zeta=np.full(8, zeta0), v=np.full(8, v), params=p)
        hyperbolic = bool(np.all(hyperbolicity_indicator(st) > 0.0))
        stable = mode_growth(k, streams.with_shear(jump(v))) == 0.0
        assert hyperbolic == stable == (factor < 1.0)


def test_flat_critical_shear_is_the_long_wave_kelvin_threshold():
    # on a flat state the indicator vanishes at the velocity jump where
    # Kelvin-Helmholtz sets in as k → 0, √((H⁺/ρ⁺ + H⁻/ρ⁻)g(ρ⁺ − ρ⁻))
    rng = np.random.default_rng(17)
    grid = PeriodicGrid(8)
    for _ in range(300):
        p = derive_params(config_from_dimensionless(
            eps=rng.uniform(0.05, 0.9), mu=0.1, rhobar_minus=rng.uniform(1e-3, 0.49),
            depth_ratio=rng.uniform(0.3, 3.0)))
        zeta0 = rng.uniform(-0.9, 0.9) / max(p.eps_plus, p.eps_minus)
        streams, v_crit, jump = flat_streams(p, zeta0)
        st = SWState(grid=grid, zeta=np.full(8, zeta0), v=np.full(8, v_crit), params=p)
        assert np.max(np.abs(hyperbolicity_indicator(st))) <= 1e-14
        kelvin = math.sqrt((streams.depth_plus / streams.rho_plus
                            + streams.depth_minus / streams.rho_minus)
                           * streams.gravity * (streams.rho_plus - streams.rho_minus))
        assert jump(v_crit) == pytest.approx(kelvin, rel=1e-12)


def test_fv_step_conserves_zeta(grid64):
    rng = np.random.default_rng(11)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4,
                                                depth_ratio=1.5))
    st = SWState(grid=grid64, zeta=smooth_field(rng, grid64, 4, 0.8),
                 v=smooth_field(rng, grid64, 4, 0.5), params=p)
    mass0 = float(np.sum(st.zeta))
    for _ in range(50):
        st = fv_step(st, 0.45 * grid64.dx / max_wave_speed(st))
    assert abs(float(np.sum(st.zeta)) - mass0) < 1e-12 * grid64.n


def test_run_swsw_computes_the_jacobian_once_per_step(grid64, monkeypatch):
    # the step size and the Rusanov speeds of fv_step share one evaluation
    calls = []
    eigs = swsw.jacobian_eigs

    def counted(*args):
        calls.append(1)
        return eigs(*args)

    monkeypatch.setattr(swsw, "jacobian_eigs", counted)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid64, zeta=0.3 * np.cos(grid64.nodes),
                 v=0.2 * np.sin(grid64.nodes), params=p)
    series = run_swsw(EvolutionConfig(t_end=0.2, snapshot_every=1), st)
    assert series.halted is None
    assert len(calls) == len(series.times) - 1 > 1


def test_run_swsw_halts_on_hyperbolicity_loss():
    # a strong shear over a flat interface makes the long-wave model elliptic
    # (its Kelvin-Helmholtz shadow): the run halts before its first step
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid, zeta=np.zeros(16), v=3.0 * np.sin(grid.nodes), params=p)
    series = run_swsw(EvolutionConfig(t_end=1.0), st)
    assert series.halted["reason"] == "hyperbolicity loss"
    assert series.halted["time"] == 0.0
    assert series.halted["indicator_min"] == pytest.approx(-1.16, rel=1e-12)
    assert series.times == [0.0]
    assert series.indicator_min == [series.halted["indicator_min"]]


def test_non_finite_state_never_finishes_a_run():
    # a NaN used to end the loop at once with halted = None and times == [0.0],
    # which _sw_endpoint took for the state at t_end
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    v = 0.2 * np.sin(grid.nodes)
    bad = np.where(np.arange(16) == 3, np.nan, v)
    for zeta, vel in ((np.zeros(16), bad), (bad, v)):
        with pytest.raises(NumericalError):
            SWState(grid=grid, zeta=zeta, v=vel, params=p)
    # a finite state whose indicator is not finite halts the run: at ε = 0
    # the indicator is 1 − 0·v², and v² overflows
    flat = derive_params(config_from_dimensionless(eps=0.0, mu=0.1, rhobar_minus=0.4))
    with np.errstate(over="ignore", invalid="ignore"):
        st = SWState(grid=grid, zeta=np.zeros(16), v=1e200 * np.sin(grid.nodes + 0.1),
                     params=flat)
        series = run_swsw(EvolutionConfig(t_end=0.5), st)
    assert series.halted["reason"] == "non-finite hyperbolicity indicator"
    assert series.halted["time"] == 0.0


def test_fitted_exponent_needs_two_valid_rows():
    rows = [swsw.ComparisonRow(mu=0.1, discrepancy=0.01, full_broke_down=False,
                               sw_halted=False),
            swsw.ComparisonRow(mu=0.05, discrepancy=math.nan, full_broke_down=True,
                               sw_halted=False),
            swsw.ComparisonRow(mu=0.2, discrepancy=math.nan, full_broke_down=False,
                               sw_halted=True)]
    with pytest.raises(NumericalError):
        swsw.ComparisonTable(rows=rows).fitted_exponent()


def test_compare_with_full_is_first_order_in_mu():
    grid = PeriodicGrid(16)
    zeta0 = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
    v0 = 0.5 * np.cos(grid.nodes + 0.4)
    table = compare_with_full(grid, zeta0, v0, eps=0.1, mu_list=[0.05, 0.1, 0.2],
                              t_end=0.25, n_z=12)
    assert not any(r.full_broke_down or r.sw_halted for r in table.rows)
    assert 0.75 <= table.fitted_exponent() <= 1.25


def test_compare_with_full_rejects_mean_current():
    # ψ = ∫v0 drops a mean of v0 that the shallow-water side keeps: without
    # the check, a mean of 0.05 turned the discrepancies of the test above
    # from 3.8e-3, 7.5e-3, 1.4e-2 (exponent 0.93) into 5.4e-2, 5.8e-2, 6.4e-2
    # (exponent 0.12)
    grid = PeriodicGrid(16)
    zeta0 = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
    v0 = 0.5 * np.cos(grid.nodes + 0.4) + 0.05
    with pytest.raises(IncompatibleDataError):
        compare_with_full(grid, zeta0, v0, eps=0.1, mu_list=[0.05, 0.1, 0.2],
                          t_end=0.25, n_z=12)
