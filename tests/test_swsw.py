import math

import numpy as np
import pytest

from twofluid import (
    IncompatibleDataError,
    InvalidConfigError,
    NumericalError,
    PeriodicGrid,
    SWConfig,
    SWState,
    ShearConfig,
    compare_with_full,
    config_from_dimensionless,
    derive_params,
    fv_step,
    hyperbolicity_indicator,
    jacobian_discriminant,
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


def test_indicator_sign_matches_discriminant(grid64):
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(40):
        st = random_state(rng, grid64)
        ind = hyperbolicity_indicator(st)
        disc = jacobian_discriminant(st)
        clear = np.abs(ind) > 1e-9
        assert np.array_equal(np.sign(ind[clear]), np.sign(disc[clear]))
        seen.update(np.sign(ind[clear]).tolist())
    # the sample reaches both the hyperbolic and the elliptic side
    assert seen == {-1.0, 1.0}


@pytest.mark.parametrize("zeta0", [0.0, 0.5])
@pytest.mark.parametrize("eps, mu, rbm, ratio", [
    (0.3, 0.05, 0.4, 1.0), (0.5, 0.1, 0.1, 2.0), (0.2, 0.02, 0.45, 0.5),
])
def test_indicator_matches_long_wave_kelvin_helmholtz(eps, mu, rbm, ratio, zeta0):
    # a uniform state (ζ₀, v) is hyperbolic exactly when two uniform streams
    # of the local depths h±H are stable to long waves without surface tension
    p = derive_params(config_from_dimensionless(
        eps=eps, mu=mu, rhobar_minus=rbm, depth_ratio=ratio))
    hp, hm = heights(p, zeta0)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    v_crit = den * math.sqrt(den / (p.rhobar_plus * p.rhobar_minus)) / (p.eps * (hp + hm))
    streams = ShearConfig(
        rho_plus=p.rhobar_plus * p.rho_total, rho_minus=p.rhobar_minus * p.rho_total,
        depth_plus=hp * p.h_eff, depth_minus=hm * p.h_eff, sigma=0.0,
        gravity=p.g_reduced / (p.rhobar_plus - p.rhobar_minus),
    )
    k = 1e-3 / max(streams.depth_plus, streams.depth_minus)
    grid = PeriodicGrid(8)
    for factor in (0.95, 1.05):
        v = factor * v_crit
        st = SWState(grid=grid, zeta=np.full(8, zeta0), v=np.full(8, v), params=p)
        hyperbolic = bool(np.all(hyperbolicity_indicator(st) > 0.0))
        # ⟦V⟧ with zero net volume flux h⁺V⁺ + h⁻V⁻ = 0 and ρ̄⁺V⁺ − ρ̄⁻V⁻ = v
        jump = (hp + hm) * v / den
        stable = mode_growth(k, streams.with_shear(p.eps * p.wave_speed * jump)) == 0.0
        assert hyperbolic == stable == (factor < 1.0)


@pytest.mark.parametrize("settings", [
    {"t_end": 0.1, "snapshot_every": 0},
    {"t_end": math.nan},
    {"t_end": -0.1},
])
def test_config_rejects_invalid_settings(settings):
    # rejected at construction, before run_swsw's clock starts
    with pytest.raises(InvalidConfigError):
        SWConfig(**settings)


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
    entries = swsw._jacobian_entries

    def counted(*args):
        calls.append(1)
        return entries(*args)

    monkeypatch.setattr(swsw, "_jacobian_entries", counted)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid64, zeta=0.3 * np.cos(grid64.nodes),
                 v=0.2 * np.sin(grid64.nodes), params=p)
    series = run_swsw(SWConfig(t_end=0.2, snapshot_every=1), st)
    assert series.halted is None
    assert len(calls) == len(series.times) - 1 > 1


def test_run_swsw_halts_on_hyperbolicity_loss():
    # a strong shear over a flat interface makes the long-wave model elliptic
    # (its Kelvin-Helmholtz shadow): the run halts before its first step
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid, zeta=np.zeros(16), v=3.0 * np.sin(grid.nodes), params=p)
    series = run_swsw(SWConfig(t_end=1.0), st)
    assert series.halted["reason"] == "hyperbolicity loss"
    assert series.halted["time"] == 0.0
    assert series.halted["indicator_min"] == pytest.approx(-1.16, rel=1e-12)
    assert series.times == [0.0]
    assert series.indicator_min == [series.halted["indicator_min"]]


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
