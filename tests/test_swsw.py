import math

import numpy as np
import pytest

from twofluid import (
    DegenerateGeometryError,
    EvolutionConfig,
    IncompatibleDataError,
    NumericalError,
    PeriodicGrid,
    SWState,
    compare_with_full,
    config_from_dimensionless,
    derive_params,
    fv_step,
    hyperbolicity_indicator,
    run_swsw,
)
from twofluid import swsw
from twofluid.spectral import _cached
from twofluid.swsw import heights, max_wave_speed
from conftest import kelvin_threshold, smooth_field


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
        # the characteristic speeds u ± √(a·ind) of the closed form
        a, u, _ = st._characteristic
        speed = np.sqrt((a * ind).astype(complex))
        root = np.sqrt(disc.astype(complex))
        for lam, ref in zip((u + speed, u - speed), (0.5 * (j11 + j22 + root),
                                                     0.5 * (j11 + j22 - root))):
            assert np.max(np.abs(lam - ref) / (1.0 + np.abs(ref))) <= 1e-13
    # the sample reaches both the hyperbolic and the elliptic side
    assert seen == {-1.0, 1.0}


def flat_streams(p, zeta0):
    """The uniform state ζ₀ as two uniform streams of the local depths h±
    without surface tension: those depths, the critical v of the long-wave
    closed form, and the map from v to the streams' velocity jump ⟦V⟧ (in
    units of ε√(g'H)) with zero net volume flux h⁺V⁺ + h⁻V⁻ = 0 and
    ρ̄⁺V⁺ − ρ̄⁻V⁻ = v."""
    hp, hm = heights(p, zeta0)
    den = p.rhobar_plus * hm + p.rhobar_minus * hp
    v_crit = den * math.sqrt(den / (p.rhobar_plus * p.rhobar_minus)) / (p.eps * (hp + hm))
    return (hp, hm), v_crit, lambda v: (hp + hm) * v / den


@pytest.mark.parametrize("zeta0", [0.0, 0.5])
@pytest.mark.parametrize("eps, mu, rbm, ratio", [
    (0.3, 0.05, 0.4, 1.0), (0.5, 0.1, 0.1, 2.0), (0.2, 0.02, 0.45, 0.5),
])
def test_indicator_matches_long_wave_kelvin_helmholtz(eps, mu, rbm, ratio, zeta0):
    # a uniform state (ζ₀, v) is hyperbolic exactly when two uniform streams
    # of the local depths h±H are stable to long waves without surface tension
    p = derive_params(config_from_dimensionless(
        eps=eps, mu=mu, rhobar_minus=rbm, depth_ratio=ratio))
    depths, v_crit, jump = flat_streams(p, zeta0)
    xi = 1e-3 / (math.sqrt(p.mu) * max(depths))
    grid = PeriodicGrid(8)
    for factor in (0.95, 1.05):
        v = factor * v_crit
        st = SWState(grid=grid, zeta=np.full(8, zeta0), v=np.full(8, v), params=p)
        hyperbolic = bool(np.all(hyperbolicity_indicator(st) > 0.0))
        shear = p.eps**2 * p.rhobar_plus * p.rhobar_minus * jump(v) ** 2
        stable = shear <= kelvin_threshold(p, xi, depths)
        assert hyperbolic == stable == (factor < 1.0)


def test_flat_critical_shear_is_the_long_wave_kelvin_threshold():
    # on a flat state the indicator vanishes at the velocity jump where
    # Kelvin-Helmholtz sets in as ξ → 0; at ξ = 1e-8 the threshold is its
    # long-wave limit (ρ̄⁻h⁺ + ρ̄⁺h⁻) to within (1e-8·√μh±)²
    rng = np.random.default_rng(17)
    grid = PeriodicGrid(8)
    for _ in range(300):
        p = derive_params(config_from_dimensionless(
            eps=rng.uniform(0.05, 0.9), mu=0.1, rhobar_minus=rng.uniform(1e-3, 0.49),
            depth_ratio=rng.uniform(0.3, 3.0)))
        zeta0 = rng.uniform(-0.9, 0.9) / max(p.eps_plus, p.eps_minus)
        depths, v_crit, jump = flat_streams(p, zeta0)
        st = SWState(grid=grid, zeta=np.full(8, zeta0), v=np.full(8, v_crit), params=p)
        assert np.max(np.abs(hyperbolicity_indicator(st))) <= 1e-14
        kelvin = math.sqrt(kelvin_threshold(p, 1e-8, depths)
                           / (p.eps**2 * p.rhobar_plus * p.rhobar_minus))
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
    # the closed-form Jacobian (the characteristic triple a, u, ind) is
    # evaluated once per state: its indicator, the step size and the Rusanov
    # fluxes and speeds of the fv_step leaving it share one evaluation
    calls = []
    characteristic = swsw.SWState.__dict__["_characteristic"].func

    def counted(state):
        calls.append(state)
        return characteristic(state)

    counted_property = _cached(counted)
    counted_property.__set_name__(swsw.SWState, "_characteristic")
    monkeypatch.setattr(swsw.SWState, "_characteristic", counted_property)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid64, zeta=0.3 * np.cos(grid64.nodes),
                 v=0.2 * np.sin(grid64.nodes), params=p)
    series = run_swsw(EvolutionConfig(t_end=0.2, snapshot_every=1), st)
    assert series.halted is None
    # snapshot_every = 1 records every state, the last one unstepped
    assert len(calls) == len(series.times) > 2
    assert [id(s) for s in calls] == [id(s) for s in series.states]


def test_run_swsw_is_a_loop_of_fv_steps(grid64):
    # run_swsw may share work between its steps, but its end state is bitwise
    # that of fv_step at dt = min(CFL_NUMBER·dx/max_wave_speed, t_end − t)
    rng = np.random.default_rng(21)
    for _ in range(6):
        st = random_state(rng, grid64)
        while not np.all(hyperbolicity_indicator(st) > 0.0):
            st = random_state(rng, grid64)
        t_end = 0.1
        series = run_swsw(EvolutionConfig(t_end=t_end, snapshot_every=10**9), st)
        assert series.halted is None
        t, state, steps = 0.0, st, 0
        while t < t_end - 1e-12:
            dt = min(swsw.CFL_NUMBER * grid64.dx / max_wave_speed(state), t_end - t)
            state = fv_step(state, dt)
            t += dt
            steps += 1
        assert steps > 1 and series.times[-1] == t
        end = series.states[-1]
        assert np.array_equal(end.zeta, state.zeta) and np.array_equal(end.v, state.v)


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


def test_run_swsw_halts_when_a_step_fails(monkeypatch):
    # a step that raises an error of the package ends the run with its type
    # and message as the reason, at the time of the last state, as in run
    def failing(state, dt):
        raise NumericalError("dry state")

    monkeypatch.setattr(swsw, "fv_step", failing)
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.4))
    st = SWState(grid=grid, zeta=np.zeros(16), v=0.2 * np.sin(grid.nodes), params=p)
    series = run_swsw(EvolutionConfig(t_end=1.0), st)
    assert series.halted == {"time": 0.0, "reason": "NumericalError: dry state"}
    assert series.times == [0.0]


def test_run_swsw_halts_when_a_step_dries_a_layer():
    # with ρ̄⁻ = 0 the model is one-layer shallow water, hyperbolic for every
    # v, and nothing holds the interface below the lid: the flow converging
    # on the crest at x = 0 lifts it past 1/ε⁻ = 2 in the second step
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(eps=0.5, mu=0.1, rhobar_minus=0.0))
    st = SWState(grid=grid, zeta=1.8 * np.cos(grid.nodes), v=-np.sin(grid.nodes), params=p)
    first = fv_step(st, 0.45 * grid.dx / max_wave_speed(st))
    with pytest.raises(DegenerateGeometryError):
        fv_step(first, 0.45 * grid.dx / max_wave_speed(first))
    series = run_swsw(EvolutionConfig(t_end=1.0, snapshot_every=1), st)
    assert series.halted["reason"].startswith("DegenerateGeometryError: layer depth vanishes")
    assert series.halted["time"] == series.times[-1] > 0.0
    assert len(series.times) == 2 and np.array_equal(series.states[-1].zeta, first.zeta)


def test_compare_with_full_reports_a_failed_side_as_a_nan_row():
    # a shear past the long-wave threshold (ε = 0.5, ρ̄⁻ = 0.4, flat interface:
    # |v| = 2.05) halts the shallow model at t = 0 while the full run ends;
    # a velocity whose square overflows also ends the full run
    grid = PeriodicGrid(16)
    for amplitude, broke_down in ((2.5, False), (1e200, True)):
        v0 = amplitude * np.sin(grid.nodes)
        table = compare_with_full(grid, np.zeros(16), v0, eps=0.5, mu_list=[0.1], t_end=0.05,
                                  n_z=8)
        [row] = table.rows
        assert row.sw_halted and row.full_broke_down is broke_down
        assert math.isnan(row.discrepancy)


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


def test_compare_with_full_runs_the_shallow_model_once_per_call(monkeypatch):
    # one Richardson reference (two refined runs) serves every μ of the list
    calls = []

    def counted(config, initial):
        calls.append(initial.grid.n)
        return run_swsw(config, initial)

    monkeypatch.setattr(swsw, "run_swsw", counted)
    grid = PeriodicGrid(16)
    zeta0 = np.cos(grid.nodes)
    v0 = 0.5 * np.cos(grid.nodes + 0.4)
    table = compare_with_full(grid, zeta0, v0, eps=0.1, mu_list=[0.05, 0.1, 0.2],
                              t_end=0.05, n_z=8)
    assert len(table.rows) == 3
    assert sorted(calls) == [8 * 16, 16 * 16]
    calls.clear()
    assert compare_with_full(grid, zeta0, v0, eps=0.1, mu_list=[], t_end=0.05).rows == []
    assert calls == []


def test_shallow_endpoint_does_not_depend_on_mu_or_bond():
    # the property the sharing above rests on: parameter sets that differ
    # only in μ and Bo give the bitwise same reference
    grid = PeriodicGrid(16)
    zeta0 = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
    v0 = 0.5 * np.cos(grid.nodes + 0.4)
    ends = [swsw._sw_endpoint(grid, zeta0, v0, derive_params(config_from_dimensionless(
                eps=0.3, mu=mu, rhobar_minus=0.3, depth_ratio=1.5, bond=bond)), 0.1)
            for mu, bond in ((0.05, 2e4), (0.2, math.inf))]
    assert ends[0] is not None
    for a, b in zip(*ends):
        assert np.array_equal(a, b)


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
