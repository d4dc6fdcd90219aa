import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import flat_coupled_symbol, smooth_field
from twofluid import evolution
from twofluid import (
    EvolutionConfig,
    InterfaceState,
    InvalidConfigError,
    PeriodicGrid,
    TimeSeries,
    TraceBundle,
    a_field,
    cfl_cap,
    config_from_dimensionless,
    dealias,
    derive_params,
    monitor_criterion,
    rhs,
    rk4_step,
    run,
    stability_inputs,
    tendency,
    transmission_solve,
)
from twofluid.spectral import _retained, deriv


def make_state(grid, zeta, psi, eps=0.1, mu=0.64, rbm=0.4, ratio=1.5, bond=50.0, n_z=16):
    p = derive_params(config_from_dimensionless(eps, mu, rbm, ratio, bond))
    return InterfaceState(grid=grid, zeta=zeta, psi=psi, params=p, n_z=n_z)


def test_rhs_rest_is_equilibrium(grid32):
    st = make_state(grid32, np.zeros(32), np.zeros(32))
    dz, dp = rhs(st)
    assert np.all(dz == 0.0)
    assert np.all(dp == 0.0)


def test_rhs_matches_linearization(grid32):
    amp = 1e-6
    st = make_state(
        grid32, amp * np.cos(2 * grid32.nodes), amp * np.sin(2 * grid32.nodes),
        eps=amp, n_z=32,
    )
    p = st.params
    dz, dp = rhs(st)
    g0 = flat_coupled_symbol(p, 2.0)
    dz_lin = (g0 / p.mu) * amp * np.sin(2 * grid32.nodes)
    dp_lin = -(1.0 + 4.0 / p.bond) * amp * np.cos(2 * grid32.nodes)
    assert np.max(np.abs(dz - dz_lin)) <= 1e-4 * np.max(np.abs(dz_lin))
    assert np.max(np.abs(dp - dp_lin)) <= 1e-4 * np.max(np.abs(dp_lin))


def test_rhs_mass_flux_balance(grid32, rng):
    from conftest import smooth_field

    st = make_state(grid32, smooth_field(rng, grid32, 3, 0.8), smooth_field(rng, grid32),
                    eps=0.3)
    dz, _ = rhs(st)
    assert abs(np.mean(dz)) < 1e-15


def test_rk4_equilibrium_fixed_point(grid32):
    st = make_state(grid32, np.zeros(32), np.zeros(32))
    out = rk4_step(st, 0.01)
    assert np.all(out.zeta == 0.0)
    assert np.all(out.psi == 0.0)


def test_rk4_linear_mode_drift_scaling(grid32):
    # single linear mode advances by a phase; from a cosine start the ζ error of
    # one RK4 step is (ω_h dt)⁶/720·amp, so halving dt must cut it by at least
    # the fourth-order factor 16.  The reference is the semi-discrete flow,
    # whose frequency ω_h differs from the continuum ω by the O(n_z⁻²) error
    # of the vertical differences.
    from conftest import linear_mode_rates

    amp = 1e-5
    p = derive_params(config_from_dimensionless(1e-5, 0.64, 0.4, 1.5, 50.0))
    k = 2.0
    om = math.sqrt(
        (1.0 + k**2 / p.bond) / p.mu * flat_coupled_symbol(p, k)
    )
    a, b = linear_mode_rates(p, grid32, 32, k)
    om_h = math.sqrt(a * b)
    # test_rhs_matches_linearization pins the discrete symbol to 1e-4 of 𝒢₀ at
    # n_z = 32 on this mode; ω ∝ √𝒢 halves that
    assert abs(om_h / om - 1.0) < 0.5e-4

    def drift(dt):
        st = InterfaceState(grid=grid32, zeta=amp * np.cos(2 * grid32.nodes),
                            psi=np.zeros(32), params=p, n_z=32)
        out = rk4_step(st, dt)
        exact = amp * math.cos(om_h * dt) * np.cos(2 * grid32.nodes)
        return np.max(np.abs(out.zeta - exact))

    d1, d2 = drift(0.04), drift(0.02)
    assert d1 < 1e-10
    assert d2 < d1 / 16.0


def test_rk4_time_reversal(grid32):
    st = make_state(grid32, 0.3 * np.cos(grid32.nodes), 0.2 * np.sin(grid32.nodes),
                    eps=0.2, mu=0.5, bond=100.0)
    errs = []
    for dt in (0.02, 0.01):
        fwd = rk4_step(st, dt)
        back = rk4_step(fwd.replace_fields(fwd.zeta, -fwd.psi), dt)
        errs.append(
            np.max(np.abs(back.zeta - st.zeta)) + np.max(np.abs(-back.psi - st.psi))
        )
    assert errs[0] < 1e-11
    assert errs[1] < errs[0]


def test_cfl_cap_without_surface_tension():
    # Bo = ∞: only the gravity speed limits the step, 0.5√μ/k_max
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.0))
    assert math.isinf(p.bond)
    assert cfl_cap(p, 32) == pytest.approx(0.5 * math.sqrt(0.5) / 16, rel=1e-15)
    assert cfl_cap(p, 32) == pytest.approx(0.0220971, abs=1e-7)


@pytest.mark.parametrize("settings", [
    {"t_end": 1.0, "snapshot_every": 0},
    {"t_end": math.nan},
    {"t_end": math.inf},
    {"t_end": -1.0},
])
def test_config_rejects_invalid_settings(settings):
    # rejected at construction: inside run snapshot_every = 0 divides by zero
    # past the breakdown handler
    with pytest.raises(InvalidConfigError):
        EvolutionConfig(**settings)


def test_config_is_frozen():
    # a field set after the checks used to reach run: t_end = nan raised
    # ValueError there, snapshot_every = 0 ZeroDivisionError
    cfg = EvolutionConfig(t_end=1.0)
    for name, value in (("t_end", math.nan), ("snapshot_every", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.t_end, cfg.snapshot_every) == (1.0, 10)


def test_run_solves_each_state_once(grid32, monkeypatch):
    # a recorded state shares its transmission solve with the first stage of
    # the step that leaves it: 1 + 4·steps solves, plus one per recorded state
    # that is not stepped again (the parent's counts were 10 and 41)
    solves = []

    def counted(state):
        solves.append(state)
        return transmission_solve(state)

    monkeypatch.setattr(evolution, "transmission_solve", counted)
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), 0.2 * np.sin(grid32.nodes), eps=0.2)
    dt = cfl_cap(st.params, 32)
    for steps, every, snapshots, expected in ((2, 10**9, 2, 9), (8, 1, 9, 33)):
        solves.clear()
        series = run(EvolutionConfig(t_end=steps * dt, snapshot_every=every), st)
        assert not series.broke_down and len(series.times) == snapshots
        assert len(solves) == expected
        assert len({id(s) for s in solves}) == expected


def test_rhs_is_the_composition_of_its_parts():
    # rhs may share work between the transmission solve, the tendency and the
    # projection, but not change a bit of their composition
    rng = np.random.default_rng(20)
    for n in (16, 32):
        grid = PeriodicGrid(n)
        for rbm in (0.0, 0.4):
            for bond in (100.0, math.inf):
                p = derive_params(config_from_dimensionless(
                    rng.uniform(0.05, 0.5), rng.uniform(0.1, 1.0), rbm,
                    rng.uniform(0.6, 1.6), bond))
                for _ in range(3):
                    zeta = smooth_field(rng, grid, 4, 0.5 / max(p.eps_plus, p.eps_minus))
                    psi = smooth_field(rng, grid, 4, rng.uniform(0.1, 1.0))

                    def fresh():
                        return InterfaceState(grid=grid, zeta=zeta, psi=psi, params=p, n_z=8)

                    st = fresh()
                    parts = dealias(grid, tendency(st, transmission_solve(st)))
                    assert np.array_equal(rhs(fresh()), parts)


def _out_of_band(grid, u):
    """Share of the energy of each row of u in the modes the 2/3 rule removes."""
    power = np.abs(np.fft.fft(u, axis=-1)) ** 2
    removed = ~_retained(grid, grid.wavenumbers)
    return np.sum(power[..., removed], axis=-1) / np.sum(power, axis=-1)


def test_rhs_has_no_energy_above_the_two_thirds_cutoff(grid32):
    # modes 11 and 14 of 32 nodes lie above the cutoff 2/3·16, and they and
    # the products of the tendency put energy there; rhs leaves none
    x = grid32.nodes
    st = make_state(grid32, 0.5 * np.cos(x) + 0.05 * np.cos(11 * x),
                    0.2 * np.sin(x) + 0.02 * np.sin(14 * x), eps=0.3)
    assert np.all(_out_of_band(grid32, tendency(st, transmission_solve(st))) > 1e-6)
    assert np.all(_out_of_band(grid32, rhs(st)) <= 1e-28)


def test_rk4_step_keeps_a_state_in_the_retained_band(grid32):
    # a state inside the band steps to one inside it, forwards and backwards,
    # although its unprojected tendency leaves the band
    x = grid32.nodes
    st = make_state(grid32, 0.6 * np.cos(x) + 0.2 * np.sin(3 * x + 0.4),
                    0.3 * np.sin(2 * x), eps=0.3)
    assert np.all(_out_of_band(grid32, tendency(st, transmission_solve(st))) > 1e-12)
    for dt in (cfl_cap(st.params, 32), -cfl_cap(st.params, 32)):
        out = rk4_step(st, dt)
        assert np.all(_out_of_band(grid32, np.array([out.zeta, out.psi])) <= 1e-28)


def tendency_from_identities(st, tr):
    """The tendency with ∂xψ± and 𝒢ψ recovered from the ± traces by the
    identities ∂xψ± = V± + εw±ζₓ and 𝒢ψ = w⁺(1 + ε²μζₓ²) − εμζₓ∂xψ⁺."""
    p, zx = st.params, st.zeta_x
    denom = 1.0 + p.eps**2 * p.mu * zx**2
    dx_plus = tr.v_plus + p.eps * tr.w_plus * zx
    dx_minus = tr.v_minus + p.eps * tr.w_minus * zx
    dzeta = (tr.w_plus * denom - p.eps * p.mu * zx * dx_plus) / p.mu
    dzeta -= dzeta.mean()
    dpsi = (-st.zeta - 0.5 * p.eps * (p.rhobar_plus * dx_plus**2 - p.rhobar_minus * dx_minus**2)
            + 0.5 * p.eps / p.mu * denom
            * (p.rhobar_plus * tr.w_plus**2 - p.rhobar_minus * tr.w_minus**2))
    if not math.isinf(p.bond):
        dpsi += deriv(st.grid, zx / np.sqrt(denom)) / p.bond
    return np.array([dzeta, dpsi])


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("rbm", [0.0, 0.4])
@pytest.mark.parametrize("bond", [50.0, math.inf])
def test_tendency_matches_the_identity_recovery(n, rbm, bond):
    # the bundle's ∂xψ± and 𝒢ψ against their recovery from the traces:
    # measured ≤ 1.8e-16 of ‖tendency‖∞ over this family
    grid = PeriodicGrid(n)
    rng = np.random.default_rng([n, int(10 * rbm), int(math.isinf(bond))])
    st = make_state(grid, smooth_field(rng, grid, 3, 1.0), smooth_field(rng, grid, 3, 0.5),
                    eps=0.3, mu=0.5, rbm=rbm, bond=bond, n_z=8)
    tr = transmission_solve(st)
    oracle = tendency_from_identities(st, tr)
    assert np.max(np.abs(tendency(st, tr) - oracle)) <= 1e-15 * np.max(np.abs(oracle))


def test_run_hamiltonian_drift_is_second_order_in_n_z():
    # the Hamiltonian of the snapshots is conserved up to the discrete shape
    # derivative, O(n_z⁻²): measured relative drifts over t = 1 of 7.3e-7,
    # 1.9e-7 and 4.7e-8 at n_z = 8, 16 and 32
    grid = PeriodicGrid(32)
    x = grid.nodes
    drifts = []
    for n_z in (8, 16, 32):
        st = make_state(grid, 0.5 * np.cos(x) + 0.2 * np.sin(2 * x), 0.3 * np.sin(x),
                        eps=0.3, mu=0.5, rbm=0.4, ratio=1.5, bond=100.0, n_z=n_z)
        series = run(EvolutionConfig(t_end=1.0, snapshot_every=10**6), st)
        assert not series.broke_down
        first, last = (d["hamiltonian"] for d in series.diagnostics)
        drifts.append(abs(last - first) / abs(first))
    assert drifts[1] < 4e-7
    assert drifts[0] >= 3.0 * drifts[1] and drifts[1] >= 3.0 * drifts[2]


def test_run_mass_conservation_short():
    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(0.1, 1.0, 0.4, 1.5, 1e4))
    st = InterfaceState(grid=grid, zeta=np.cos(2 * grid.nodes), psi=np.zeros(16),
                        params=p, n_z=12)
    series = run(EvolutionConfig(t_end=8.0, snapshot_every=20), st)
    assert not series.broke_down
    masses = [d["mass"] for d in series.diagnostics]
    assert max(abs(m - masses[0]) for m in masses) < 1e-12
    assert all(t2 > t1 for t1, t2 in zip(series.times, series.times[1:]))


def test_run_linear_energy_isometry():
    # the discrete linear flow conserves b|ζ̂ₖ|² + a|ψ̂ₖ|² with its own rates, and
    # RK4 scales that energy by exactly |R(iω_h h)|² per step of length h, with
    # R(z) = 1 + z + z²/2 + z³/6 + z⁴/24; any other drift is an operator or
    # integrator error
    from conftest import linear_mode_rates

    grid = PeriodicGrid(16)
    p = derive_params(config_from_dimensionless(1e-5, 1.0, 0.4, 1.5, 50.0))
    amp = 1e-5
    k = 2
    st = InterfaceState(grid=grid, zeta=amp * np.cos(k * grid.nodes),
                        psi=np.zeros(16), params=p, n_z=16)
    g0 = flat_coupled_symbol(p, float(k))
    om = math.sqrt((1 + k**2 / p.bond) / p.mu * g0)
    a, b = linear_mode_rates(p, grid, 16, k)
    # second-order scaling of the 1e-4 symbol error pinned at n_z = 32
    assert abs(a / (g0 / p.mu) - 1.0) < 4e-4
    om_h = math.sqrt(a * b)
    series = run(EvolutionConfig(t_end=10 * 2 * math.pi / om, snapshot_every=25), st)
    assert not series.broke_down

    def energy(s):
        zh = np.fft.fft(s.zeta)[k] / grid.n
        ph = np.fft.fft(s.psi)[k] / grid.n
        return b * abs(zh) ** 2 + a * abs(ph) ** 2

    def rk4_gain(h):
        z = 1j * om_h * h
        return abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 2

    dt = cfl_cap(p, grid.n)
    e0 = energy(series.states[0])
    # ψ = 0 at the start, where only the exact ζ weight 1 + k²/Bo of the
    # continuum energy enters
    assert not series.states[0].psi.any()
    zh0 = np.fft.fft(series.states[0].zeta)[k] / grid.n
    assert e0 == pytest.approx((1.0 + k**2 / p.bond) * abs(zh0) ** 2, rel=1e-12)
    drift = 0.0
    for t, s in zip(series.times, series.states):
        full = math.floor(t / dt + 1e-9)
        predicted = rk4_gain(dt) ** full * rk4_gain(t - full * dt)
        drift = max(drift, abs(energy(s) / e0 - predicted))
    assert drift < 1e-6


def test_breakdown_is_reported(grid32):
    # start skimming the depth limit with a violent potential: the run must
    # end as a recorded breakdown, not an exception
    p = derive_params(config_from_dimensionless(0.5, 0.64, 0.45, 1.0, 1e6))
    st = InterfaceState(grid=grid32, zeta=1.9 * np.cos(grid32.nodes),
                        psi=5.0 * np.sin(grid32.nodes), params=p, n_z=12)
    series = run(EvolutionConfig(t_end=0.5, snapshot_every=5), st)
    assert series.broke_down
    assert 0.0 <= series.breakdown["time"] <= 0.5
    assert "reason" in series.breakdown


@pytest.mark.parametrize("case, error", [("square wave", "DegenerateGeometryError"),
                                         ("psi 1.7e308", "NumericalError"),
                                         ("psi 1e308", "NumericalError")])
def test_run_records_a_breakdown_of_its_initial_data(grid32, case, error):
    # the square wave is inside the domain, ε⁻‖ζ‖∞ = 0.97, but the Gibbs
    # overshoot of its 2/3-rule projection pinches a layer off; 1.7e308·sin x
    # overflows the projection, and 1e308·sin x the first DN product
    p = derive_params(config_from_dimensionless(0.5, 0.5, 0.4, 1.0, 100.0))
    x = grid32.nodes
    zeta, psi = 0.3 * np.cos(x), np.zeros(32)
    if case == "square wave":
        zeta = np.where(np.sin(x) >= 0.0, 0.97, -0.97) / p.eps_minus
    else:
        psi = float(case.split()[1]) * np.sin(x)
    st = InterfaceState(grid=grid32, zeta=zeta, psi=psi, params=p, n_z=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        series = run(EvolutionConfig(t_end=0.01), st)
    assert series.times == [] and series.breakdown["time"] == 0.0
    assert series.breakdown["reason"].startswith(error)


def test_run_dealiases_at_small_eps(grid32):
    # the 2/3 rule applies at every ε: mode 12 of 32 nodes (above 2/3·16) is
    # gone from the first snapshot on, and the retained mode 1 is untouched
    x = grid32.nodes
    st = make_state(grid32, np.cos(x) + 0.01 * np.cos(12 * x), 0.1 * np.sin(x), eps=0.05)
    series = run(EvolutionConfig(t_end=2 * cfl_cap(st.params, 32), snapshot_every=1), st)
    assert len(series.states) == 3
    zh = np.fft.fft(series.states[0].zeta) / 32
    assert abs(zh[12]) < 1e-15 and abs(zh[1] - 0.5) < 1e-15
    # ζ's energy above the cutoff, relative to its energy off the mean
    for s in series.states:
        power = np.abs(np.fft.fft(s.zeta)) ** 2
        assert np.sum(power[~_retained(grid32, grid32.wavenumbers)]) < 1e-28 * np.sum(power[1:])


def test_monitor_rest_trajectory(grid32):
    st = make_state(grid32, np.zeros(32), np.zeros(32), eps=0.2)
    series = run(EvolutionConfig(t_end=0.3, snapshot_every=4), st)
    assert len(series.times) >= 3
    rows = monitor_criterion(series)
    for t, rep in rows:
        assert rep.margin_d == pytest.approx(1.0, abs=1e-10)
        assert rep.verdict == "stable"


def test_monitor_evaluates_one_snapshot(grid32):
    # a snapshot is evaluated by itself: alone in its series it gets the same
    # report as among its neighbours
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), 0.2 * np.sin(grid32.nodes), eps=0.2)
    series = run(EvolutionConfig(t_end=0.1, snapshot_every=2), st)
    rows = monitor_criterion(series)
    assert len(rows) == len(series.times) >= 3
    i = len(rows) // 2
    alone = TimeSeries(times=[series.times[i]], states=[series.states[i]],
                       traces=[series.traces[i]], diagnostics=[series.diagnostics[i]])
    ((t, rep),) = monitor_criterion(alone)
    assert t == rows[i][0]
    assert rep.to_dict() == rows[i][1].to_dict()


def test_snapshots_hold_no_solver_caches(grid32):
    # a recorded state keeps its fields but not the stepping state's layers,
    # 𝒢̃, 𝒢̃ factor or trace bundle; warm copies of the snapshots get the same reports
    st = make_state(grid32, 0.5 * np.cos(grid32.nodes), 0.2 * np.sin(grid32.nodes), eps=0.2)
    series = run(EvolutionConfig(t_end=0.1, snapshot_every=2), st)
    assert len(series.states) >= 3
    cached = ("_layers", "_g_tilde", "_traces", "_slope_terms")
    assert all(name not in vars(s) for s in series.states for name in cached)
    warm = [s.replace_fields(s.zeta, s.psi) for s in series.states]
    for s in warm:
        transmission_solve(s)
    assert all(len(vars(s)["_layers"]) == 2 and "_g_tilde" in vars(s) for s in warm)
    rows = monitor_criterion(series)
    warm_rows = monitor_criterion(TimeSeries(times=series.times, states=warm,
                                             traces=series.traces,
                                             diagnostics=series.diagnostics))
    assert [(t, r.to_dict()) for t, r in rows] == [(t, r.to_dict()) for t, r in warm_rows]


def test_snapshot_differences_converge_to_one_state_rates():
    # centred differences over states c undealiased steps apart converge to the
    # one-state 𝔞 and ∂t⟦V⟧ at second order in the cadence; measured
    # |𝔞₃ − 𝔞|∞ = 5.0e-6, 2.0e-5, 7.9e-5, 3.1e-4 and |∂t⟦V⟧₃ − ∂t⟦V⟧|∞ = 8.5e-5,
    # 3.5e-4, 1.4e-3, 5.5e-3 at c = 1, 2, 4, 8
    grid = PeriodicGrid(64)
    x = grid.nodes
    st = make_state(grid, 0.8 * np.cos(x) + 0.3 * np.sin(2 * x + 0.3),
                    0.3 * np.sin(x + 0.4), eps=0.2, mu=0.5, ratio=1.0, bond=100.0, n_z=16)
    dt = cfl_cap(st.params, grid.n)
    states = [st]
    for _ in range(16):
        states.append(rk4_step(states[-1], dt))
    traces = [transmission_solve(s) for s in states]
    m = 8
    exact = stability_inputs(states[m], traces[m])
    errs = []
    for c in (1, 2, 4, 8):
        nxt, prv = traces[m + c], traces[m - c]
        rates = TraceBundle(*(
            (getattr(nxt, f.name) - getattr(prv, f.name)) / (2 * c * dt)
            for f in dataclasses.fields(TraceBundle)
        ))
        a3 = a_field(grid, st.params, traces[m], rates)
        errs.append((np.max(np.abs(a3 - exact.a_values)),
                     np.max(np.abs(rates.jump_v() - exact.djump_v_t))))
    errs = np.array(errs)
    assert errs[0, 0] < 1e-5 and errs[0, 1] < 2e-4
    ratios = errs[1:] / errs[:-1]
    assert np.all((ratios > 3.5) & (ratios < 4.5))
