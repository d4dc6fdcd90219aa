import numpy as np

from twofluid import (
    PeriodicGrid,
    SWState,
    compare_with_full,
    config_from_dimensionless,
    derive_params,
    fv_step,
    hyperbolicity_indicator,
    jacobian_discriminant,
)
from twofluid.swsw import max_wave_speed
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


def test_compare_with_full_is_first_order_in_mu():
    grid = PeriodicGrid(16)
    zeta0 = np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)
    v0 = 0.5 * np.cos(grid.nodes + 0.4)
    table = compare_with_full(grid, zeta0, v0, eps=0.1, mu_list=[0.05, 0.1, 0.2],
                              t_end=0.25, n_z=12)
    assert not any(r.full_broke_down or r.sw_halted for r in table.rows)
    assert 0.75 <= table.fitted_exponent() <= 1.25
