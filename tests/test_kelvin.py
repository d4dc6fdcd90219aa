import math

import numpy as np
import pytest

from twofluid import (
    InvalidConfigError,
    NumericalError,
    ShearConfig,
    critical_shear,
    kelvin_criterion_threshold,
    max_growth,
    mode_frequencies,
    mode_growth,
)

AIR_WATER_DEEP = ShearConfig(
    rho_plus=1025.0, rho_minus=1.2, depth_plus=1e3, depth_minus=1e3,
    sigma=0.073, gravity=9.81,
)


def test_no_shear_is_stable():
    cfg = ShearConfig(1000.0, 400.0, 2.0, 1.0, c_plus=0.7, c_minus=0.7, sigma=0.01)
    for k in np.geomspace(1e-3, 1e4, 50):
        assert mode_growth(k, cfg) == 0.0


def test_equal_densities_no_tension_always_unstable():
    cfg = ShearConfig(1000.0, 1000.0, 1.0, 1.0, c_plus=0.5, c_minus=-0.5, sigma=0.0)
    for k in np.geomspace(1e-2, 1e3, 30):
        assert mode_growth(k, cfg) > 0.0


def test_deep_water_marginal_mode():
    # classical threshold: (rho+ rho-/(rho+ + rho-)) U^2 = 2 sqrt(g drho sigma),
    # attained at k* = sqrt(g drho / sigma)
    cfg0 = AIR_WATER_DEEP
    g, s = cfg0.gravity, cfg0.sigma
    drho = cfg0.rho_plus - cfg0.rho_minus
    k_star = math.sqrt(g * drho / s)
    u_star = math.sqrt(
        2.0 * math.sqrt(g * drho * s) * (cfg0.rho_plus + cfg0.rho_minus)
        / (cfg0.rho_plus * cfg0.rho_minus)
    )
    assert mode_growth(k_star, cfg0.with_shear(0.999 * u_star)) == 0.0
    assert mode_growth(k_star, cfg0.with_shear(1.001 * u_star)) > 0.0
    # double root at the marginal point: the two frequencies coincide
    w1, w2 = mode_frequencies(k_star, cfg0.with_shear(u_star))
    assert abs(w1 - w2) < 1e-6 * abs(w1)


def test_deep_water_critical_shear_value():
    u_crit, k_crit = critical_shear(AIR_WATER_DEEP)
    closed = (
        4.0 * AIR_WATER_DEEP.sigma * AIR_WATER_DEEP.gravity
        * (AIR_WATER_DEEP.rho_plus - AIR_WATER_DEEP.rho_minus)
        * (AIR_WATER_DEEP.rho_plus + AIR_WATER_DEEP.rho_minus) ** 2
        / (AIR_WATER_DEEP.rho_plus * AIR_WATER_DEEP.rho_minus) ** 2
    ) ** 0.25
    assert u_crit == pytest.approx(closed, rel=1e-4)
    assert u_crit == pytest.approx(6.7, rel=0.01)
    k_star = math.sqrt(
        AIR_WATER_DEEP.gravity * (AIR_WATER_DEEP.rho_plus - AIR_WATER_DEEP.rho_minus)
        / AIR_WATER_DEEP.sigma
    )
    assert k_crit == pytest.approx(k_star, rel=0.05)


def test_critical_shear_degenerate_configurations():
    # equal densities without surface tension: every shear is unstable
    u, _ = critical_shear(ShearConfig(1000.0, 1000.0, 1.0, 1.0, sigma=0.0))
    assert u == 0.0
    # a stable stratification without surface tension: the threshold T(k)
    # decays like 1/k, so the infimum is 0, reached only as k -> infinity
    cfg = ShearConfig(1025.0, 1000.0, 10.0, 3.0, sigma=0.0)
    assert critical_shear(cfg) == (0.0, math.inf)
    assert mode_growth(1e6, cfg.with_shear(1e-3)) > 0.0
    # equal densities with surface tension: T(k) = (tanh kH⁺ + tanh kH⁻)σk/ρ
    # decays like k², so the infimum is 0, reached only as k -> 0
    cfg = ShearConfig(1000.0, 1000.0, 1.0, 1.0, sigma=0.07)
    assert critical_shear(cfg) == (0.0, 0.0)
    assert mode_growth(1e-6, cfg.with_shear(1e-3)) > 0.0
    # a single stream: every mode is neutral
    with pytest.raises(NumericalError):
        critical_shear(ShearConfig(1000.0, 0.0, 1.0, 1.0, sigma=0.07))


def test_galilean_invariance(rng):
    for _ in range(10):
        jump = rng.uniform(0.1, 5.0)
        shift = rng.uniform(-10, 10)
        base = ShearConfig(1200.0, 900.0, 0.05, 0.11, c_plus=jump / 2,
                           c_minus=-jump / 2, sigma=0.02)
        moved = ShearConfig(1200.0, 900.0, 0.05, 0.11, c_plus=jump / 2 + shift,
                            c_minus=-jump / 2 + shift, sigma=0.02)
        for k in (0.5, 7.0, 300.0):
            assert mode_growth(k, base) == pytest.approx(
                mode_growth(k, moved), abs=1e-12 * max(1.0, mode_growth(k, base))
            )


def test_jump_sign_symmetry():
    cfg = ShearConfig(1100.0, 1000.0, 0.2, 0.1, sigma=0.03)
    for k in (1.0, 50.0):
        up = mode_growth(k, cfg.with_shear(1.7))
        down = mode_growth(k, cfg.with_shear(-1.7))
        assert up == pytest.approx(down, rel=1e-12)


def test_threshold_formula_scalings():
    base = kelvin_criterion_threshold(AIR_WATER_DEEP, 1.0)
    doubled = kelvin_criterion_threshold(AIR_WATER_DEEP, 2.0)
    assert doubled == pytest.approx(base * 2.0 ** (-0.25), rel=1e-12)
    dry = ShearConfig(1000.0, 0.0, 1.0, 1.0, sigma=0.05)
    assert kelvin_criterion_threshold(dry, 1.0) == math.inf
    no_sigma = ShearConfig(1000.0, 500.0, 1.0, 1.0, sigma=0.0)
    assert kelvin_criterion_threshold(no_sigma, 1.0) == 0.0


def test_sigma_to_zero_threshold_to_zero():
    vals = []
    for s in (0.05, 0.005, 0.0005):
        cfg = ShearConfig(1100.0, 900.0, 10.0, 10.0, sigma=s)
        u, _ = critical_shear(cfg)
        vals.append(u)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.5 * vals[0]


@pytest.mark.parametrize("change", [
    {"sigma": -0.07}, {"sigma": math.nan}, {"gravity": -9.81}, {"c_plus": math.inf},
], ids=["sigma-negative", "sigma-nan", "gravity-negative", "c-plus-inf"])
def test_shear_config_rejects_non_physical_values(change):
    # each used to construct: a negative sigma made critical_shear raise a
    # math domain error while max_growth returned a rate, a NaN sigma gave a
    # NaN threshold, and a negative gravity a math domain error
    with pytest.raises(InvalidConfigError):
        ShearConfig(**{"rho_plus": 1000.0, "rho_minus": 990.0, "depth_plus": 1.0,
                       "depth_minus": 1.0, "sigma": 0.07, **change})


def test_mode_growth_rejects_bad_wavenumber():
    with pytest.raises(InvalidConfigError):
        mode_growth(0.0, AIR_WATER_DEEP)


def test_mode_frequencies_reject_bad_wavenumber():
    # the restoring term divides by k: k = 0 raises instead of dividing by zero
    for k in (0.0, -1.0):
        with pytest.raises(InvalidConfigError):
            mode_frequencies(k, AIR_WATER_DEEP)


def test_max_growth_positive_above_threshold():
    rate, k = max_growth(AIR_WATER_DEEP.with_shear(10.0))
    assert rate > 0.0
    assert 1e-3 <= k <= 1e5
