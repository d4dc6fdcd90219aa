import math
from dataclasses import replace

import numpy as np
import pytest

from twofluid import (
    InvalidConfigError,
    PhysicalConfig,
    PRESETS,
    Verdict,
    config_from_dimensionless,
    derive_params,
    practical_verdict,
    upsilon,
)


def test_grue_effective_depth_and_densities():
    p = derive_params(PRESETS["grue"])
    assert p.rhobar_plus == pytest.approx(0.506, abs=5e-4)
    assert p.rhobar_minus == pytest.approx(0.494, abs=5e-4)
    assert p.h_eff == pytest.approx(0.243, abs=5e-4)


def test_koop_butler_effective_depth():
    p = derive_params(PRESETS["koop_butler"])
    assert p.rhobar_plus == pytest.approx(0.610, abs=5e-4)
    assert p.rhobar_minus == pytest.approx(0.390, abs=5e-4)
    assert p.h_eff == pytest.approx(0.01989, abs=1e-5)


def test_equal_depths_give_h_equal_depth():
    cfg = PhysicalConfig(1000.0, 400.0, 3.0, 3.0, 0.1, 10.0, 0.05)
    assert derive_params(cfg).h_eff == pytest.approx(3.0, rel=1e-14)


def test_param_identities_random_configs(rng):
    for _ in range(30):
        cfg = PhysicalConfig(
            rho_plus=rng.uniform(500, 2000),
            rho_minus=rng.uniform(0, 499),
            depth_plus=rng.uniform(0.01, 50),
            depth_minus=rng.uniform(0.01, 50),
            amplitude=rng.uniform(0, 1),
            wavelength=rng.uniform(0.1, 100),
            surface_tension=rng.uniform(1e-4, 0.2),
        )
        p = derive_params(cfg)
        assert p.rhobar_plus + p.rhobar_minus == pytest.approx(1.0, abs=1e-12)
        assert p.rhobar_plus / p.hbar_plus + p.rhobar_minus / p.hbar_minus == pytest.approx(
            1.0, abs=1e-12
        )
        assert p.eps_plus * p.hbar_plus == pytest.approx(p.eps, rel=1e-12, abs=1e-15)
        assert p.eps_minus * p.hbar_minus == pytest.approx(p.eps, rel=1e-12, abs=1e-15)
        assert p.mu_plus == pytest.approx(p.mu * p.hbar_plus**2, rel=1e-12)
        assert p.mu_minus == pytest.approx(p.mu * p.hbar_minus**2, rel=1e-12)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(1000.0, 1001.0, 1.0, 1.0, 0.1, 1.0, 0.05)
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(1000.0, 1.0, -1.0, 1.0, 0.1, 1.0, 0.05)
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(1000.0, 1.0, 1.0, 1.0, 0.1, 0.0, 0.05)
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(1000.0, 1.0, 1.0, 1.0, -0.1, 1.0, 0.05)


@pytest.mark.parametrize("change", [
    {"amplitude": math.nan}, {"surface_tension": math.nan}, {"amplitude": math.inf},
    {"rho_plus": math.inf},
], ids=["amplitude-nan", "sigma-nan", "amplitude-inf", "rho-plus-inf"])
def test_physical_config_rejects_non_finite_values(change):
    # each used to construct: a NaN amplitude gave eps = nan, and a NaN
    # surface tension gave Bo = upsilon = inf, silently the sigma = 0 limit
    cfg = dict(rho_plus=1000.0, rho_minus=1.0, depth_plus=1.0, depth_minus=1.0,
               amplitude=0.1, wavelength=1.0, surface_tension=0.05)
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(**{**cfg, **change})


@pytest.mark.parametrize("change", [
    {"surface_tension": -0.07}, {"surface_tension": math.nan}, {"gravity": -9.81},
    {"depth_plus": math.inf}, {"rho_minus": 1010.0},
], ids=["sigma-negative", "sigma-nan", "gravity-negative", "depth-plus-inf",
        "rho-minus-above-plus"])
def test_stream_config_rejects_non_physical_values(change):
    # the checks of two uniform streams of close densities: a negative σ
    # or g would give an imaginary critical shear, a NaN σ a NaN one
    cfg = dict(rho_plus=1000.0, rho_minus=990.0, depth_plus=1.0, depth_minus=1.0,
               amplitude=0.1, wavelength=1.0, surface_tension=0.07)
    with pytest.raises(InvalidConfigError):
        PhysicalConfig(**{**cfg, **change})


@pytest.mark.parametrize("change", [
    {"bond": 0.0}, {"eps": math.nan}, {"rhobar_minus": 0.5}, {"rhobar_minus": -0.1},
], ids=["bond-0", "eps-nan", "rhobar_minus-0.5", "rhobar_minus-negative"])
def test_config_from_dimensionless_rejects_bad_targets(change):
    # Bo = 0 used to raise ZeroDivisionError, and eps = nan passed through
    with pytest.raises(InvalidConfigError):
        config_from_dimensionless(**{"eps": 0.1, "mu": 0.5, "rhobar_minus": 0.4, **change})


def test_upsilon_air_water_breaking():
    assert upsilon(PRESETS["air_water_breaking"]) == pytest.approx(0.27, rel=0.05)


def test_upsilon_koop_butler_range():
    cfg = PRESETS["koop_butler"]
    assert upsilon(replace(cfg, amplitude=0.00034)) == pytest.approx(5.39e-7, rel=0.05)
    assert upsilon(replace(cfg, amplitude=0.0068)) == pytest.approx(0.086, rel=0.05)


def test_upsilon_zero_amplitude():
    cfg = replace(PRESETS["grue"], amplitude=0.0)
    assert upsilon(cfg) == 0.0


def test_upsilon_quartic_in_amplitude():
    cfg = PRESETS["grue"]
    base = upsilon(cfg)
    assert upsilon(replace(cfg, amplitude=2 * cfg.amplitude)) == pytest.approx(
        16.0 * base, rel=1e-12
    )


def test_upsilon_sigma_zero_is_error():
    with pytest.raises(InvalidConfigError):
        upsilon(replace(PRESETS["grue"], surface_tension=0.0))


def test_upsilon_homogeneous_in_density_scale():
    cfg = PRESETS["grue"]
    scaled = PhysicalConfig(
        rho_plus=3.0 * cfg.rho_plus,
        rho_minus=3.0 * cfg.rho_minus,
        depth_plus=cfg.depth_plus,
        depth_minus=cfg.depth_minus,
        amplitude=cfg.amplitude,
        wavelength=cfg.wavelength,
        surface_tension=3.0 * cfg.surface_tension,
        gravity=cfg.gravity,
    )
    assert upsilon(scaled) == pytest.approx(upsilon(cfg), rel=1e-12)


def test_sigma_inference_grue():
    # Υ ∝ 1/σ, so σ·Υ(σ) is the surface tension that gives Υ = 1
    cfg = replace(PRESETS["grue"], amplitude=0.2)
    sigma = cfg.surface_tension * upsilon(cfg)
    assert sigma == pytest.approx(0.095, abs=0.001)


def test_sigma_upsilon_round_trip(rng):
    # Υ ∝ 1/σ: the surface tension Υ(σ = 1)/target gives the target
    cfg = PRESETS["koop_butler"]
    for target in 10.0 ** rng.uniform(-6, 2, size=10):
        sigma = upsilon(replace(cfg, surface_tension=1.0)) / target
        assert upsilon(replace(cfg, surface_tension=sigma)) == pytest.approx(
            target, rel=1e-12
        )
    assert upsilon(replace(cfg, surface_tension=1.0)) / upsilon(cfg) == pytest.approx(
        cfg.surface_tension, rel=1e-12
    )


def test_bond_air_water_long_wave():
    assert derive_params(PRESETS["air_water_long"]).bond == pytest.approx(1.7e8, rel=0.1)


def test_bond_scalings():
    cfg = PRESETS["grue"]
    base = derive_params(cfg).bond
    assert derive_params(replace(cfg, surface_tension=2 * cfg.surface_tension)).bond == (
        pytest.approx(base / 2, rel=1e-12))
    assert derive_params(replace(cfg, surface_tension=0.0)).bond == math.inf


def test_shear_scale():
    # the typical velocity jump (a/H)·√(g'H) of the criteria's dimensional form
    def shear_scale(cfg):
        p = derive_params(cfg)
        return p.eps * p.wave_speed

    cfg = replace(PRESETS["grue"], amplitude=0.2)
    p = derive_params(cfg)
    expected = (0.2 / p.h_eff) * math.sqrt(p.g_reduced * p.h_eff)
    assert shear_scale(cfg) == pytest.approx(expected, rel=1e-12)
    assert shear_scale(replace(cfg, amplitude=0.0)) == 0.0
    assert shear_scale(replace(cfg, amplitude=0.4)) == pytest.approx(
        2 * shear_scale(cfg), rel=1e-12
    )


def test_practical_verdict_bands():
    assert practical_verdict(0.0) is Verdict.STABLE
    assert practical_verdict(4e-4) is Verdict.STABLE
    assert practical_verdict(0.27) is Verdict.CRITICAL
    assert practical_verdict(100.0) is Verdict.UNSTABLE
    assert practical_verdict(math.inf) is Verdict.UNSTABLE


def test_config_from_dimensionless_round_trip(rng):
    for _ in range(20):
        eps = rng.uniform(0.0, 0.8)
        mu = rng.uniform(0.001, 1.0)
        rbm = rng.uniform(0.0, 0.49)
        r = rng.uniform(0.2, 5.0)
        bond = rng.uniform(10.0, 1e6)
        p = derive_params(config_from_dimensionless(eps, mu, rbm, r, bond))
        assert p.eps == pytest.approx(eps, rel=1e-10, abs=1e-14)
        assert p.mu == pytest.approx(mu, rel=1e-10)
        assert p.rhobar_minus == pytest.approx(rbm, rel=1e-10, abs=1e-14)
        assert p.hbar_plus / p.hbar_minus == pytest.approx(r, rel=1e-10)
        assert p.bond == pytest.approx(bond, rel=1e-10)
