"""Public scalar entry points reject a value their domain excludes (NaN, ±∞,
0 or −1): InvalidConfigError, or NumericalError for a non-finite array, and no
RuntimeWarning.  Values rejected before these checks (a wavenumber ≤ 0, μ < 0,
the c_flat cases of test_stability, γ outside [0, 1]) are tested by module.
A finite Sobolev order whose weight (1 + ξ²)^s overflows on the grid is
outside the domain too, as is a grid size that is not an integer."""

import math
import warnings

import numpy as np
import pytest

from twofluid import (InvalidConfigError, NumericalError, PeriodicGrid, ShearConfig, c_flat,
                      cfl_cap, config_from_dimensionless, criteria_from_scalars, derive_params,
                      mode_growth, modewise_margin, norm_hdot_mu, norm_sobolev, practical_verdict)
from twofluid.spectral import fourier_interpolate

GRID = PeriodicGrid(16)
PARAMS = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
SHEAR = ShearConfig(1025.0, 1.2, 1e3, 1e3, sigma=0.073)
NOT_FINITE = (math.nan, math.inf, -math.inf)
SCALARS = dict(e_value=1.0, grad_zeta_sup=0.5, inf_a=1.0, jump_sup=0.5, jump_sup_d1=0.8)


def field(value=0.0):
    return np.cos(GRID.nodes) + np.where(np.arange(16) == 3, value, 0.0)


def criteria(**bad):
    return criteria_from_scalars(PARAMS, **{**SCALARS, **bad})


def margin(**bad):
    scalars = {**SCALARS, **bad}
    del scalars["jump_sup_d1"]
    return modewise_margin(PARAMS, **scalars)


def c_flat_with(i, value):
    args = [0.6, 0.4, 1.0, 1.0]
    args[i] = value
    return c_flat(*args)


ROWS = {
    "practical_verdict-ups": (practical_verdict, (math.nan, -math.inf, -1.0)),
    "norm_sobolev-s": (lambda v: norm_sobolev(GRID, field(), v), NOT_FINITE + (1e3,)),
    "norm_sobolev-u[3]": (lambda v: norm_sobolev(GRID, field(v), 1.0), NOT_FINITE, NumericalError),
    "norm_hdot_mu-s": (lambda v: norm_hdot_mu(GRID, field(), v, 0.5), NOT_FINITE + (1e3,)),
    "norm_hdot_mu-mu": (lambda v: norm_hdot_mu(GRID, field(), 0.0, v), (math.nan, math.inf)),
    "norm_hdot_mu-u[3]": (lambda v: norm_hdot_mu(GRID, field(v), 0.0, 0.5), NOT_FINITE,
                          NumericalError),
    "mode_growth-k": (lambda v: mode_growth(v, SHEAR), (math.nan, math.inf)),
    "mode_growth-k[1]": (lambda v: mode_growth(np.array([1.0, v]), SHEAR), (math.nan,)),
    "fourier_interpolate-n_fine": (lambda v: fourier_interpolate(GRID, field(), v),
                                   (0, -16, 32.0)),
    "PeriodicGrid-n": (PeriodicGrid, (16.0,)),
    "cfl_cap-n_points": (lambda v: cfl_cap(PARAMS, v), (0, 1, -1, 16.0, math.nan, True)),
    "cfl_cap-length": (lambda v: cfl_cap(PARAMS, 16, v), (*NOT_FINITE, 0.0, -1.0)),
    **{f"criteria_from_scalars-{name}": (lambda v, name=name: criteria(**{name: v}),
                                         NOT_FINITE + ((-1.0,) if name != "inf_a" else ()))
       for name in SCALARS},
    **{f"modewise_margin-{name}": (lambda v, name=name: margin(**{name: v}),
                                   NOT_FINITE + ((-1.0,) if name != "inf_a" else ()))
       for name in ("inf_a", "e_value", "grad_zeta_sup", "jump_sup")},
    **{f"c_flat-{name}": (lambda v, i=i: c_flat_with(i, v), (math.inf,))
       for i, name in enumerate(("rhobar_plus", "rhobar_minus", "hbar_plus", "hbar_minus"))},
}


@pytest.mark.parametrize("call, value, error", [
    pytest.param(call, value, error[0] if error else InvalidConfigError, id=f"{name}={value}")
    for name, (call, values, *error) in ROWS.items() for value in values])
def test_entry_point_rejects_a_value_outside_its_domain(call, value, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call(value)
