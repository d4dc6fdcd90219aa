"""Public scalar entry points reject a value their domain excludes (NaN, ±∞,
0 or −1): InvalidConfigError, or NumericalError for a non-finite array, and no
RuntimeWarning.  Values rejected before these checks (a wavenumber ≤ 0, μ < 0,
the c_flat cases of test_stability, γ outside [0, 1]) are tested by module.
A finite Sobolev order whose weight (1 + ξ²)^s overflows on the grid is
outside the domain too, as is a grid size that is not an integer, and a time
step that is not finite (or, for the Rusanov step, negative).  A finite field
is inside the domain however large its entries."""

import math
import warnings

import numpy as np
import pytest

from twofluid import (InterfaceState, InvalidConfigError, NumericalError, PeriodicGrid,
                      ShearConfig, SWState, c_flat, cfl_cap, config_from_dimensionless,
                      criteria_from_scalars, derive_params, fv_step, mode_growth,
                      modewise_margin, norm_hdot_mu, norm_sobolev, practical_verdict, rk4_step)
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


def interface_state(psi=None):
    psi = np.sin(GRID.nodes) if psi is None else psi
    return InterfaceState(grid=GRID, zeta=0.3 * np.cos(GRID.nodes), psi=psi, params=PARAMS,
                          n_z=8)


def sw_state(v=None):
    v = 0.1 * np.sin(GRID.nodes) if v is None else v
    return SWState(GRID, 0.3 * np.cos(GRID.nodes), v=v, params=PARAMS)


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
    # a negative Rusanov step is anti-diffusive; a negative RK4 step is a
    # backward step, inside the domain.  Both reject before any solve.
    "fv_step-dt": (lambda v: fv_step(sw_state(), v), NOT_FINITE + (-0.01,)),
    "rk4_step-dt": (lambda v: rk4_step(interface_state(), v), NOT_FINITE),
    "InterfaceState-psi[3]": (lambda v: interface_state(field(v)), NOT_FINITE, NumericalError),
    "SWState-v[3]": (lambda v: sw_state(field(v)), NOT_FINITE, NumericalError),
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


@pytest.mark.parametrize("value", [1e200, 1e300])
@pytest.mark.parametrize("make", [interface_state, sw_state], ids=["InterfaceState-psi[3]",
                                                                  "SWState-v[3]"])
def test_a_finite_field_with_large_entries_is_accepted(make, value):
    # the finiteness check squares the field, which overflows past 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        make(field(value))
