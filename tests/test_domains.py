"""Public scalar entry points reject a value their domain excludes (NaN, ±∞,
0 or −1): InvalidConfigError, NumericalError for a non-finite array or a dry
state, ValueError for a layer sign other than ±1, and no RuntimeWarning.
Values rejected before these checks (μ < 0, γ outside [0, 1]) are tested by
module.
A finite Sobolev order whose weight (1 + ξ²)^s overflows on the grid is
outside the domain too, as is a grid size that is not an even integer, and a
time step that is not finite (or, for the Rusanov step, negative or above the
CFL bound).  A finite field is inside the domain however large its entries,
but stepping one whose squares overflow raises NumericalError, as do the
criteria, the tendency, the inner products and the DN products of one past
the largest float."""

import math
import warnings

import numpy as np
import pytest

from twofluid import (EvolutionConfig, InterfaceState, InvalidConfigError, NumericalError,
                      PeriodicGrid, StripOperator, SWState, apply_g_tilde, apply_j, cfl_cap,
                      config_from_dimensionless, criteria_from_scalars, deriv, derive_params,
                      e_quadratic_form, evaluate_criteria, fv_step, inner, ins_form,
                      modewise_margin, norm_hdot_mu, norm_sobolev, practical_verdict, rhs,
                      rk4_step, run, run_swsw, stability_inputs, tendency, transmission_solve,
                      transmission_tangent)
from twofluid.spectral import fourier_interpolate

GRID = PeriodicGrid(16)
GRID32 = PeriodicGrid(32)
PARAMS = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, 1.5, 100.0))
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


def interface_state(psi=None, grid=GRID):
    psi = np.sin(grid.nodes) if psi is None else psi
    return InterfaceState(grid=grid, zeta=0.3 * np.cos(grid.nodes), psi=psi, params=PARAMS,
                          n_z=8)


def sw_state(v=None, zeta=None):
    v = 0.1 * np.sin(GRID.nodes) if v is None else v
    zeta = 0.3 * np.cos(GRID.nodes) if zeta is None else zeta
    return SWState(GRID, zeta, v=v, params=PARAMS)


def on_amplitude(call):
    """call(state) at ψ = v·sin x, a finite state whose products overflow."""
    return lambda v: call(interface_state(v * np.sin(GRID.nodes)))


def inputs_of(state):
    return stability_inputs(state, transmission_solve(state))


def criteria_of(state):
    return evaluate_criteria(inputs_of(state))


def ins_form_at(v, grid=GRID):
    """The instability form of u = v·sin x on the inputs of the default state."""
    return ins_form(v * np.sin(grid.nodes), inputs_of(interface_state(grid=grid)))


def tangent_along(dzeta, dpsi, grid=GRID):
    """transmission_tangent along (ζ̇, ψ̇) at the default state on ``grid``."""
    state = interface_state(grid=grid)
    return transmission_tangent(state, transmission_solve(state), dzeta, dpsi)


def tangent_at(grid):
    """transmission_tangent along ψ̇ = v·sin x at the default state on ``grid``."""
    return lambda v: tangent_along(np.zeros(grid.n), v * np.sin(grid.nodes), grid)


ROWS = {
    "practical_verdict-ups": (practical_verdict, (math.nan, -math.inf, -1.0)),
    "norm_sobolev-s": (lambda v: norm_sobolev(GRID, field(), v), NOT_FINITE + (1e3,)),
    "norm_sobolev-u[3]": (lambda v: norm_sobolev(GRID, field(v), 1.0), NOT_FINITE, NumericalError),
    "norm_hdot_mu-s": (lambda v: norm_hdot_mu(GRID, field(), v, 0.5), NOT_FINITE + (1e3,)),
    "norm_hdot_mu-mu": (lambda v: norm_hdot_mu(GRID, field(), 0.0, v), (math.nan, math.inf)),
    "norm_hdot_mu-u[3]": (lambda v: norm_hdot_mu(GRID, field(v), 0.0, 0.5), NOT_FINITE,
                          NumericalError),
    "fourier_interpolate-n_fine": (lambda v: fourier_interpolate(GRID, field(), v),
                                   (0, -16, 32.0, 40)),
    "PeriodicGrid-n": (PeriodicGrid, (16.0, 17)),
    # a negative Rusanov step is anti-diffusive; a negative RK4 step is a
    # backward step, inside the domain.  Both reject before any solve.
    "fv_step-dt": (lambda v: fv_step(sw_state(), v), NOT_FINITE + (-0.01, 1.0)),
    "rk4_step-dt": (lambda v: rk4_step(interface_state(), v), NOT_FINITE),
    "InterfaceState-psi[3]": (lambda v: interface_state(field(v)), NOT_FINITE, NumericalError),
    "SWState-v[3]": (lambda v: sw_state(field(v)), NOT_FINITE, NumericalError),
    # a layer of zero or negative height: ζ ≤ −1/ε⁺ or ζ ≥ 1/ε⁻
    "SWState-zeta[3]": (lambda v: sw_state(zeta=field(v)), (-5.0, 3.0), NumericalError),
    "StripOperator-layer_sign": (lambda v: StripOperator(GRID, field(), 0.3, 0.5, v, n_z=8),
                                 (0, 2, -2), ValueError),
    "cfl_cap-n_points": (lambda v: cfl_cap(PARAMS, v), (0, 1, -1, 16.0, math.nan, True)),
    "cfl_cap-length": (lambda v: cfl_cap(PARAMS, 16, v), (*NOT_FINITE, 0.0, -1.0)),
    **{f"criteria_from_scalars-{name}": (lambda v, name=name: criteria(**{name: v}),
                                         NOT_FINITE + ((-1.0,) if name != "inf_a" else ()))
       for name in SCALARS},
    **{f"modewise_margin-{name}": (lambda v, name=name: margin(**{name: v}),
                                   NOT_FINITE + ((-1.0,) if name != "inf_a" else ()))
       for name in ("inf_a", "e_value", "grad_zeta_sup", "jump_sup")},
    # finite scalars whose powers pass the largest float
    "criteria_from_scalars-grad_zeta_sup-overflow": (
        lambda v: criteria(grad_zeta_sup=v, jump_sup=0.0, jump_sup_d1=0.0), (1e200,),
        NumericalError),
    "modewise_margin-jump_sup-overflow": (
        lambda v: margin(jump_sup=v, grad_zeta_sup=v), (1e200,), NumericalError),
    # ⟦V⟧⁴ overflows from 1e100 on, the inner products from 1e156, the
    # tendency's squares from 1e160 and the DN products at 1e308
    "evaluate_criteria-psi": (on_amplitude(criteria_of), (1e100, 1e160, 1e308), NumericalError),
    "tendency-psi": (on_amplitude(lambda st: tendency(st, transmission_solve(st))),
                     (1e160, 1e308), NumericalError),
    "transmission_solve-psi": (on_amplitude(transmission_solve), (1e308,), NumericalError),
    "apply_j-psi": (on_amplitude(lambda st: apply_j(st, st.psi)), (1e308,), NumericalError),
    "inner-psi": (on_amplitude(lambda st: inner(GRID, st.psi, st.psi)), (1e156, 1e200, 1e308),
                  NumericalError),
    # at 1e308 ∂xψ itself overflows, which deriv reports
    "deriv-u": (lambda v: deriv(GRID, v * np.sin(GRID.nodes)), (1e308,), NumericalError),
    "e_quadratic_form-psi": (on_amplitude(lambda st: e_quadratic_form(st, st.psi)),
                             (1e156, 1e200, 1e308), NumericalError),
    "ins_form-u": (ins_form_at, (1e156, 1e200, 1e308), NumericalError),
    # on 32 points the Nyquist check's own sum of u would overflow at 1e308
    "ins_form-u-N32": (lambda v: ins_form_at(v, GRID32), (1e308,), NumericalError),
    # the products with S± and with the dense 𝒢̃ overflow at 1e308
    **{f"transmission_tangent-dpsi-N{grid.n}": (tangent_at(grid), (1e308,), NumericalError)
       for grid in (GRID, GRID32)},
    # ∂x of the solved ψ̇± or of ζ̇ overflows where the products with S± do not
    "transmission_tangent-dpsi-cos3x": (
        lambda v: tangent_along(np.zeros(16), v * np.cos(3 * GRID.nodes)), (5e307,),
        NumericalError),
    "transmission_tangent-dzeta": (lambda v: tangent_along(v * np.cos(GRID.nodes), np.zeros(16)),
                                   (1e308,), NumericalError),
    "apply_g_tilde-psi": (on_amplitude(lambda st: apply_g_tilde(st, st.psi)), (1e308,),
                          NumericalError),
    # a non-finite entry makes the product non-finite
    "inner-u[3]": (lambda v: inner(GRID, field(v), field()), NOT_FINITE, NumericalError),
    "e_quadratic_form-v[3]": (lambda v: e_quadratic_form(interface_state(), field(v)),
                              NOT_FINITE, NumericalError),
    "ins_form-u[3]": (lambda v: ins_form(field(v), inputs_of(interface_state())), NOT_FINITE,
                      NumericalError),
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


@pytest.mark.parametrize("amplitude", [1e155, 1e160, 1e200, 1e300])
def test_stepping_a_state_whose_squares_overflow_raises(amplitude):
    # the tendency squares ∂xψ and the characteristic speeds square v: past
    # about 1e154 they overflow, which used to warn where it now fails
    big = amplitude * np.sin(GRID.nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            rhs(interface_state(big))
        series = run(EvolutionConfig(t_end=0.1), interface_state(big))
        assert series.breakdown["reason"].startswith("NumericalError")
        with pytest.raises(NumericalError):
            fv_step(sw_state(big), 1e-3)
        halted = run_swsw(EvolutionConfig(t_end=0.1), sw_state(big)).halted
        assert halted["reason"] == "non-finite hyperbolicity indicator"
