"""Public scalar entry points reject a value their domain excludes (NaN, ±∞,
0 or −1): InvalidConfigError, NumericalError for a non-finite array,
DegenerateGeometryError for a dry state, ValueError for a layer sign other
than ±1, and no RuntimeWarning.
Values rejected before these checks (μ < 0, γ outside [0, 1]) are tested by
module.
A finite Sobolev order whose weight (1 + ξ²)^s overflows on the grid is
outside the domain too, as is a grid size that is not an even integer, and a
time step that is not finite (or, for the Rusanov step, negative or above the
CFL bound).  A finite field is inside the domain however large its entries,
but stepping one whose squares overflow raises NumericalError, as do the
criteria, the tendency, the inner products and the DN products of one past
the largest float.  So does a solve whose answer or products pass the
largest float, at depth ratios from 0.2 to 5: the transmission solve, J and
its inverse, the inverse of 𝒢̃, the Neumann and the Dirichlet solve; a run
records it as its breakdown, as it does a Hamiltonian past the largest float.
So do the spectral primitives (a multiplier, a symbol, the antiderivative,
the interpolant and the 2/3-rule projection) of a finite field at the float
limit whose transform or projection overflows, and an RK4 step of finite
length whose stage sums overflow.  A configuration whose derived scalars (a
power, a sum of densities, the CFL cap's k_max or k_max^1.5, a CFL step or
the step count t_end/dt) pass the float range, or vanish, raises
InvalidConfigError.
A field, or a stack of fields, must have the grid's N entries on its last
axis: one of 1, N − 4, N + 1 or N + 4 entries raises ValueError at every
entry point that takes a field, never an answer read from part of it.  An
entry that takes one field or returns one number (the inner product, either
argument; the norms; a symbol's quantization; the Dirichlet solve; J⁻¹; the
forms of ℰ and Ins; the symbol comparisons; the tangent's ζ̇ and ψ̇) takes
exactly one, of shape (N,): a (2, N) or an (N, N) stack raises the field
rule's ValueError there, never the answer of one row or of all rows together."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from twofluid import (PRESETS, DegenerateGeometryError, EvolutionConfig, InterfaceState,
                      InvalidConfigError, NumericalError, PeriodicGrid, StripOperator, SWState,
                      antideriv, apply_g_tilde, apply_j, apply_multiplier, apply_symbol, cfl_cap,
                      compare_with_full, config_from_dimensionless, criteria_from_scalars,
                      dealias, deriv, derive_params, dn_apply, e_quadratic_form,
                      evaluate_criteria, fv_step, inner, ins_form, invert_g_tilde, invert_j,
                      modewise_margin, norm_hdot_mu, norm_sobolev, practical_verdict, rhs,
                      rk4_step, run, run_swsw, stability_inputs, symbol_comparisons, tendency,
                      transmission_solve, transmission_tangent, upsilon)
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


def layered_state(depth_ratio, psi=None, zeta=0.3):
    """interface_state at another depth ratio H⁺/H⁻, with ζ = zeta·cos x."""
    p = derive_params(config_from_dimensionless(0.3, 0.5, 0.4, depth_ratio, 100.0))
    psi = np.sin(GRID.nodes) if psi is None else psi
    return InterfaceState(grid=GRID, zeta=zeta * np.cos(GRID.nodes), psi=psi, params=p, n_z=8)


def physical(**values):
    """The air-water preset with some of its values replaced."""
    return dataclasses.replace(PRESETS["air_water_long"], **values)


def dimensionless(**values):
    """The default configuration's (ε, μ, ρ̄⁻, H⁺/H⁻, Bo), some replaced."""
    return config_from_dimensionless(**{"eps": 0.3, "mu": 0.5, "rhobar_minus": 0.4,
                                        "depth_ratio": 1.5, "bond": 100.0, **values})


def run_on(grid, t_end=0.1):
    """run to t_end from the default state on ``grid``."""
    return run(EvolutionConfig(t_end=t_end), interface_state(grid=grid))


def cos_wave(v, k):
    """v·cos kx on the default grid."""
    return v * np.cos(k * GRID.nodes)


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


def of_length(m):
    """0.1·cos(2πj/m) on m nodes: zero mean and no Nyquist part on its own length."""
    return 0.1 * np.cos(2.0 * np.pi * np.arange(m) / m)


def stack_of(rows):
    """rows fields 0.1·sin(kx), k = 1…7 in turn, on the default grid: each row
    has zero mean and no Nyquist part."""
    return 0.1 * np.sin((np.arange(rows)[:, None] % 7 + 1) * GRID.nodes)


# fields of a length other than the grid's N = 16
LENGTHS = (1, GRID.n - 4, GRID.n + 1, GRID.n + 4)
# every entry point that takes a field, called with one
ON_A_FIELD = {
    "deriv": lambda u: deriv(GRID, u),
    "antideriv": lambda u: antideriv(GRID, u),
    "apply_multiplier": lambda u: apply_multiplier(GRID, lambda k: 1j * k, u),
    "apply_symbol": lambda u: apply_symbol(GRID, lambda x, k: np.abs(k) + 0.0 * x, u),
    "dealias": lambda u: dealias(GRID, u),
    "fourier_interpolate": lambda u: fourier_interpolate(GRID, u, 32),
    "inner": lambda u: inner(GRID, u, u),
    "norm_sobolev": lambda u: norm_sobolev(GRID, u, 1.0),
    "norm_hdot_mu": lambda u: norm_hdot_mu(GRID, u, 0.0, 0.5),
    "dn_apply": lambda u: dn_apply(interface_state().layer(+1), u),
    "solve_dirichlet": lambda u: interface_state().layer(+1).solve_dirichlet(u),
    "solve_neumann": lambda u: interface_state().layer(-1).solve_neumann(u),
    "apply_j": lambda u: apply_j(interface_state(), u),
    "invert_j": lambda u: invert_j(interface_state(), u),
    "apply_g_tilde": lambda u: apply_g_tilde(interface_state(), u),
    "invert_g_tilde": lambda u: invert_g_tilde(interface_state(), u),
    "e_quadratic_form": lambda u: e_quadratic_form(interface_state(), u),
    "symbol_comparisons": lambda u: symbol_comparisons(interface_state(), u),
    "compare_with_full": lambda u: compare_with_full(GRID, cos_wave(0.1, 1), u, 0.1, [0.1], 0.01),
    "ins_form": lambda u: ins_form(u, inputs_of(interface_state())),
    "transmission_tangent-dpsi": lambda u: tangent_along(np.zeros(16), u),
    "transmission_tangent-dzeta": lambda u: tangent_along(u, np.zeros(16)),
}
# every entry point that takes one field, called with a stack of 2 or N rows
ON_ONE_FIELD = {
    **{name: ON_A_FIELD[name] for name in (
        "apply_symbol", "norm_sobolev", "norm_hdot_mu", "solve_dirichlet", "invert_j",
        "e_quadratic_form", "ins_form", "symbol_comparisons", "transmission_tangent-dpsi",
        "transmission_tangent-dzeta")},
    "inner-u": lambda u: inner(GRID, u, field()),
    "inner-v": lambda u: inner(GRID, field(), u),
}


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
    "fourier_interpolate-u[3]": (lambda v: fourier_interpolate(GRID, field(v), 32), NOT_FINITE,
                                 NumericalError),
    "apply_multiplier-u[3]": (lambda v: apply_multiplier(GRID, lambda k: 1j * k, field(v)),
                              NOT_FINITE, NumericalError),
    "apply_symbol-u[3]": (lambda v: apply_symbol(GRID, lambda x, k: np.abs(k) + 0.0 * x,
                                                 field(v)), NOT_FINITE, NumericalError),
    "antideriv-u[3]": (lambda v: antideriv(GRID, field(v)), NOT_FINITE, NumericalError),
    "dealias-u[3]": (lambda v: dealias(GRID, field(v)), NOT_FINITE, NumericalError),
    # a finite field whose transform or projection overflows at the float limit
    "apply_multiplier-u": (lambda v: apply_multiplier(GRID, lambda k: 1j * k, cos_wave(v, 1)),
                           (1.7e308,), NumericalError),
    "apply_symbol-u": (lambda v: apply_symbol(GRID, lambda x, k: np.abs(k) + 0.0 * x,
                                              cos_wave(v, 1)), (1.7e308,), NumericalError),
    "antideriv-u": (lambda v: antideriv(GRID, cos_wave(v, 1)), (1.7e308,), NumericalError),
    "fourier_interpolate-u": (lambda v: fourier_interpolate(GRID, cos_wave(v, 1), 32),
                              (1.7e308,), NumericalError),
    "dealias-u": (lambda v: dealias(GRID, cos_wave(v, 1)), (1.7e308,), NumericalError),
    "PeriodicGrid-n": (PeriodicGrid, (16.0, 17)),
    # a negative Rusanov step is anti-diffusive; a negative RK4 step is a
    # backward step, inside the domain.  Both reject before any solve.
    "fv_step-dt": (lambda v: fv_step(sw_state(), v), NOT_FINITE + (-0.01, 1.0)),
    "rk4_step-dt": (lambda v: rk4_step(interface_state(), v), NOT_FINITE),
    # a finite step whose stage sums k·dt + y overflow
    "rk4_step-dt-overflow": (
        lambda v: rk4_step(layered_state(1.5, 50.0 * np.sin(GRID.nodes), 0.5), v),
        (1e307, 1e308, 1.7e308, -1.7e308), NumericalError),
    "InterfaceState-psi[3]": (lambda v: interface_state(field(v)), NOT_FINITE, NumericalError),
    "SWState-v[3]": (lambda v: sw_state(field(v)), NOT_FINITE, NumericalError),
    # a layer of zero or negative height: ζ ≤ −1/ε⁺ or ζ ≥ 1/ε⁻
    "SWState-zeta[3]": (lambda v: sw_state(zeta=field(v)), (-5.0, 3.0), DegenerateGeometryError),
    "StripOperator-layer_sign": (lambda v: StripOperator(GRID, field(), 0.3, 0.5, v, n_z=8),
                                 (0, 2, -2), ValueError),
    "cfl_cap-n_points": (lambda v: cfl_cap(PARAMS, v), (0, 1, -1, 16.0, math.nan, True)),
    # n_points = 2**e: at 2**700 k_max^1.5 passes the largest float, at
    # 2**1100 k_max itself does
    "cfl_cap-n_points-2**e": (lambda e: cfl_cap(PARAMS, 2**e), (700, 1100)),
    # t_end/dt passes the largest float
    "run-t_end": (lambda v: run_on(GRID, v), (1.7e308,)),
    "compare_with_full-t_end": (
        lambda v: compare_with_full(GRID, cos_wave(0.1, 1), 0.1 * np.sin(GRID.nodes), 0.1,
                                    [0.1], v), (1.7e308,)),
    # λ² = 1/μ passes the largest float
    "config_from_dimensionless-mu": (lambda v: dimensionless(mu=v), (5e-324,)),
    # a derived value passes the float range (or ρ⁺ + ρ⁻ does): each of
    # derive_params and upsilon on each of these inputs
    **{f"{call.__name__}-{name}": (lambda v, call=call, name=name: call(physical(**{name: v})),
                                   values)
       for call in (derive_params, upsilon)
       for name, values in (("amplitude", (1e200,)), ("wavelength", (1e-200,)),
                            ("depth_plus", (1e300,)), ("depth_minus", (1e300,)))},
    **{f"{call.__name__}-rho": (lambda v, call=call: call(physical(rho_plus=v, rho_minus=1e308)),
                                (1.7e308,))
       for call in (derive_params, upsilon)},
    **{f"{call.__name__}-dimensionless-{name}": (
        lambda v, call=call, name=name: call(dimensionless(**{name: v})), values)
       for call in (derive_params, upsilon)
       for name, values in (("eps", (1e200,)), ("depth_ratio", (1e300, 1e-300)))},
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
    # at 1.5e308 the products ζ̇V± overflow before ∂x of them
    "transmission_tangent-dzeta": (lambda v: tangent_along(v * np.cos(GRID.nodes), np.zeros(16)),
                                   (1e308, 1.5e308), NumericalError),
    "apply_g_tilde-psi": (on_amplitude(lambda st: apply_g_tilde(st, st.psi)), (1e308,),
                          NumericalError),
    # the DN products scaled by 1/H̄± (depth ratio 0.2), the gauged solves
    # and the field solve overflow at the float limit
    "transmission_solve-psi-depth0.2": (
        lambda v: transmission_solve(layered_state(0.2, cos_wave(v, 4), 0.0)), (7e307,),
        NumericalError),
    "invert_j-psi-depth0.2": (
        lambda v: invert_j(layered_state(0.2, zeta=0.0), cos_wave(v, 4)), (7e307,),
        NumericalError),
    "rhs-psi-depth0.2": (lambda v: rhs(layered_state(0.2, cos_wave(v, 4), 0.0)), (7e307,),
                         NumericalError),
    "invert_g_tilde-f": (lambda v: invert_g_tilde(interface_state(), cos_wave(v, 1)), (5e307,),
                         NumericalError),
    "solve_neumann-g-upper-depth1": (
        lambda v: layered_state(1.0).layer(-1).solve_neumann(cos_wave(v, 1)), (5e307,),
        NumericalError),
    "apply_j-u-depth5": (lambda v: apply_j(layered_state(5.0), cos_wave(v, 2)), (2e307,),
                         NumericalError),
    "solve_dirichlet-psi-depth0.2": (
        lambda v: layered_state(0.2).layer(+1).solve_dirichlet(cos_wave(v, 1)), (1e308,),
        NumericalError),
    # a non-finite entry makes the product non-finite
    "inner-u[3]": (lambda v: inner(GRID, field(v), field()), NOT_FINITE, NumericalError),
    "e_quadratic_form-v[3]": (lambda v: e_quadratic_form(interface_state(), field(v)),
                              NOT_FINITE, NumericalError),
    "ins_form-u[3]": (lambda v: ins_form(field(v), inputs_of(interface_state())), NOT_FINITE,
                      NumericalError),
    # a field of the wrong length, which BLAS or broadcasting would read in part
    **{f"{name}-length": (lambda m, call=call: call(of_length(m)), LENGTHS, ValueError)
       for name, call in ON_A_FIELD.items()},
    # a stack where one field belongs, which no row or sum of rows may answer
    **{f"{name}-stack": (lambda rows, call=call: call(stack_of(rows)), (2, GRID.n), ValueError,
                         "is not one field")
       for name, call in ON_ONE_FIELD.items()},
}


def expected(rest):
    """A row's error and message pattern: InvalidConfigError with any message
    unless the row names its error, and a pattern after it."""
    return (*rest, None)[:2] if rest else (InvalidConfigError, None)


@pytest.mark.parametrize("call, value, error, match", [
    pytest.param(call, value, *expected(rest), id=f"{name}={value}")
    for name, (call, values, *rest) in ROWS.items() for value in values])
def test_entry_point_rejects_a_value_outside_its_domain(call, value, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
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


@pytest.mark.parametrize("depth_ratio, zeta, k, amplitude", [
    # the scaled DN product of the transmission solve overflows
    (0.2, 0.0, 4, 7e307),
    # the recorded state's velocity jump V⁺ − V⁻ overflows
    (1.0, 0.3, 2, 5e307),
])
def test_a_run_that_overflows_records_a_breakdown(depth_ratio, zeta, k, amplitude):
    state = layered_state(depth_ratio, cos_wave(amplitude, k), zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        series = run(EvolutionConfig(t_end=0.1), state)
    assert series.breakdown["reason"].startswith("NumericalError")


def test_a_run_whose_hamiltonian_overflows_records_a_breakdown():
    # at μ = 1e-4, ψ = 3e154·sin x: ψ𝒢ψ/(2μ) passes the largest float while
    # the traces and the velocity jump of the first snapshot stay finite
    params = derive_params(config_from_dimensionless(0.3, 1e-4, 0.4, 1.5, 100.0))
    state = InterfaceState(grid=GRID, zeta=0.3 * np.cos(GRID.nodes),
                           psi=3e154 * np.sin(GRID.nodes), params=params, n_z=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        series = run(EvolutionConfig(t_end=0.01), state)
    assert series.breakdown["reason"].startswith("NumericalError")
    assert not series.diagnostics
