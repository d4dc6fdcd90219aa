"""Periodic grid, Fourier multipliers, discrete quantization and norms.

All fields live on a uniform periodic grid of N points over [0, 2π), x in
units of λ/2π (λ the wavelength of μ and Bo), so the wavenumbers are the
integers; a period P is this grid with λ = P/2π, and (SC)'s ∂x and ∂t
terms are in those λ-units.  Every Fourier operator is a multiplier on the
real FFT, valued by one rule, :func:`_multiplier_values`: on the wavenumbers
0…ξ_N, with the unpaired Nyquist bin the even part (m(ξ_N) + m(−ξ_N))/2, which
zeroes it for odd (derivative-like) multipliers.  The real FFT reads a bin as
the pair ±ξ, so a multiplier, and a symbol s(x, ξ) in ξ, must be Hermitian,
m(−ξ) = conj m(ξ).  :func:`apply_symbol` quantizes a symbol directly,

    (Op(s) u)(x_j) = Σ_ξ e^{i x_j ξ} s(x_j, ξ) û(ξ) / N,

the value at x_j of the multiplier s(x_j, ·) applied to u, exact (up to
rounding) for x-independent symbols.

The dense matrices are the rule applied to the identity, once per grid.
:func:`deriv` is the one x-derivative of the package: the product with Dᵀ,
D the matrix of iξ, that the grid caches for the strip discretisation too,
then the package's one gauge v − vΠ (:func:`_deflate`, with its range test
:func:`_check_range`), Π the projector onto constants and the Nyquist mode
(:func:`_gauge_constants`), which D zeroes.  :func:`dealias`, the 2/3-rule
projection of every RK4 stage (Orszag, J. Atmos. Sci. 28, 1971), is the
product with the matrix of the multiplier that keeps the modes
|ξ| <= (2/3)ξ_N: ``np.einsum``'s product, which sums a row of a stack as it
sums the row alone; BLAS does not.  The module owns the field rule, N
entries on the last axis: a primitive that maps rows takes a stack too and
maps each of its rows (:func:`_check_length`); an entry that takes one
field or returns one number takes shape (N,) alone (:func:`_one_field`,
:func:`_grid_field` for a constructor); ValueError otherwise.  Each runs
its transform or product without floating-point warnings and checks what it
returns, once, with :func:`_finite`, the one check of a computed array or
scalar: NumericalError unless finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from ._lapack import ddot, dgemm, dgemv, dsyrk
from .errors import IncompatibleDataError, InvalidConfigError, NumericalError
from .params import _check_count, _check_real

TWO_PI = 2.0 * math.pi


class _cached(cached_property):
    """cached_property without the lock that Python 3.8–3.11 takes on every
    first read: about 1 µs each, and a state makes several."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid of an even n >= 8 points on [0, 2π), its arrays
    read-only: a period P is this grid with λ = P/2π."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    length = TWO_PI

    def __post_init__(self):
        _check_count("grid size", self.n, 8)
        if self.n % 2 != 0:
            raise InvalidConfigError(f"grid size must be even, got {self.n}")
        k = np.fft.fftfreq(self.n, 1.0 / self.n).round()  # exact integers, not an ulp off
        object.__setattr__(self, "nodes", _read_only(np.arange(self.n) * self.dx))
        object.__setattr__(self, "wavenumbers", _read_only(k))

    @_cached
    def deriv_matrix_t(self) -> np.ndarray:
        """Dᵀ, the transpose of the dense spectral derivative matrix (row j is D e_j)."""
        return _read_only(apply_multiplier(self, lambda k: 1j * k, np.eye(self.n)))

    @_cached
    def deriv_gram(self) -> np.ndarray:
        """DᵀD, the Gram matrix of the derivative matrix."""
        # scipy's dsyrk on the lower triangle (beta, c, trans, lower), then
        # mirrored: bitwise numpy's A·Aᵀ, which is a syrk in numpy's own
        # OpenBLAS pool, and which a gemm matches only at some N
        low = dsyrk(1.0, self.deriv_matrix_t.T, 0.0, None, 1, 1)
        return _read_only(np.where(_gauge_constants(self.n)[2], low, low.T))

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @property
    def k_max(self) -> int:
        return self.n // 2


def _multiplier_values(grid: PeriodicGrid, m) -> np.ndarray:
    """m on the real-FFT wavenumbers 0…ξ_N, its last axis, the Nyquist bin
    the even part (m(ξ_N) + m(−ξ_N))/2."""
    k = np.append(np.abs(grid.wavenumbers[: grid.n // 2 + 1]), grid.wavenumbers[grid.n // 2])
    mk = np.asarray(m(k), dtype=complex)
    mk = np.broadcast_to(mk, np.broadcast_shapes(mk.shape, k.shape))
    out = mk[..., :-1].copy()
    out[..., -1] = 0.5 * (mk[..., -2] + mk[..., -1])
    return out


def apply_multiplier(grid: PeriodicGrid, m, u: np.ndarray) -> np.ndarray:
    """irfft(m·rfft u): the Fourier multiplier m(ξ) applied to a real field,
    or to each row of a stack of fields.  ``m`` is a callable vectorized over
    an array of wavenumbers, its last axis, and Hermitian, m(−ξ) = conj m(ξ)
    (e.g. iξ); a stack of multipliers applies each to u.  NumericalError
    unless the result is finite, as when m is not or u's transform overflows."""
    u = _check_length(u, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.fft.irfft(_multiplier_values(grid, m) * np.fft.rfft(u), n=grid.n),
                       "Fourier multiplier")


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, flagged read-only in place."""
    a.flags.writeable = False
    return a


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() of a float array, at a quarter of its cost for
    the package's sizes: a·a is finite if every entry is, and only an a·a
    that is not finite (NaN, ±∞ or an overflow) needs the entrywise test.
    BLAS ddot forms a·a without the floating-point error check of
    ndarray.dot, so an overflow of finite entries warns of nothing."""
    flat = a.ravel()
    return not flat.size or math.isfinite(ddot(flat, flat)) or bool(np.isfinite(a).all())


def _finite(a, what: str) -> np.ndarray:
    """a, an array or scalars, as a float array; NumericalError unless all finite."""
    a = np.asarray(a, dtype=float)
    if not _all_finite(a):
        raise NumericalError(f"{what} contains non-finite values")
    return a


def _checked(op, a, b, what: str) -> np.ndarray:
    """op(a, b) for an arithmetic ufunc op of finite fields, NumericalError
    unless finite: an entrywise product or difference that overflows raises
    and warns of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(a, b)
    return _finite(out, what)


def _check_length(u, n: int) -> np.ndarray:
    """u as a float array; ValueError unless its last axis has the grid's n entries."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (n,):
        raise ValueError(f"a field of shape {u.shape} is not on a grid of {n} points")
    return u


def _one_field(u, n: int) -> np.ndarray:
    """u as a float array; ValueError unless it is one field, of shape (n,)."""
    u = _check_length(u, n)
    if u.ndim != 1:
        raise ValueError(f"a field of shape {u.shape} is not one field of {n} points")
    return u


def _grid_field(grid: PeriodicGrid, a, what: str) -> np.ndarray:
    """a constructor's field: a read-only float field on the grid, copied unless read-only
    down to the memory it views; ValueError unless one field, NumericalError unless finite."""
    view = a = _finite(_one_field(a, grid.n), what)
    while isinstance(view, np.ndarray) and not view.flags.writeable:
        view = view.base
    return _read_only(a.copy()) if isinstance(view, np.ndarray) else a


@cache
def _gauge_constants(n: int) -> tuple:
    """The Nyquist mode cos(πj) on n nodes, Π = (1 + nyq·nyqᵀ)/n, the
    projector onto span{1, Nyquist}, and the mask of the lower triangle of an
    n×n matrix: built once per n, read-only."""
    nyq = np.cos(np.pi * np.arange(n))
    proj, lower = (1.0 + np.outer(nyq, nyq)) / n, np.tri(n, dtype=bool)
    nyq.flags.writeable = proj.flags.writeable = lower.flags.writeable = False
    return nyq, proj, lower


def _deflate(v: np.ndarray) -> np.ndarray:
    """v − v·Π: a trace, or each row of a stack of traces, projected off
    constants and the Nyquist mode, which the spectral derivative zeroes."""
    return v - _dot(v, _gauge_constants(v.shape[-1])[1])


def _check_range(f, n: int, what: str) -> np.ndarray:
    """f as a float array; ValueError unless it has n entries on its last axis,
    NumericalError unless finite, IncompatibleDataError unless in the range of
    a DN matrix: mean and Nyquist part below 1e-8·‖f‖∞."""
    f = _finite(_check_length(f, n), what)
    off = float(np.max(np.abs(_dot(f, _gauge_constants(n)[1]))))
    if off > 1e-8 * float(np.max(np.abs(f))):
        raise IncompatibleDataError(
            f"{what} needs data with zero mean and no Nyquist component; "
            f"they reach {off:.3e}"
        )
    return f


def _dot(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u·m for a field or a stack of fields u and a C-ordered N×N m, bitwise
    as ndarray.dot: scipy's dgemv or dgemm on the transposed views, which
    f2py takes uncopied.  numpy's own OpenBLAS pool then never wakes next to
    scipy's, and an overflow warns of nothing."""
    if u.ndim == 1:
        return dgemv(1.0, m.T, u)
    return dgemm(1.0, m.T, u.T).T


def deriv(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Spectral x-derivative along the last axis (Nyquist zeroed), projected
    off constants and the Nyquist mode, so that rounding leaves none there;
    NumericalError unless it is finite, as when a finite u's derivative
    overflows."""
    # scipy's BLAS, as for every product of an rhs (_dot), skips numpy's
    # floating-point check: an overflow shows in the result alone
    d = _finite(_dot(_check_length(u, grid.n), grid.deriv_matrix_t), "derivative")
    return _deflate(d)


def antideriv(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Zero-mean spectral antiderivative of a mean-zero field: the multiplier
    1/(iξ), 0 at ξ = 0, so u's mean does not enter."""
    return apply_multiplier(
        grid, lambda k: np.divide(1.0, 1j * k, out=np.zeros(k.shape, complex), where=k != 0.0), u)


def apply_symbol(grid: PeriodicGrid, s, u: np.ndarray) -> np.ndarray:
    """Apply a variable-coefficient symbol s(x, ξ) by direct quantization:
    entry j of the multiplier s(x_j, ·) applied to u, the diagonal of N
    inverse real FFTs, for one field u.  ``s`` is a callable broadcasting over
    (x, ξ) arrays, Hermitian in ξ; for x-independent symbols the result agrees
    with :func:`apply_multiplier` to rounding."""
    x, u = grid.nodes[:, None], _one_field(u, grid.n)
    rows = apply_multiplier(grid, lambda k: np.broadcast_to(s(x, k), (grid.n, k.size)), u)
    return rows.diagonal().copy()


def inner(grid: PeriodicGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L² inner product; NumericalError unless it is finite, as when
    the products of two finite fields overflow."""
    u, v = _one_field(u, grid.n), _one_field(v, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_finite(grid.dx * np.dot(u, v), f"the inner product on {grid.n} points"))


def _spectral_weighted_norm(grid: PeriodicGrid, u: np.ndarray, weight: np.ndarray) -> float:
    """√(Σ weight·|û|²) with the trapezoidal scale, for a finite weight >= 0.
    The sum runs over the terms √weight·|û| divided by the largest, so no
    term overflows unless the norm does.  NumericalError unless the norm is
    finite, which it is not for a non-finite u."""
    u = _one_field(u, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.sqrt(weight) * (math.sqrt(TWO_PI) / grid.n * np.abs(np.fft.fft(u)))
        top = float(terms.max())
        norm = top * math.sqrt(float(np.sum((terms / top) ** 2))) if top > 0.0 else top
    if not math.isfinite(norm):
        raise NumericalError(f"the norm overflows, or u is not finite, on {grid.n} points")
    return norm


def _sobolev_weight(grid: PeriodicGrid, s: float, factor=1.0) -> np.ndarray:
    """factor·(1+ξ²)^s on the grid's wavenumbers; InvalidConfigError unless
    s is finite and the weight is finite on every wavenumber."""
    _check_real("Sobolev order s", s)
    with np.errstate(over="ignore", invalid="ignore"):
        weight = factor * (1.0 + grid.wavenumbers**2) ** s
    if not np.isfinite(weight).all():
        raise InvalidConfigError(f"Sobolev order s = {s} overflows the weight on {grid.n} points")
    return weight


def norm_sobolev(grid: PeriodicGrid, u: np.ndarray, s: float) -> float:
    """Sobolev norm |u|_{H^s} = |(1+ξ²)^{s/2} û|, trapezoidal weighting; the
    order s must be finite, and small enough that (1+ξ²)^s is finite on the
    grid."""
    return _spectral_weighted_norm(grid, u, _sobolev_weight(grid, s))


def _p2(xi, mu: float) -> np.ndarray:
    """𝔓²(ξ) = ξ²/(1+√μ|ξ|), the square of the order-1/2 multiplier of the
    operator bounds."""
    xi = np.asarray(xi, dtype=float)
    return xi**2 / (1.0 + math.sqrt(mu) * np.abs(xi))


def norm_hdot_mu(grid: PeriodicGrid, u: np.ndarray, s: float, mu: float) -> float:
    """Shallowness-adapted seminorm: H^s norm of |D|/(1+√μ|D|)^{1/2} u.

    Constants map to zero; the per-mode weight |ξ|/(1+√μ|ξ|)^{1/2} is the
    nonhomogeneous order-1/2 multiplier used throughout the operator bounds.
    s must be finite, and small enough that the weight is finite on the
    grid, and μ finite and >= 0.
    """
    _check_real("mu", mu, 0.0)
    return _spectral_weighted_norm(grid, u, _sobolev_weight(grid, s, _p2(grid.wavenumbers, mu)))


def fourier_interpolate(grid: PeriodicGrid, u: np.ndarray, n_fine: int) -> np.ndarray:
    """The trigonometric interpolant of u, or of each row of a stack, on n_fine
    points, an integer multiple of grid.n: the inverse real FFT to n_fine
    points of u's real FFT with each Nyquist bin halved, which the fine grid
    reads as the pair ±ξ_N.  It is u on the coarse nodes, exact for
    band-limited u, and NumericalError unless finite."""
    _check_count("fine grid size", n_fine, grid.n)
    if n_fine % grid.n != 0:
        raise InvalidConfigError("fine grid size must be a multiple of the coarse one")
    u = _check_length(u, grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        uh = np.fft.rfft(u)
        uh[..., -1] *= 0.5
        return _finite(np.fft.irfft(uh, n=n_fine) * (n_fine / grid.n), "interpolated field")


def _retained(grid: PeriodicGrid, k) -> np.ndarray:
    """The 2/3 rule on integer wavenumbers: True where 3|ξ| <= N, |ξ| <= (2/3)·ξ_N."""
    return 3.0 * np.abs(k) <= grid.n


@lru_cache(maxsize=16)
def _dealias_projector(grid: PeriodicGrid) -> np.ndarray:
    """Read-only N×N matrix P with u·P the 2/3-rule projection of u, the
    multiplier of :func:`_retained` applied to the identity.  Cached by grid
    value, so a fresh grid of the same size reuses it."""
    return _read_only(apply_multiplier(grid, partial(_retained, grid), np.eye(grid.n)))


def dealias(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """The 2/3-rule projection of a real field, or of each row of a stack of
    fields, bitwise as if each row were projected alone: the product with the
    grid's cached projection matrix, which zeroes every mode that
    :func:`_retained` does not keep; NumericalError unless it is finite."""
    u = _check_length(u, grid.n)
    return _finite(np.einsum("...j,jk->...k", u, _dealias_projector(grid)), "dealiased field")
