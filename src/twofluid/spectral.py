"""Periodic grid, Fourier multipliers, discrete quantization and norms.

All fields live on a uniform periodic grid of N points over [0, L).  Fourier
multipliers act diagonally on the FFT; a variable-coefficient symbol s(x, ξ)
is applied through the direct quantization

    (Op(s) u)(x_j) = Re Σ_ξ e^{i x_j ξ} s(x_j, ξ) û(ξ) / N,

an O(N²) sum that is exact (up to rounding) for x-independent symbols.  On an
even grid the unpaired Nyquist mode is folded onto the even part of the
symbol, which zeroes it for odd (derivative-like) multipliers.

:func:`deriv` is the one x-derivative of the package: the product with the
dense matrix Dᵀ of the real-FFT multiplier iξ (Nyquist zeroed) that the grid
caches for the strip discretisation too, then with Π = :func:`_gauge_constants`,
the package's one projector onto constants and the Nyquist mode, which D zeroes.

:func:`truncate`, the 2/3-rule dealiasing of every RK4 stage (Orszag,
J. Atmos. Sci. 28, 1971), is likewise a product with a cached N×N matrix,
the projection of its mask, built from the real FFT.  It is ``np.einsum``'s
product, which sums a row of a stack as it sums the row alone; BLAS does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .params import _check_count, _check_real

TWO_PI = 2.0 * math.pi


class _cached(cached_property):
    """cached_property without the lock that Python 3.8–3.11 takes on every
    first read: about 1 µs each, and a state makes several."""

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0, length)."""

    n: int
    length: float = TWO_PI
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    # real-FFT multiplier iξ of the x-derivative, zero on the unpaired Nyquist bin
    ik: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_count("grid size", self.n, 8)
        if self.n % 2 != 0:
            raise InvalidConfigError(f"grid size must be even, got {self.n}")
        if not 0.0 < self.length < math.inf:
            raise InvalidConfigError(f"grid length must be positive and finite, got {self.length}")
        k0 = TWO_PI / self.length
        object.__setattr__(self, "nodes", np.arange(self.n) * (self.length / self.n))
        object.__setattr__(
            self, "wavenumbers", np.fft.fftfreq(self.n, d=1.0 / (self.n * k0))
        )
        ik = 1j * np.fft.rfftfreq(self.n, d=1.0 / (self.n * k0))
        ik[-1] = 0.0
        object.__setattr__(self, "ik", ik)

    @_cached
    def deriv_matrix_t(self) -> np.ndarray:
        """Dᵀ, the transpose of the dense spectral derivative matrix (row j is D e_j)."""
        return np.fft.irfft(self.ik * np.fft.rfft(np.eye(self.n)), n=self.n)

    @_cached
    def deriv_gram(self) -> np.ndarray:
        """DᵀD, the Gram matrix of the derivative matrix."""
        return self.deriv_matrix_t @ self.deriv_matrix_t.T

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def k_fundamental(self) -> float:
        return TWO_PI / self.length

    @property
    def k_max(self) -> float:
        return self.k_fundamental * (self.n // 2)


def _multiplier_values(grid: PeriodicGrid, m, lead: tuple = ()) -> np.ndarray:
    """Evaluate m on the signed wavenumbers, its last axis, broadcast to
    lead + (N,), and fold the Nyquist bin onto the even part of m."""
    inyq = grid.n // 2
    k_nyq = grid.k_fundamental * inyq
    mk = np.broadcast_to(np.asarray(m(grid.wavenumbers), dtype=complex), lead + (grid.n,)).copy()
    pair = np.broadcast_to(np.asarray(m(np.array([k_nyq, -k_nyq])), dtype=complex), lead + (2,))
    mk[..., inyq] = 0.5 * (pair[..., 0] + pair[..., 1])
    if not np.all(np.isfinite(mk)):
        raise NumericalError("multiplier is not finite on a grid wavenumber")
    return mk


def apply_multiplier(grid: PeriodicGrid, m, u: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier m(ξ) to a real field.

    ``m`` is a callable vectorized over the signed wavenumber array; values
    may be complex provided they have Hermitian symmetry (e.g. iξ).  The
    real part of the inverse transform is returned.
    """
    u = np.asarray(u, dtype=float)
    mk = _multiplier_values(grid, m)
    return np.fft.ifft(mk * np.fft.fft(u)).real


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, flagged read-only in place."""
    a.flags.writeable = False
    return a


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() of a float array, at a third of its cost for the
    package's sizes: a·a is finite if every entry is, and only an a·a that
    is not finite needs the entrywise test."""
    flat = a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(a).all())


def _finite(a, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not _all_finite(a):
        raise NumericalError(f"{what} contains non-finite values")
    return a


@cache
def _gauge_constants(n: int) -> tuple:
    """The Nyquist mode cos(πj) on n nodes, Π = (1 + nyq·nyqᵀ)/n, the
    projector onto span{1, Nyquist}, and the mask of the lower triangle of an
    n×n matrix: built once per n, read-only."""
    nyq = np.cos(np.pi * np.arange(n))
    proj, lower = (1.0 + np.outer(nyq, nyq)) / n, np.tri(n, dtype=bool)
    nyq.flags.writeable = proj.flags.writeable = lower.flags.writeable = False
    return nyq, proj, lower


def deriv(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Spectral x-derivative along the last axis (Nyquist zeroed), projected
    off constants and the Nyquist mode, so that rounding leaves none there."""
    # ndarray.dot makes the BLAS call that @ makes, without matmul's ufunc
    # dispatch, at a third to a half of its cost for N <= 64
    d = np.asarray(u, dtype=float).dot(grid.deriv_matrix_t)
    return d - d.dot(_gauge_constants(grid.n)[1])


def antideriv(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Zero-mean spectral antiderivative of a mean-zero field."""
    def m(k):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(k == 0.0, 0.0, 1.0 / np.where(k == 0.0, 1.0, 1j * k))
        return out

    return apply_multiplier(grid, m, u - np.mean(u))


def apply_symbol(grid: PeriodicGrid, s, u: np.ndarray) -> np.ndarray:
    """Apply a variable-coefficient symbol s(x, ξ) by direct quantization.

    ``s`` is a callable broadcasting over (x, ξ) arrays.  Cost is O(N²);
    for x-independent symbols the result agrees with
    :func:`apply_multiplier` to rounding.
    """
    u = np.asarray(u, dtype=float)
    x = grid.nodes[:, None]
    smat = _multiplier_values(grid, lambda k: s(x, k), lead=(grid.n,))
    phases = np.exp(1j * np.outer(grid.nodes, grid.wavenumbers))
    return ((smat * phases) @ np.fft.fft(u)).real / grid.n


def inner(grid: PeriodicGrid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete L² inner product."""
    return grid.dx * float(np.dot(np.asarray(u), np.asarray(v)))


def _spectral_weighted_norm(grid: PeriodicGrid, u: np.ndarray, weight: np.ndarray) -> float:
    """√(Σ weight·|û|²) with the trapezoidal scale, for a weight >= 0;
    NumericalError unless u is finite."""
    uh = np.fft.fft(_finite(u, "norm argument"))
    w = grid.length / grid.n**2
    return math.sqrt(w * float(np.sum(weight * np.abs(uh) ** 2)))


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
    """Trigonometric interpolation onto a finer grid (exact for band-limited u);
    n_fine must be an integer multiple of grid.n."""
    _check_count("fine grid size", n_fine, grid.n)
    if n_fine % grid.n != 0:
        raise InvalidConfigError("fine grid size must be a multiple of the coarse one")
    uh = np.fft.fft(np.asarray(u, dtype=float))
    pad = np.zeros(n_fine, dtype=complex)
    half = grid.n // 2
    pad[:half] = uh[:half]
    pad[-half:] = uh[-half:]
    # split the unpaired Nyquist bin symmetrically
    pad[half] = 0.5 * uh[half]
    pad[n_fine - half] += 0.5 * uh[half]
    return np.fft.ifft(pad).real * (n_fine / grid.n)


def dealias_mask(grid: PeriodicGrid) -> np.ndarray:
    """Boolean 2/3-rule mask over the signed wavenumbers."""
    cutoff = (2.0 / 3.0) * grid.k_max
    return np.abs(grid.wavenumbers) <= cutoff + 1e-12


def truncate(grid: PeriodicGrid, u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the masked-out Fourier modes of a real field, or of each row of
    a stack of fields, bitwise as if each row were truncated alone: the
    product with the projection matrix of the mask, cached per (N, mask).
    mask must be a boolean array of shape (N,) over the signed wavenumbers,
    even in ξ (as :func:`dealias_mask` is); other masks raise
    InvalidConfigError."""
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (grid.n,):
        raise InvalidConfigError(
            f"truncation mask must be a boolean array of shape ({grid.n},), "
            f"got {mask.dtype} of shape {mask.shape}"
        )
    return np.einsum("...j,jk->...k", np.asarray(u, dtype=float), _projector(mask.tobytes()))


@lru_cache(maxsize=16)
def _projector(mask_bytes: bytes) -> np.ndarray:
    """Read-only N×N matrix P with u·P the truncation of u by a boolean mask:
    row j truncates e_j by the real FFT, which reads the mask's non-negative
    half, so the mask must be even in ξ."""
    mask = np.frombuffer(mask_bytes, dtype=bool)
    n, half = mask.size, mask.size // 2
    if not np.array_equal(mask[1:half], mask[:half:-1]):
        raise InvalidConfigError("truncation mask must be even in the wavenumber")
    uh = np.fft.rfft(np.eye(n), axis=-1)
    uh[:, ~mask[: half + 1]] = 0.0
    return _read_only(np.fft.irfft(uh, n=n, axis=-1))
