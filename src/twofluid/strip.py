"""One fluid layer on the straightened strip and its Dirichlet-Neumann map.

The layer occupying the physical domain between the interface z = ±ε±ζ(x)
and its wall z = ∓1 is straightened by the trivial graph diffeomorphism

    Σ±(x, z) = (x, ε±(1±z)ζ(x) + z),

which turns the scaled Laplace problem into the divergence-form equation
∇^{μ±}·P ∇^{μ±}φ = 0 on the flat strip, with (d = 1)

    p11 = 1 + ∂zσ,   p12 = -√μ± ∂xσ,   p22 = (1 + μ±(∂xσ)²)/(1 + ∂zσ),

σ = ε±(1±z)ζ.  Discretization: spectral differentiation in x, second-order
centered differences on a uniform z grid, with fluxes assembled at z
half-levels so that the discrete operator A is exactly symmetric and positive
semi-definite.

:class:`StripOperator` is the one object per layer.  Its constructor checks
the depth (:func:`layer_depth`) and samples the metric; nothing else is
computed until it is asked for.  Because x is spectral, A is block
tridiagonal in z with dense N×N blocks, one block pair per cell.  A block
Cholesky sweep from the wall to the interface row eliminates every other row
and leaves the Schur complement S on the interface row.  S is the discrete
Dirichlet-Neumann matrix itself (G± = ±S±): symmetric, positive
semi-definite, and zero on constants and on the Nyquist column that the
spectral derivative annihilates.  :attr:`StripOperator.dn_matrix` sweeps
once and caches S.  The field solves repeat the sweep and back-substitute;
their true residual, computed with the matrix-free
:meth:`StripOperator.apply`, is checked against :data:`RESIDUAL_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import DegenerateGeometryError, IncompatibleDataError, NumericalError
from .spectral import PeriodicGrid, apply_multiplier, deriv

# Bound on the relative true residual of every direct solve of the package.
RESIDUAL_TOL = 1e-9
MIN_DEPTH = 1e-10


def flat_symbol(mu_layer: float, k) -> np.ndarray:
    """√μ±|ξ| tanh(√μ±|ξ|), the flat DN symbol of one unit-depth layer (G± = ±it)."""
    y = math.sqrt(mu_layer) * np.abs(np.asarray(k, dtype=float))
    return y * np.tanh(y)


def layer_depth(zeta, eps_layer: float, layer_sign: int) -> np.ndarray:
    """Depth 1 ± ε±ζ of the layer below (+1) or above (−1) the interface.

    Raises
    ------
    DegenerateGeometryError
        If the depth falls below the positivity floor (the layer pinches off).
    """
    depth = 1.0 + layer_sign * eps_layer * np.asarray(zeta, dtype=float)
    min_depth = float(np.min(depth))
    if min_depth <= MIN_DEPTH:
        raise DegenerateGeometryError(
            f"layer depth vanishes: min(1 {'+' if layer_sign > 0 else '-'} eps*zeta) "
            f"= {min_depth:.3e}"
        )
    return depth


@dataclass
class StripSolution:
    """Solution of one strip solve: potential on the (n_z+1, n) grid and its
    interface trace."""

    phi: np.ndarray
    trace: np.ndarray
    residual_norm: float


def _deflate(v: np.ndarray) -> np.ndarray:
    """Project a trace (or each row of a stack of traces) off constants and
    the Nyquist mode, which the spectral derivative zeroes."""
    nyq = np.cos(np.pi * np.arange(v.shape[-1]))
    v = v - np.mean(v, axis=-1, keepdims=True)
    return v - np.mean(v * nyq, axis=-1, keepdims=True) * nyq


def _check_range(f: np.ndarray, what: str) -> None:
    """IncompatibleDataError unless f lies in the range of a DN matrix: its
    mean and Nyquist component must be rounding, below 1e-8·‖f‖∞."""
    off = float(np.max(np.abs(f - _deflate(f))))
    if off > 1e-8 * float(np.max(np.abs(f))):
        raise IncompatibleDataError(
            f"{what} needs data with zero mean and no Nyquist component; "
            f"they reach {off:.3e}"
        )


def _cholesky(a: np.ndarray) -> np.ndarray:
    low, info = dpotrf(a, lower=1)
    if info != 0:
        raise NumericalError(f"Cholesky factorization failed (LAPACK info {info})")
    return low


def _gauge_factor(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor of mat + Π, Π the projector onto span{1, Nyquist}.

    For a symmetric PSD matrix whose kernel is that span (a DN matrix or a
    positive combination of them), mat + Π is SPD and its inverse is the
    pseudo-inverse of mat plus Π.
    """
    n = mat.shape[0]
    nyq = np.cos(np.pi * np.arange(n))
    return _cholesky(mat + (1.0 + np.outer(nyq, nyq)) / n)


def _gauged_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (mat + Π)u = b with the factor of :func:`_gauge_factor`, for b
    of shape (n,) or one right-hand side per row; u is gauged to zero mean
    and zero Nyquist content."""
    u, _ = dpotrs(low, np.atleast_2d(b).T, lower=1)
    return _deflate(u.T.reshape(b.shape))


def _check_residual(r: np.ndarray, b: np.ndarray, what: str) -> float:
    """Relative residual ‖r‖/‖b‖; NumericalError above RESIDUAL_TOL or if not finite."""
    nr, nb = float(np.linalg.norm(r)), float(np.linalg.norm(b))
    res = nr / nb if nb else nr
    if not res <= RESIDUAL_TOL:
        raise NumericalError(
            f"{what}: relative residual {res:.3e} above {RESIDUAL_TOL:.0e}"
        )
    return res


def _finite(a, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{what} contains non-finite values")
    return a


class StripOperator:
    """One straightened fluid layer: the metric of the trivial graph
    diffeomorphism, the discrete operator A, its Schur complement S on the
    interface row, and the Dirichlet and Neumann field solves.

    The metric is sampled on the z half-levels: p11 = 1 ± ε±ζ, which does
    not depend on z, as an (N,) array, and p12, p22 as (n_z, N) arrays.
    """

    def __init__(self, grid: PeriodicGrid, zeta, eps_layer: float, mu_layer: float,
                 layer_sign: int, n_z: int = 32):
        if layer_sign not in (+1, -1):
            raise ValueError("layer_sign must be +1 (lower) or -1 (upper)")
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (grid.n,):
            raise ValueError(f"zeta must have shape ({grid.n},)")
        self.grid = grid
        self.mu = mu_layer
        self.sign = layer_sign
        self.n_z = n_z
        self.h = 1.0 / n_z
        self.smu = math.sqrt(mu_layer)
        self.p11 = layer_depth(zeta, eps_layer, layer_sign)
        z_half = (np.arange(n_z) + 0.5) * self.h
        if layer_sign > 0:
            z_half = -1.0 + z_half
        fac = 1.0 + layer_sign * z_half
        sigma_x = eps_layer * fac[:, None] * deriv(grid, zeta)[None, :]
        self.p12 = -self.smu * sigma_x
        self.p22 = (1.0 + mu_layer * sigma_x**2) / self.p11
        self.iface = n_z if layer_sign > 0 else 0
        rows = np.arange(n_z + 1)
        self.interior = rows[rows != self.iface]
        # rows from the wall to the interface, the order of the sweep
        self.sweep_rows = rows if layer_sign > 0 else rows[::-1]
        self._s = None

    # -- discrete bilinear form -------------------------------------------------
    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Symmetric PSD operator A with v·Aφ = Σ_cells h ∇^μ v·P ∇^μ φ."""
        h, grid = self.h, self.grid
        ik = grid.ik
        uh = np.fft.rfft(phi, axis=-1)
        phix = np.fft.irfft(ik * uh, n=grid.n, axis=-1)
        px_half = 0.5 * (phix[:-1] + phix[1:])
        pz_half = (phi[1:] - phi[:-1]) * (1.0 / h)
        f1 = self.mu * self.p11 * px_half + self.smu * self.p12 * pz_half
        f2 = self.smu * self.p12 * px_half + self.p22 * pz_half
        t = np.fft.irfft((-0.5 * h) * ik * np.fft.rfft(f1, axis=-1), n=grid.n, axis=-1)
        out = np.empty_like(phi)
        out[0] = t[0] - f2[0]
        out[-1] = t[-1] + f2[-1]
        out[1:-1] = t[:-1] + f2[:-1] + t[1:] - f2[1:]
        return out

    def _cells(self):
        """Blocks (first, off, second) of each cell of A, from the wall on.

        The cell between sweep rows r and r + 1 adds [[first, off],
        [offᵀ, second]] to A on those two rows.  With D the spectral
        derivative matrix, its energy h·∇^μv·P∇^μφ uses ∂x = D(φ_r + φ_{r+1})/2
        and ∂z = ±(φ_{r+1} − φ_r)/h.
        """
        h, n = self.h, self.grid.n
        dmat_t = self.grid.deriv_matrix_t
        stiff = (0.25 * h * self.mu) * ((dmat_t * self.p11) @ dmat_t.T)
        cells = range(self.n_z) if self.sign > 0 else range(self.n_z - 1, -1, -1)
        for c in cells:
            e = dmat_t * (0.5 * self.smu * self.p12[c])
            sym = e + e.T
            mass = self.p22[c] / h
            k_aa = stiff - sym  # the cell's bottom row
            k_aa.flat[:: n + 1] += mass
            k_bb = stiff + sym  # its top row
            k_bb.flat[:: n + 1] += mass
            k_ab = stiff + e
            k_ab -= e.T
            k_ab.flat[:: n + 1] -= mass
            yield (k_aa, k_ab, k_bb) if self.sign > 0 else (k_bb, k_ab.T, k_aa)

    def _sweep(self, keep: bool) -> list:
        """Block Cholesky elimination of every row but the interface one.

        Caches S; returns the factors (L_r, L_r⁻¹A_{r,r+1}) of the eliminated
        sweep rows if ``keep``.
        """
        factors = []
        t = None
        for first, off, second in self._cells():
            low = _cholesky(first if t is None else t + first)
            # xᵀ = offᵀL⁻ᵀ: OpenBLAS solves this right-sided form about twice as
            # fast as x = L⁻¹off
            x_t = dtrsm(1.0, low, off.T, side=1, lower=1, trans_a=1)
            if keep:
                factors.append((low, x_t.T))
            t = second - x_t @ x_t.T
        self._s = 0.5 * (t + t.T)
        return factors

    @property
    def dn_matrix(self) -> np.ndarray:
        """S, the Schur complement of A on the interface row (G± = ±S)."""
        if self._s is None:
            self._sweep(keep=False)
        return self._s

    def _extend(self, psi: np.ndarray, factors: list) -> np.ndarray:
        """Back-substitute the field with interface trace ψ."""
        phi = np.empty((self.n_z + 1, self.grid.n))
        rows = self.sweep_rows
        phi[rows[-1]] = psi
        for r, nxt, (low, x) in zip(rows[-2::-1], rows[::-1], reversed(factors)):
            y, _ = dtrtrs(low, (x @ phi[nxt])[:, None], lower=1, trans=1)
            phi[r] = -y[:, 0]
        return phi

    # -- solves -----------------------------------------------------------------
    def solve_dirichlet(self, psi) -> StripSolution:
        """Solve ∇^μ·P∇^μ φ = 0 with φ = ψ at the interface, no-flux at the wall."""
        psi = _finite(psi, "Dirichlet data")
        phi = self._extend(psi, self._sweep(keep=True))
        lift = np.zeros_like(phi)
        lift[self.iface] = psi
        res = _check_residual(
            self.apply(phi)[self.interior],
            self.apply(lift)[self.interior],
            "Dirichlet solve",
        )
        return StripSolution(phi=phi, trace=phi[self.iface].copy(), residual_norm=res)

    def solve_neumann(self, g) -> StripSolution:
        """Solve with prescribed upward conormal flux g at the interface.

        g must lie in the range of the discrete operator: zero mean (flux
        compatibility on the periodic strip) and no Nyquist component, each
        up to rounding, 1e-8·‖g‖∞; other data raises IncompatibleDataError.
        The interface trace of the solution has zero mean and zero Nyquist
        content.
        """
        g = _finite(g, "Neumann data")
        _check_range(g, "Neumann solve")
        g = self.sign * _deflate(g)
        factors = self._sweep(keep=True)
        phi = self._extend(_gauged_solve(_gauge_factor(self._s), g), factors)
        b = np.zeros_like(phi)
        b[self.iface] = g
        res = _check_residual(self.apply(phi) - b, b, "Neumann solve")
        return StripSolution(phi=phi, trace=phi[self.iface].copy(), residual_norm=res)


def dn_apply(d: StripOperator, psi) -> np.ndarray:
    """Dirichlet-Neumann map of one layer: ψ ↦ upward conormal flux at z = 0.

    The product ±Sψ with the Schur complement of the discrete operator, the
    variational flux of the discrete solution, which keeps (ψ₁, Gψ₂)
    symmetric, ±(ψ, G±ψ) ≥ 0 and mean(Gψ) = 0 exact to rounding.
    """
    return d.sign * (d.dn_matrix @ np.asarray(psi, dtype=float))


def dn_flat(grid: PeriodicGrid, mu_layer: float, layer_sign: int, psi) -> np.ndarray:
    """Flat-interface Dirichlet-Neumann map ±√μ±|D| tanh(√μ±|D|)ψ."""
    return apply_multiplier(grid, lambda k: layer_sign * flat_symbol(mu_layer, k), psi)
