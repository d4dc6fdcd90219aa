"""Single-layer Dirichlet-Neumann operators on the straightened strip.

The layer occupying the physical domain between the interface z = ±ε±ζ(x)
and its wall z = ∓1 is straightened by the graph change of variables

    Σ±(x, z) = (x, ε±(1±z)ζ(x) + z),

which turns the scaled Laplace problem into the divergence-form equation
∇^{μ±}·P ∇^{μ±}φ = 0 on the flat strip, with (d = 1)

    p11 = 1 + ∂zσ,   p12 = -√μ± ∂xσ,   p22 = (1 + μ±(∂xσ)²)/(1 + ∂zσ),

σ = ε±(1±z)ζ.  Discretization: spectral differentiation in x, second-order
centered differences on a uniform z grid, with fluxes assembled at z
half-levels so that the discrete operator is exactly symmetric and positive
semi-definite.  The Dirichlet-Neumann map is read off as the variational
flux at the interface row, which makes symmetry, sign-definiteness and flux
balance of the discrete operator exact to rounding.

All solves, the two-strip glued solve of :mod:`twofluid.operators` included,
run one preconditioned CG (:func:`_pcg`) with a true-residual exit.  Its
preconditioner is the exact flat operator of the column of weighted layers
(Fourier in x, tridiagonal in z), and :func:`_deflate` removes the kernel
(constants, z-independent Nyquist column) of the pure-Neumann operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, IncompatibleDataError, NumericalError
from .spectral import PeriodicGrid

DEFAULT_TOL = 1e-10
MIN_DEPTH = 1e-10


def _dx_spectral(grid: PeriodicGrid, u: np.ndarray) -> np.ndarray:
    """Spectral x-derivative along the last axis, Nyquist zeroed."""
    uh = np.fft.rfft(u, axis=-1)
    k = np.fft.rfftfreq(grid.n, d=1.0 / (grid.n * grid.k_fundamental))
    uh *= 1j * k
    if grid.n % 2 == 0:
        uh[..., -1] = 0.0
    return np.fft.irfft(uh, n=grid.n, axis=-1)


@dataclass(frozen=True)
class PMatrixField:
    """Entries of the straightened-metric matrix on the z half-levels."""

    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray

    def min_eigenvalue(self) -> float:
        tr = self.p11 + self.p22
        det = self.p11 * self.p22 - self.p12**2
        return float(np.min(0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4.0 * det, 0.0)))))


@dataclass
class DiffeoData:
    """Straightened geometry of one fluid layer (trivial graph diffeomorphism)."""

    grid: PeriodicGrid
    zeta: np.ndarray
    eps_layer: float
    mu_layer: float
    layer_sign: int
    n_z: int
    sigma_x: np.ndarray = field(repr=False, default=None)
    sigma_z: np.ndarray = field(repr=False, default=None)
    p_matrix: PMatrixField = field(repr=False, default=None)
    min_depth: float = 0.0
    _op: "StripOperator" = field(repr=False, default=None, compare=False)

    def operator(self) -> "StripOperator":
        if self._op is None:
            self._op = StripOperator(self)
        return self._op


@dataclass
class StripSolution:
    """Solution of one strip solve: potential on the (n_z+1, n) grid."""

    phi: np.ndarray
    residual_norm: float
    iterations: int

    def interface_trace(self, d: DiffeoData) -> np.ndarray:
        return self.phi[d.operator().iface].copy()


def build_trivial_diffeo(
    grid: PeriodicGrid,
    zeta: np.ndarray,
    eps_layer: float,
    mu_layer: float,
    layer_sign: int,
    n_z: int = 32,
) -> DiffeoData:
    """Sample the trivial graph diffeomorphism and its metric for one layer.

    Raises
    ------
    DegenerateGeometryError
        If min(1 ± ε±ζ) falls below the positivity floor (layer pinches off).
    """
    if layer_sign not in (+1, -1):
        raise ValueError("layer_sign must be +1 (lower) or -1 (upper)")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (grid.n,):
        raise ValueError(f"zeta must have shape ({grid.n},)")
    depth = 1.0 + layer_sign * eps_layer * zeta
    min_depth = float(np.min(depth))
    if min_depth <= MIN_DEPTH:
        raise DegenerateGeometryError(
            f"layer depth vanishes: min(1 {'+' if layer_sign > 0 else '-'} eps*zeta) "
            f"= {min_depth:.3e}"
        )
    h = 1.0 / n_z
    if layer_sign > 0:
        z_half = -1.0 + (np.arange(n_z) + 0.5) * h
    else:
        z_half = (np.arange(n_z) + 0.5) * h
    fac = 1.0 + layer_sign * z_half
    zx = _dx_spectral(grid, zeta)
    sigma_x = eps_layer * fac[:, None] * zx[None, :]
    sigma_z = np.broadcast_to(layer_sign * eps_layer * zeta, (n_z, grid.n))
    p11 = np.broadcast_to(depth, (n_z, grid.n))
    smu = math.sqrt(mu_layer)
    p12 = -smu * sigma_x
    p22 = (1.0 + mu_layer * sigma_x**2) / p11
    return DiffeoData(
        grid=grid,
        zeta=zeta,
        eps_layer=eps_layer,
        mu_layer=mu_layer,
        layer_sign=layer_sign,
        n_z=n_z,
        sigma_x=sigma_x,
        sigma_z=np.asarray(sigma_z),
        p_matrix=PMatrixField(p11=np.asarray(p11), p12=p12, p22=p22),
        min_depth=min_depth,
    )


def _deflate(v: np.ndarray) -> np.ndarray:
    """Project a field (or a trace) off constants and the z-independent
    Nyquist column, which the spectral derivative zeroes."""
    nyq = np.cos(np.pi * np.arange(v.shape[-1]))
    v = v - np.mean(v)
    return v - np.mean(v * nyq) * nyq


class _Tridiag:
    """Prefactored symmetric tridiagonal solves, vectorized over Fourier modes.

    Small systems precompute dense per-mode inverses so a solve is a single
    batched matmul; large systems fall back to vectorized Thomas sweeps.
    """

    _DENSE_LIMIT = 200

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        nm, m = diag.shape
        self.m = m
        self.off = off
        self.dense_inv = None
        if m <= self._DENSE_LIMIT:
            mats = np.zeros((nm, m, m))
            idx = np.arange(m)
            mats[:, idx, idx] = diag
            mats[:, idx[:-1], idx[1:]] = off
            mats[:, idx[1:], idx[:-1]] = off
            self.dense_inv = np.linalg.inv(mats)
            return
        self.cp = np.zeros((nm, max(m - 1, 0)))
        self.inv_den = np.zeros((nm, m))
        den = diag[:, 0].copy()
        self.inv_den[:, 0] = 1.0 / den
        for i in range(1, m):
            self.cp[:, i - 1] = off[:, i - 1] * self.inv_den[:, i - 1]
            den = diag[:, i] - off[:, i - 1] * self.cp[:, i - 1]
            self.inv_den[:, i] = 1.0 / den

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.dense_inv is not None:
            return np.einsum("kij,kj->ki", self.dense_inv, rhs)
        m = self.m
        d = np.empty_like(rhs)
        d[:, 0] = rhs[:, 0] * self.inv_den[:, 0]
        for i in range(1, m):
            d[:, i] = (rhs[:, i] - self.off[:, i - 1] * d[:, i - 1]) * self.inv_den[:, i]
        x = np.empty_like(rhs)
        x[:, m - 1] = d[:, m - 1]
        for i in range(m - 2, -1, -1):
            x[:, i] = d[:, i] - self.cp[:, i] * x[:, i + 1]
        return x

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Flat-operator solve of a (rows, n) field: Fourier in x, tridiagonal in z."""
        rh = np.fft.rfft(r, axis=-1).T
        xr = self.solve(rh.real)
        xi = self.solve(rh.imag)
        return np.fft.irfft((xr + 1j * xi).T, n=r.shape[-1], axis=-1)


def _mode_tridiag(grid: PeriodicGrid, n_z: int, layers, keep=None, shift0=False) -> _Tridiag:
    """Flat operator of a column of stacked layers, one tridiagonal per mode.

    ``layers`` lists (weight, μ) per layer from the bottom up, n_z cells each,
    neighbours sharing a row; ``keep`` selects the unknown rows.  ``shift0``
    keeps the singular k = 0 mode of a column without Dirichlet row SPD.
    """
    h = 1.0 / n_z
    k = np.fft.rfftfreq(grid.n, d=1.0 / (grid.n * grid.k_fundamental))
    mass = np.repeat([w * mu * h / 4.0 for w, mu in layers], n_z)
    stiff = np.repeat([w / h for w, _ in layers], n_z)
    a_loc = mass * k[:, None] ** 2 + stiff
    off = mass * k[:, None] ** 2 - stiff
    diag = np.zeros((k.size, mass.size + 1))
    diag[:, :-1] += a_loc
    diag[:, 1:] += a_loc
    if keep is not None:
        diag = diag[:, keep]
        consecutive = np.nonzero(np.diff(keep) == 1)[0]
        off = off[:, keep[consecutive]]
    if shift0:
        diag[0, :] += h * min(w for w, _ in layers)
    return _Tridiag(diag, off)


def _pcg(aop, b, precondition, tol, maxiter=None, x0=None, project=lambda v: v):
    """Preconditioned conjugate gradients for a symmetric PSD operator.

    ``project`` maps onto the complement of the operator's kernel; it is
    applied to the data, the iterates and every residual.  When the updated
    residual meets tol·‖b‖ the true residual b − A x is computed; the
    iteration restarts from it until it meets the same bound, and raises
    NumericalError when it stops shrinking or after ``maxiter`` iterations.
    Returns (x, iterations, relative true residual).
    """
    b = project(b)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros_like(b), 0, 0.0
    if maxiter is None:
        maxiter = 10 * b.size
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = project(np.array(x0, dtype=float))
        r = project(b - aop(x))
    it = 0
    history = []
    last = math.inf
    while True:
        z = project(precondition(r))
        p = z.copy()
        rz = float(np.vdot(r, z))
        while float(np.linalg.norm(r)) > tol * nb:
            if it >= maxiter:
                raise NumericalError(
                    f"CG failed to converge: residual {np.linalg.norm(r)/nb:.3e} "
                    f"after {it} iterations",
                    residual_history=history,
                )
            ap = aop(p)
            alpha = rz / float(np.vdot(p, ap))
            x += alpha * p
            r = project(r - alpha * ap)
            z = project(precondition(r))
            rz_new = float(np.vdot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
            history.append(float(np.linalg.norm(r)) / nb)
        r = project(b - aop(x))
        res = float(np.linalg.norm(r)) / nb
        if res <= tol:
            return x, it, res
        if res > 0.5 * last or it >= maxiter:
            raise NumericalError(
                f"CG true residual {res:.3e} stalled above tolerance {tol:.1e} "
                f"after {it} iterations",
                residual_history=history,
            )
        last = res


class StripOperator:
    """Matrix-free discrete operator for one straightened layer."""

    def __init__(self, d: DiffeoData):
        self.d = d
        self.grid = d.grid
        self.h = 1.0 / d.n_z
        self.smu = math.sqrt(d.mu_layer)
        self.iface = d.n_z if d.layer_sign > 0 else 0
        rows = np.arange(d.n_z + 1)
        self.interior = rows[rows != self.iface]
        self._dirichlet_fac = None
        self._neumann_fac = None
        k = np.fft.rfftfreq(self.grid.n, d=1.0 / (self.grid.n * self.grid.k_fundamental))
        ik = 1j * k
        ik[-1] = 0.0  # the grid is even: Nyquist is zeroed
        self._ik = ik

    # -- discrete bilinear form -------------------------------------------------
    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Symmetric PSD operator A with v·Aφ = Σ_cells h ∇^μ v·P ∇^μ φ."""
        d, h = self.d, self.h
        pm = d.p_matrix
        grid = self.grid
        ik = self._ik
        uh = np.fft.rfft(phi, axis=-1)
        phix = np.fft.irfft(ik * uh, n=grid.n, axis=-1)
        px_half = 0.5 * (phix[:-1] + phix[1:])
        pz_half = (phi[1:] - phi[:-1]) * (1.0 / h)
        f1 = d.mu_layer * pm.p11 * px_half + self.smu * pm.p12 * pz_half
        f2 = self.smu * pm.p12 * px_half + pm.p22 * pz_half
        t = np.fft.irfft((-0.5 * h) * ik * np.fft.rfft(f1, axis=-1), n=grid.n, axis=-1)
        out = np.empty_like(phi)
        out[0] = t[0] - f2[0]
        out[-1] = t[-1] + f2[-1]
        out[1:-1] = t[:-1] + f2[:-1] + t[1:] - f2[1:]
        return out

    # -- solves -----------------------------------------------------------------
    def solve_dirichlet(self, psi, tol=DEFAULT_TOL, maxiter=None, x0=None):
        d = self.d
        psi = np.asarray(psi, dtype=float)
        if not np.all(np.isfinite(psi)):
            raise NumericalError("Dirichlet data contains non-finite values")
        if self._dirichlet_fac is None:
            self._dirichlet_fac = _mode_tridiag(
                self.grid, d.n_z, [(1.0, d.mu_layer)], keep=self.interior
            )
        phi = np.zeros((d.n_z + 1, self.grid.n))
        phi[self.iface] = psi
        b = -self.apply(phi)[self.interior]

        def aop(v):
            full = np.zeros((d.n_z + 1, self.grid.n))
            full[self.interior] = v
            return self.apply(full)[self.interior]

        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)[self.interior]
        x, it, res = _pcg(
            aop, b, self._dirichlet_fac.precondition, tol, maxiter, x0
        )
        phi[self.interior] = x
        return StripSolution(phi=phi, residual_norm=res, iterations=it)

    def solve_neumann(self, g_data, tol=DEFAULT_TOL, maxiter=None, x0=None):
        d = self.d
        g_data = np.asarray(g_data, dtype=float)
        gmean = abs(float(np.mean(g_data)))
        gscale = float(np.max(np.abs(g_data))) if g_data.size else 0.0
        if gmean > 1e-8 * max(gscale, 1.0):
            raise IncompatibleDataError(
                f"Neumann data must have zero mean on the periodic strip, got {gmean:.3e}"
            )
        if self._neumann_fac is None:
            self._neumann_fac = _mode_tridiag(
                self.grid, d.n_z, [(1.0, d.mu_layer)], shift0=True
            )
        b = np.zeros((d.n_z + 1, self.grid.n))
        b[self.iface] = g_data if d.layer_sign > 0 else -g_data
        x, it, res = _pcg(
            self.apply, b, self._neumann_fac.precondition, tol, maxiter, x0, _deflate
        )
        x -= np.mean(x[self.iface])
        return StripSolution(phi=x, residual_norm=res, iterations=it)

    def dn(self, psi, tol=DEFAULT_TOL, maxiter=None, x0=None):
        sol = self.solve_dirichlet(psi, tol=tol, maxiter=maxiter, x0=x0)
        flux = self.apply(sol.phi)[self.iface]
        if self.d.layer_sign < 0:
            flux = -flux
        return flux, sol


def solve_dirichlet(d: DiffeoData, psi, tol=DEFAULT_TOL, maxiter=None, x0=None) -> StripSolution:
    """Solve ∇^μ·P∇^μ φ = 0 with φ = ψ at the interface, no-flux at the wall."""
    return d.operator().solve_dirichlet(psi, tol=tol, maxiter=maxiter, x0=x0)


def solve_neumann(d: DiffeoData, g, tol=DEFAULT_TOL, maxiter=None, x0=None) -> StripSolution:
    """Solve with prescribed upward conormal flux g at the interface.

    g must have zero mean (flux compatibility on the periodic strip); the
    solution is gauged so its interface trace has zero mean.
    """
    return d.operator().solve_neumann(g, tol=tol, maxiter=maxiter, x0=x0)


def dn_apply(d: DiffeoData, psi, tol=DEFAULT_TOL, maxiter=None, x0=None) -> np.ndarray:
    """Dirichlet-Neumann map of one layer: ψ ↦ upward conormal flux at z = 0.

    Computed as the variational flux of the discrete solution, which keeps
    (ψ₁, Gψ₂) symmetric, ±(ψ, G±ψ) ≥ 0 and mean(Gψ) = 0 exact to rounding.
    """
    flux, _ = d.operator().dn(psi, tol=tol, maxiter=maxiter, x0=x0)
    return flux


def dn_flat(grid: PeriodicGrid, mu_layer: float, layer_sign: int, psi) -> np.ndarray:
    """Flat-interface Dirichlet-Neumann map ±√μ±|D| tanh(√μ±|D|)ψ."""
    from .spectral import apply_multiplier

    smu = math.sqrt(mu_layer)

    def m(k):
        return layer_sign * smu * np.abs(k) * np.tanh(smu * np.abs(k))

    return apply_multiplier(grid, m, psi)
