"""One fluid layer on the straightened strip and its Dirichlet-Neumann map.

The layer occupying the physical domain between the interface z = ±ε±ζ(x)
and its wall z = ∓1 is straightened by the trivial graph diffeomorphism

    Σ±(x, z) = (x, ε±(1±z)ζ(x) + z),

which turns the scaled Laplace problem into the divergence-form equation
∇^{μ±}·P ∇^{μ±}φ = 0 on the flat strip, with (d = 1)

    p11 = 1 + ∂zσ,   p12 = -√μ± ∂xσ,   p22 = (1 + μ±(∂xσ)²)/(1 + ∂zσ),

σ = ε±(1±z)ζ.  Both layers are written in the distance f = 1 ± z from
their wall, which runs against z in the upper layer: there ∂z = −∂f, and the
layer sign enters only the cross term, p12 = ±f·q with q = −√μ±ε±∂xζ, and
the sign of the DN map, G± = ±S±.  Discretization: spectral differentiation
in x, second-order centered differences on a uniform grid in f, with fluxes
assembled at half-levels so that the discrete operator A is exactly symmetric
and positive semi-definite.  Rows are numbered from the wall (row 0) to the
interface (row n_z) in both layers.

:class:`StripOperator` is the one object per layer.  Its constructor checks
n_z, ζ by spectral's field rule, the depth (:func:`layer_depth`), or takes
all three as an :class:`~twofluid.operators.InterfaceState` has checked them,
and samples the metric; nothing else is computed until asked.  Because x is
spectral, A is block tridiagonal with dense N×N blocks.  With p11 = 1 ± εζ
and p12 = ±f·q, q = −√μεζₓ, every block is a scalar combination of four N×N
x-matrices, DᵀD, Dᵀdiag(ζ)D and Q ± Qᵀ with Q = Dᵀdiag(ζₓ), plus a diagonal
from p22.  The x-matrices do not depend on the layer, so both layers of an
:class:`~twofluid.operators.InterfaceState` are built on first use over one
set, and the scalars form a table cached per (μ±, ε±, ±, n_z): a layer's
blocks are one product of the two, the cell masses one of a second table
with (1, q²)/p11 (:meth:`StripOperator._blocks`).  Each layer drops the set
as it sweeps; a standalone layer, or a second sweep (the Dirichlet solve),
builds it from ζ.  A block Cholesky sweep in row order, from the wall to the
interface row, eliminates every other row in place on them: one index loop
over transposed views of the block stack, making only LAPACK and BLAS calls.
Each row's Schur update is a dgemm on the whole next row block, of which
the factorisation reads the lower triangle: twice the flops of a dsyrk on
that triangle, and yet faster up to N = 96 in OpenBLAS.  The sweep leaves
the Schur complement S on the interface row.  S is the discrete
Dirichlet-Neumann matrix itself (G± = ±S±): symmetric, positive
semi-definite, and zero on constants and on the Nyquist column that the
spectral derivative annihilates.
:attr:`StripOperator.dn_matrix` is the read-only S of one sweep.  The Neumann
solve is an interface solve with S alone.  The Dirichlet solve is the one
field solve: it repeats the sweep, holding the factors of every eliminated
row for its back-substitution; its true residual, computed with the
matrix-free :meth:`StripOperator.apply`, is checked against :data:`RESIDUAL_TOL`.

Each primitive guards the float limit once, and raises NumericalError where
a finite input overflows, without a warning.  :func:`_dn_product` is the
package's one checked product with a DN-type matrix, S± or 𝒢̃, its scale
the BLAS alpha.  The gauged solve :class:`_RangeSolver` checks its answer,
not the data that a primitive has checked, and the Dirichlet solve checks
its residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgemm, dgemv, dnrm2, dpotrf, dpotrs, dtrsm, dtrtrs
from .errors import DegenerateGeometryError, NumericalError
from .params import _check_count
from .spectral import (PeriodicGrid, _cached, _check_length, _check_range, _deflate, _dot,
                       _finite, _gauge_constants, _grid_field, _one_field, _read_only, deriv)

# Bound on the relative true residual of every direct solve of the package.
RESIDUAL_TOL = 1e-9
MIN_DEPTH = 1e-10


def layer_depth(zeta, eps_layer: float, layer_sign: int) -> np.ndarray:
    """Depth 1 ± ε±ζ of the layer below (+1) or above (−1) the interface.

    Raises
    ------
    DegenerateGeometryError
        If the depth falls below the positivity floor (the layer pinches off).
    """
    depth = np.asarray(zeta, dtype=float) * (layer_sign * eps_layer) + 1.0
    # the entry at argmin is the minimum, without a ufunc reduction's dispatch
    min_depth = depth.item(depth.argmin())
    if min_depth <= MIN_DEPTH:
        raise DegenerateGeometryError(
            f"layer depth vanishes: min(1 {'+' if layer_sign > 0 else '-'} eps*zeta) "
            f"= {min_depth:.3e}"
        )
    return depth


@dataclass
class StripSolution:
    """Solution of one strip solve: potential on the (n_z+1, n) grid, rows
    from the wall (row 0) to the interface (row n_z), and its interface trace."""

    phi: np.ndarray
    trace: np.ndarray
    residual_norm: float


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix given by the lower
    triangle of a.  A Fortran-ordered a is factored in place; the strict
    upper triangle is left as it was."""
    # (lower, clean, overwrite_a) positional, as in the sweep: f2py parses
    # keywords anew on every call
    low, info = dpotrf(a, 1, 0, 1)
    if info != 0:
        raise NumericalError(f"Cholesky factorization failed (LAPACK info {info})")
    return low


def _check_residual(r: np.ndarray, b: np.ndarray, what: str) -> float:
    """Relative residual ‖r‖/‖b‖; NumericalError above RESIDUAL_TOL or if not
    finite.  BLAS dnrm2 scales as it sums, so neither norm overflows unless
    it exceeds the largest float."""
    nr, nb = dnrm2(r.ravel()), dnrm2(b.ravel())
    res = nr / nb if nb else nr
    if not res <= RESIDUAL_TOL:
        raise NumericalError(
            f"{what}: relative residual {res:.3e} above {RESIDUAL_TOL:.0e}"
        )
    return res


def _dn_product(mat: np.ndarray, rows, scale: float = 1.0) -> np.ndarray:
    """rows·mat/scale for one field or a stack and a symmetric DN-type mat
    (S± or 𝒢̃), NumericalError unless finite: BLAS dgemv (trans = 1,
    positional) or dgemm on matᵀ with alpha = 1/scale, so nothing warns."""
    rows = _check_length(rows, len(mat))
    if rows.ndim == 1:
        return _finite(dgemv(1.0 / scale, mat.T, rows, 0.0, None, 0, 1, 0, 1, 1), "DN product")
    return _finite(dgemm(1.0 / scale, mat.T, rows.T).T, "DN product")


class _RangeSolver:
    """The one gauged solve of mat·u = f, f in the range of a symmetric PSD
    mat with kernel span{1, Nyquist}: a DN matrix or a positive sum of them.
    The factor of the SPD mat + Π is computed once; a call deflates f, which
    its maker has checked, back-substitutes, checks that u is finite,
    deflates and checks the true residual against mat, so an overflowing
    solve raises before its deflation sees ±∞.  f is one right-hand side or
    one per row."""

    def __init__(self, mat: np.ndarray, what: str):
        self.mat = mat
        self.what = what
        self._low = _cholesky(mat + _gauge_constants(mat.shape[0])[1])

    def __call__(self, f) -> np.ndarray:
        f = _deflate(f)
        # lower, positional; one column per right-hand side
        u, _ = dpotrs(self._low, f.T if f.ndim > 1 else f[:, None], 1)
        u = _deflate(_finite(u.T.reshape(f.shape), f"{self.what} solution"))
        # mat is symmetric, so a stack of rows multiplies from the left
        _check_residual(_dot(u, self.mat) - f, f, f"{self.what} solve")
        return u

    def whiten(self, rows: np.ndarray) -> np.ndarray:
        """X = rows·L⁻ᵀ, L the factor of mat + Π: XXᵀ = rows·mat⁺·rowsᵀ for
        rows in the range of mat.  Unchecked; a checked call vouches for L."""
        return dtrsm(1.0, self._low, rows, 1, 1, 1)  # side, lower, trans_a


class _XMatrices:
    """The slope ζₓ and the x-matrices of the blocks of both layers over ζ as
    one (4, N²) stack: DᵀD (cached on the grid), Dᵀdiag(ζ)D, Q + Qᵀ and
    Q − Qᵀ, with Q = Dᵀdiag(ζₓ) and D the spectral derivative matrix."""

    def __init__(self, grid: PeriodicGrid, zeta: np.ndarray, zeta_x: np.ndarray):
        dmat_t = grid.deriv_matrix_t
        q = dmat_t * zeta_x
        stack = np.empty((4, grid.n, grid.n))
        stack[0] = grid.deriv_gram
        # Dᵀdiag(ζ)D into its slot, through the slot's transposed view:
        # (beta, c, trans_a, trans_b, overwrite_c); beta = 0 reads nothing of c
        dgemm(1.0, dmat_t.T, (dmat_t * zeta).T, 0.0, stack[1].T, 1, 0, 1)
        # a contiguous Qᵀ: two passes over it cost less than two strided reads
        q_t = q.T.copy()
        np.add(q, q_t, out=stack[2])
        np.subtract(q, q_t, out=stack[3])
        self.zeta_x = zeta_x
        self.stack = stack.reshape(4, -1)


@functools.lru_cache(maxsize=64)
def _block_coefficients(mu_layer: float, eps_layer: float, layer_sign: int,
                        n_z: int) -> tuple:
    """Read-only tables of the coefficients of a layer's x-matrices in its row
    blocks 0..n_z, then its n_z off blocks (:meth:`StripOperator._blocks`), and
    of (1, q²)/p11 in the mass p22_j/h = (1 + f_j²q²)/(h·p11) of each cell j."""
    h = 1.0 / n_z
    f = (np.arange(n_z) + 0.5) * h
    # the multiples of K, Σ and A in each block
    kind = np.zeros((2 * n_z + 1, 3))
    kind[: n_z + 1, :2] = 2.0, -h
    kind[0, :2], kind[n_z, :2] = (1.0, -f[0]), (1.0, f[-1])
    kind[n_z + 1 :, 0], kind[n_z + 1 :, 2] = 1.0, f
    a, b = 0.25 * h * mu_layer, -0.5 * layer_sign * mu_layer * eps_layer
    table = kind[:, [0, 0, 1, 2]] * [a, a * layer_sign * eps_layer, b, b]
    mass = np.array([np.ones(n_z), f * f]).T / h
    table.flags.writeable = mass.flags.writeable = False
    return table, mass


class StripOperator:
    """One straightened fluid layer: the metric of the trivial graph
    diffeomorphism, the discrete operator A, its Schur complement S on the
    interface row, the Dirichlet field solve and the Neumann interface solve.

    A field is an (n_z + 1, N) array whose rows run from the wall (row 0)
    to the interface (row n_z) in both layers.  The metric is sampled on the
    half-levels: p11 = 1 ± ε±ζ, which does not depend on the level, and q as
    (N,) arrays; p12 = ±f·q and p22, (n_z, N) arrays with f the distance of
    each half-level from the wall and ± the layer sign, are computed when
    read.
    """

    def __init__(self, grid: PeriodicGrid, zeta, eps_layer: float, mu_layer: float,
                 layer_sign: int, n_z: int = 32, *, _x: _XMatrices = None, _depth=None):
        if layer_sign not in (+1, -1):
            raise ValueError("layer_sign must be +1 (lower) or -1 (upper)")
        # an InterfaceState passes the n_z, ζ and depth it has checked, and
        # the x-matrices its layers share
        if _depth is None:
            _check_count("n_z", n_z)
            zeta = _grid_field(grid, zeta, "zeta")
            _depth = layer_depth(zeta, eps_layer, layer_sign)
        self.grid = grid
        self.mu = mu_layer
        self.sign = layer_sign
        self.n_z = n_z
        self.h = 1.0 / n_z
        self.smu = math.sqrt(mu_layer)
        self.p11 = _depth
        self._zeta, self._x = zeta, _x
        self._coef = _block_coefficients(float(mu_layer), float(eps_layer), layer_sign, n_z)
        self.q = (deriv(grid, zeta) if _x is None else _x.zeta_x) * (-self.smu * eps_layer)

    @property
    def p12(self) -> np.ndarray:
        """±f·q, f the distance of each half-level from the wall, which runs
        against z in the upper layer."""
        f = (np.arange(self.n_z) + 0.5) * self.h
        return f[:, None] * (self.sign * self.q)[None, :]

    @property
    def p22(self) -> np.ndarray:
        """(1 + p12²)/p11 on the half-levels."""
        return (1.0 + self.p12**2) / self.p11

    # -- discrete bilinear form -------------------------------------------------
    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Symmetric PSD operator A with v·Aφ = Σ_cells h ∇^μ v·P ∇^μ φ, on a
        field with rows from the wall to the interface."""
        h, dmat_t = self.h, self.grid.deriv_matrix_t
        phix = phi.dot(dmat_t)
        px_half = 0.5 * (phix[:-1] + phix[1:])
        pz_half = (phi[1:] - phi[:-1]) * (1.0 / h)
        p12, p22 = self.p12, self.p22
        f1 = self.mu * self.p11 * px_half + self.smu * p12 * pz_half
        f2 = self.smu * p12 * px_half + p22 * pz_half
        t = (f1 * (-0.5 * h)).dot(dmat_t)
        out = np.empty_like(phi)
        out[0] = t[0] - f2[0]
        out[-1] = t[-1] + f2[-1]
        out[1:-1] = t[:-1] + f2[:-1] + t[1:] - f2[1:]
        return out

    def _blocks(self) -> tuple:
        """Blocks of A in row order, from the wall to the interface, as two
        stacks of Fortran-ordered views of one array assembled in a single
        pass: the row blocks row_j, j = 0..n_z, and the transposed off blocks
        off_jᵀ, j < n_z, with off_j = A[j, j+1].

        The cell between rows j and j + 1 has energy h·∇^μv·P∇^μφ with
        ∂x = D(φ_j + φ_{j+1})/2 and ∂f = (φ_{j+1} − φ_j)/h, D the spectral
        derivative matrix.  With Q = Dᵀdiag(ζₓ), p11 = 1 ± εζ, q = −√μεζₓ,
        K = (hμ/4)Dᵀdiag(p11)D = (hμ/4)(DᵀD ± εDᵀdiag(ζ)D), Σ = ∓(με/2)(Q + Qᵀ),
        A = ∓(με/2)(Q − Qᵀ) and M_j = diag(p22_j/h), p22_j of cell j:

            row_0 = K − f_0Σ + M_0,
            row_j = 2K − hΣ + M_{j−1} + M_j        (0 < j < n_z),
            row_{n_z} = K + f_{n_z−1}Σ + M_{n_z−1},
            off_j = K + f_jA − M_j.

        So all blocks are one product of the coefficient table
        (:func:`_block_coefficients`) with the x-matrices (:class:`_XMatrices`),
        which the layer then drops, plus the cell masses on the block diagonals.
        A row block is symmetric to rounding, so it is read transposed too.
        """
        n, n_z = self.grid.n, self.n_z
        table, mass_table = self._coef
        if self._x is None:  # a standalone layer, or a second sweep
            self._x = _XMatrices(self.grid, self._zeta, deriv(self.grid, self._zeta))
        # table·stack, C-ordered: the transposed product on transposed views
        stack, self._x = dgemm(1.0, self._x.stack.T, table.T).T, None
        ones_q2 = np.ones((2, n))
        np.multiply(self.q, self.q, out=ones_q2[1])
        mass = mass_table.dot(ones_q2) / self.p11
        # the block diagonals take the masses as a gathered copy, which costs
        # less than adding into their strided views.  M_j and then M_{j−1}
        # enter a row one after the other: adding their sum instead rounds
        # differently and moves the traces by up to 1e-12
        diag = stack[:, :: n + 1]
        masses = diag.copy()
        masses[:n_z] += mass
        masses[1 : n_z + 1] += mass
        masses[n_z + 1 :] -= mass
        diag[...] = masses
        blocks = stack.reshape(2 * n_z + 1, n, n).transpose(0, 2, 1)
        return blocks[: n_z + 1], blocks[n_z + 1 :]

    def _sweep(self) -> tuple:
        """Block Cholesky elimination of every row but the interface one.

        One index loop over the blocks of :meth:`_blocks`, from the wall to
        the interface row, making only LAPACK and BLAS calls, in place.
        Returns the read-only S and the factors (L_j, x_j) of the eliminated
        rows j < n_z, with L_j the Cholesky factor of row j after the updates
        of the rows before it and x_j = (L_j⁻¹off_j)ᵀ: views of the block
        stack, which the sweep holds anyway.
        """
        rows, offs_t = self._blocks()
        factors = []
        row = rows[0]
        for j in range(self.n_z):
            low = _cholesky(row)
            # xᵀ = offᵀL⁻ᵀ: offᵀ is a Fortran-ordered view, solved in place;
            # OpenBLAS runs this right-sided form (side, lower, trans_a, diag,
            # overwrite_b) about twice as fast as L⁻¹off
            x_t = dtrsm(1.0, low, offs_t[j], 1, 1, 1, 0, 1)
            factors.append((low, x_t))
            # row −= x xᵀ in place, on the whole block, of which the next
            # factor and S read the lower triangle: (b, beta, c, trans_a,
            # trans_b, overwrite_c)
            row = dgemm(-1.0, x_t, x_t, 1.0, rows[j + 1], 0, 1, 1)
        # the upper triangle is the lower one's mirror only to rounding;
        # mirroring the lower keeps S == Sᵀ exact
        return _read_only(np.where(_gauge_constants(len(row))[2], row, row.T)), factors

    @_cached
    def dn_matrix(self) -> np.ndarray:
        """S, the Schur complement of A on the interface row (G± = ±S)."""
        return self._sweep()[0]

    @_cached
    def _neumann(self) -> _RangeSolver:
        return _RangeSolver(self.dn_matrix, "Neumann")

    def _extend(self, psi: np.ndarray, factors: list) -> np.ndarray:
        """Back-substitute the field with interface trace ψ, rows from the
        wall (row 0) to the interface (row n_z)."""
        phi = np.empty((self.n_z + 1, self.grid.n))
        phi[-1] = psi
        for j in reversed(range(self.n_z)):
            low, x_t = factors[j]
            y, _ = dtrtrs(low, (phi[j + 1] @ x_t)[:, None], 1, 1)  # lower, trans
            phi[j] = -y[:, 0]
        return phi

    # -- solves -----------------------------------------------------------------
    def solve_dirichlet(self, psi) -> StripSolution:
        """Solve ∇^μ·P∇^μ φ = 0 with φ = ψ at the interface, no-flux at the wall;
        NumericalError unless the field and its residual are finite."""
        psi = _one_field(psi, self.grid.n)
        # the one guard of the field solve: an overflow of the back-substitution
        # or of the residual shows in the residual, which the check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self._extend(psi, self._sweep()[1])
            lift = np.zeros_like(phi)
            lift[-1] = psi
            r, b = self.apply(phi)[:-1], self.apply(lift)[:-1]
        res = _check_residual(r, b, "Dirichlet solve")
        return StripSolution(phi=phi, trace=phi[-1].copy(), residual_norm=res)

    def solve_neumann(self, g) -> np.ndarray:
        """Gauged interface trace ψ with upward conormal flux Gψ = ±Sψ = g.

        g must lie in the range of S: zero mean (flux compatibility on the
        periodic strip) and no Nyquist component, each up to rounding,
        1e-8·‖g‖∞; other data raises IncompatibleDataError.  No sweep once S
        exists: the factor of S + Π is kept on the layer.
        """
        return self._neumann(self.sign * _check_range(g, self.grid.n, "Neumann solve"))


def dn_apply(d: StripOperator, psi) -> np.ndarray:
    """Dirichlet-Neumann map of one layer: ψ ↦ upward conormal flux at z = 0.

    The product ±Sψ with the Schur complement of the discrete operator, the
    variational flux of the discrete solution, which keeps (ψ₁, Gψ₂)
    symmetric, ±(ψ, G±ψ) ≥ 0 and mean(Gψ) = 0 exact to rounding.
    NumericalError if the product is not finite.
    """
    return _dn_product(d.dn_matrix, psi, d.sign)

