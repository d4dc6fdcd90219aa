"""Linear stability of two uniform streams under gravity and capillarity.

For two layers of densities ρ± and depths H± moving with constant horizontal
velocities c±, a normal mode e^{ik(x−ct)} satisfies the quadratic

    t⁺(c − c⁺)² + t⁻(c − c⁻)² = R,   t± = ρ±coth(kH±),  R = (g(ρ⁺−ρ⁻) + σk²)/k,

with roots c = (t⁺c⁺ + t⁻c⁻ ± √Δ)/(t⁺ + t⁻) and discriminant

    Δ = (t⁺ + t⁻)R − t⁺t⁻⟦c⟧².

Every function of this module reads Δ from one helper.  Mode k is unstable
exactly when Δ < 0, that is when

    ⟦c⟧² > (tanh(kH⁺)/ρ⁺ + tanh(kH⁻)/ρ⁻) (g(ρ⁺−ρ⁻) + σk²)/k.

The quartic threshold formula

    |⟦c⟧|⁴_crit = 4σ g(ρ⁺−ρ⁻)(ρ⁺+ρ⁻)² / ((ρ⁺ρ⁻)² 𝔠₀)

reproduces the classical deep-water value with 𝔠₀ = 1; at finite depth the
geometric constant is supplied by :func:`twofluid.stability.c_flat` and this
module's :func:`critical_shear`, the infimum of the instability threshold
over the wavenumbers, is the reference the candidates are judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, NumericalError


@dataclass(frozen=True)
class ShearConfig:
    """Two uniform layers with constant background velocities."""

    rho_plus: float
    rho_minus: float
    depth_plus: float
    depth_minus: float
    c_plus: float = 0.0
    c_minus: float = 0.0
    sigma: float = 0.0
    gravity: float = 9.81

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise InvalidConfigError(f"every value must be finite: {self}")
        if not (self.rho_plus > 0.0 and self.rho_plus >= self.rho_minus >= 0.0):
            raise InvalidConfigError("need rho_plus > 0 and rho_plus >= rho_minus >= 0")
        if not (min(self.depth_plus, self.depth_minus, self.gravity) > 0.0 and self.sigma >= 0.0):
            raise InvalidConfigError("depths and gravity must be positive, sigma >= 0")

    def with_shear(self, jump: float) -> "ShearConfig":
        return replace(self, c_plus=0.5 * jump, c_minus=-0.5 * jump)


# wavenumbers scanned by max_growth and critical_shear
_K_SCAN = np.geomspace(1e-3, 1e5, 600)


def _dispersion(k, cfg: ShearConfig) -> tuple:
    """(t⁺, t⁻, Δ) of the dispersion quadratic at the wavenumbers k:
    t± = ρ±coth(kH±) and Δ = (t⁺ + t⁻)R − t⁺t⁻⟦c⟧², with R the restoring
    term (g(ρ⁺−ρ⁻) + σk²)/k.  Raises InvalidConfigError unless every k is
    finite and > 0."""
    if not np.all(np.isfinite(k) & (np.asarray(k) > 0.0)):
        raise InvalidConfigError(f"wavenumber must be finite and positive, got {k}")
    tp = cfg.rho_plus / np.tanh(k * cfg.depth_plus)
    tm = cfg.rho_minus / np.tanh(k * cfg.depth_minus)
    restoring = (cfg.gravity * (cfg.rho_plus - cfg.rho_minus) + cfg.sigma * k**2) / k
    return tp, tm, (tp + tm) * restoring - tp * tm * (cfg.c_plus - cfg.c_minus) ** 2


def mode_growth(k, cfg: ShearConfig):
    """Temporal growth rate Im(ω) = k√(−Δ)/(t⁺ + t⁻) of the most unstable
    root at the wavenumber k, or at each of an array of them.

    Zero when Δ ≥ 0, where the dispersion quadratic has real roots; a single
    stream (ρ⁻ = 0, so t⁻ = 0) has Δ = t⁺R ≥ 0.  Depends on the background
    velocities only through the jump ⟦c⟧ = c⁺ − c⁻.
    """
    tp, tm, disc = _dispersion(k, cfg)
    return k * np.sqrt(np.maximum(-disc, 0.0)) / (tp + tm)


def max_growth(cfg: ShearConfig) -> tuple:
    """Scan k ∈ [1e-3, 1e5] for the largest growth rate."""
    rates = mode_growth(_K_SCAN, cfg)
    i = int(np.argmax(rates))
    return float(rates[i]), float(_K_SCAN[i])


def critical_shear(cfg: ShearConfig) -> tuple:
    """Threshold |⟦c⟧|: the infimum over k > 0 of the shear above which mode
    k grows.

    Mode k is unstable exactly when Δ < 0, that is when ⟦c⟧² > T(k) =
    Δ(⟦c⟧ = 0)/(t⁺t⁻) = (tanh(kH⁺)/ρ⁺ + tanh(kH⁻)/ρ⁻)(g(ρ⁺−ρ⁻) + σk²)/k.
    Returns (threshold, critical wavenumber): √inf T(k) and the k where it
    is reached.  The infimum is 0 in two limits: without surface tension
    T(k) → 0 as k → ∞ (T ≡ 0 at equal densities), giving (0, ∞), and at
    equal densities with σ > 0 T(k) → 0 as k → 0, giving (0, 0).  Otherwise
    T(k) → ∞ at both ends and the result is its minimum over the wavenumbers
    of :func:`max_growth`.

    Raises
    ------
    NumericalError
        If ρ⁻ = 0, where every mode is neutral whatever the shear.
    """
    if cfg.rho_minus == 0.0:
        raise NumericalError("no unstable shear: with rho_minus = 0 every mode is neutral")
    if cfg.sigma == 0.0:
        return 0.0, math.inf
    if cfg.rho_plus == cfg.rho_minus:
        return 0.0, 0.0
    tp, tm, disc = _dispersion(_K_SCAN, cfg.with_shear(0.0))
    t = disc / (tp * tm)
    i = int(np.argmin(t))
    return math.sqrt(t[i]), float(_K_SCAN[i])


def kelvin_criterion_threshold(cfg: ShearConfig, c0: float) -> float:
    """Quartic threshold |⟦c⟧|_crit from the explicit criterion constant c0,
    which must be finite and > 0 (InvalidConfigError otherwise)."""
    if not 0.0 < c0 < math.inf:
        raise InvalidConfigError(f"criterion constant c0 must be finite and > 0, got {c0}")
    if cfg.rho_minus == 0.0:
        return math.inf
    if cfg.sigma == 0.0:
        return 0.0
    num = (
        4.0
        * cfg.sigma
        * cfg.gravity
        * (cfg.rho_plus - cfg.rho_minus)
        * (cfg.rho_plus + cfg.rho_minus) ** 2
    )
    return (num / ((cfg.rho_plus * cfg.rho_minus) ** 2 * c0)) ** 0.25
