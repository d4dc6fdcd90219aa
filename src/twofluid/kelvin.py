"""Linear stability of two uniform streams under gravity and capillarity.

For two layers of densities ρ± and depths H± moving with constant horizontal
velocities c±, a normal mode e^{ik(x−ct)} satisfies the quadratic

    ρ⁺coth(kH⁺)(c − c⁺)² + ρ⁻coth(kH⁻)(c − c⁻)² = (g(ρ⁺−ρ⁻) + σk²)/k,

so mode k is unstable exactly when

    ⟦c⟧² > (tanh(kH⁺)/ρ⁺ + tanh(kH⁻)/ρ⁻) (g(ρ⁺−ρ⁻) + σk²)/k.

The quartic threshold formula

    |⟦c⟧|⁴_crit = 4σ g(ρ⁺−ρ⁻)(ρ⁺+ρ⁻)² / ((ρ⁺ρ⁻)² 𝔠₀)

reproduces the classical deep-water value with 𝔠₀ = 1; at finite depth the
geometric constant is supplied by :func:`twofluid.stability.c_flat` and this
module's dispersion bisection is the reference the candidates are judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (self.rho_plus >= self.rho_minus >= 0.0):
            raise InvalidConfigError("need rho_plus >= rho_minus >= 0")
        if self.depth_plus <= 0.0 or self.depth_minus <= 0.0:
            raise InvalidConfigError("depths must be positive")

    def with_shear(self, jump: float) -> "ShearConfig":
        from dataclasses import replace

        return replace(self, c_plus=0.5 * jump, c_minus=-0.5 * jump)


def _coth(y):
    return 1.0 / np.tanh(y)


def mode_growth(k: float, cfg: ShearConfig) -> float:
    """Temporal growth rate Im(ω) of the most unstable root at wavenumber k.

    Zero when the dispersion quadratic has real roots.  Depends on the
    background velocities only through the jump ⟦c⟧ = c⁺ − c⁻.
    """
    if k <= 0.0:
        raise InvalidConfigError("wavenumber must be positive")
    tp = cfg.rho_plus * _coth(k * cfg.depth_plus)
    tm = cfg.rho_minus * _coth(k * cfg.depth_minus) if cfg.rho_minus > 0.0 else 0.0
    restoring = (cfg.gravity * (cfg.rho_plus - cfg.rho_minus) + cfg.sigma * k**2) / k
    if tm == 0.0:
        return 0.0  # single stream: neutral modes only
    jump = cfg.c_plus - cfg.c_minus
    disc = (tp + tm) * restoring - tp * tm * jump**2
    if disc >= 0.0:
        return 0.0
    return k * math.sqrt(-disc) / (tp + tm)


def mode_frequencies(k: float, cfg: ShearConfig):
    """Both roots ω of the dispersion quadratic (possibly complex)."""
    tp = cfg.rho_plus * _coth(k * cfg.depth_plus)
    tm = cfg.rho_minus * _coth(k * cfg.depth_minus) if cfg.rho_minus > 0.0 else 0.0
    restoring = (cfg.gravity * (cfg.rho_plus - cfg.rho_minus) + cfg.sigma * k**2) / k
    a = tp + tm
    b = -2.0 * (tp * cfg.c_plus + tm * cfg.c_minus)
    c = tp * cfg.c_plus**2 + tm * cfg.c_minus**2 - restoring
    disc = complex(b * b - 4.0 * a * c)
    root = np.sqrt(disc)
    return (k * (-b + root) / (2 * a), k * (-b - root) / (2 * a))


def max_growth(cfg: ShearConfig) -> tuple:
    """Scan k ∈ [1e-3, 1e5] for the largest growth rate."""
    ks = np.geomspace(1e-3, 1e5, 600)
    rates = np.array([mode_growth(k, cfg) for k in ks])
    i = int(np.argmax(rates))
    return float(rates[i]), float(ks[i])


def critical_shear(cfg: ShearConfig) -> tuple:
    """Threshold |⟦c⟧| above which some wavenumber grows, by bisection.

    Returns (threshold, critical wavenumber).  Bisects the onset of a
    positive maximal growth rate over the k range of :func:`max_growth` to
    a relative width of 1e-6; the bracket is expanded geometrically until
    it straddles the transition.

    Raises
    ------
    NumericalError
        If no unstable bracket is found up to an extreme shear (e.g. σ = 0
        with ρ⁻ = 0, where every mode is neutral).
    """

    def unstable(jump):
        rate, kc = max_growth(cfg.with_shear(jump))
        return rate > 0.0, kc

    lo, hi = 0.0, 1.0
    k_crit = math.nan
    for _ in range(80):
        bad, kc = unstable(hi)
        if bad:
            k_crit = kc
            break
        lo = hi
        hi *= 2.0
    else:
        raise NumericalError(
            f"no unstable shear found up to {hi:.3e} m/s; "
            "check sigma, densities and the wavenumber range"
        )
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        bad, kc = unstable(mid)
        if bad:
            hi, k_crit = mid, kc
        else:
            lo = mid
    return 0.5 * (lo + hi), k_crit


def kelvin_criterion_threshold(cfg: ShearConfig, c0: float) -> float:
    """Quartic threshold |⟦c⟧|_crit from the explicit criterion constant c0."""
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
