"""Dimensional configurations and derived dimensionless parameters.

A two-layer configuration is described by the densities ρ±, the rest depths
H± (lower/upper layer), a typical interface amplitude a, a typical
wavelength λ, the interfacial tension σ and gravity g.  The derived
quantities follow the shallow-water scaling built on the effective depth

    H = H⁺H⁻ / (ρ̄⁺H⁻ + ρ̄⁻H⁺),      ρ̄± = ρ±/(ρ⁺+ρ⁻),

the reduced gravity g' = (ρ̄⁺−ρ̄⁻)g and the long-wave speed c = √(g'H).
The practical shear-stability parameter is

    Υ = (ρ̄⁺ρ̄⁻)² (a⁴/H²) (ρ⁺+ρ⁻) g' / (4σ),

small Υ meaning that gravity and capillarity dominate the inertia of the
interfacial shear.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidConfigError

GRAVITY_DEFAULT = 9.81


@dataclass(frozen=True)
class PhysicalConfig:
    """Dimensional description of a two-layer configuration.

    Attributes
    ----------
    rho_plus : float
        Density of the lower (heavier) fluid, kg·m⁻³.
    rho_minus : float
        Density of the upper fluid, kg·m⁻³; 0 recovers the free-surface
        (single-fluid) limit.
    depth_plus, depth_minus : float
        Rest depths H± of the lower/upper layer, m.
    amplitude : float
        Typical interface displacement a, m.
    wavelength : float
        Typical horizontal wavelength λ, m.
    surface_tension : float
        Interfacial tension σ, N·m⁻¹ (0 is allowed).
    gravity : float
        Gravitational acceleration g, m·s⁻².
    """

    rho_plus: float
    rho_minus: float
    depth_plus: float
    depth_minus: float
    amplitude: float
    wavelength: float
    surface_tension: float
    gravity: float = GRAVITY_DEFAULT

    def __post_init__(self):
        if not math.inf > self.rho_plus > self.rho_minus >= 0.0:
            raise InvalidConfigError(
                f"need a finite rho_plus > rho_minus >= 0, got {self.rho_plus}, {self.rho_minus}"
            )
        for name in ("depth_plus", "depth_minus", "wavelength", "gravity"):
            _check_real(name, getattr(self, name), 0.0, strict=True)
        for name in ("amplitude", "surface_tension"):
            _check_real(name, getattr(self, name), 0.0)


@dataclass(frozen=True)
class DimensionlessParams:
    """Dimensionless parameters of a two-layer configuration.

    ``eps = a/H`` and ``mu = H²/λ²`` are the amplitude and shallowness
    parameters built on the effective depth H; the per-layer variants use
    H± instead.  ``hbar_plus/minus`` are the relative depths H±/H.  The
    identities ρ̄⁺+ρ̄⁻ = 1, ρ̄⁺/H̄⁺+ρ̄⁻/H̄⁻ = 1, ε±·H̄± = ε and
    μ± = μ·(H̄±)² hold by construction.
    """

    rhobar_plus: float
    rhobar_minus: float
    eps: float
    mu: float
    eps_plus: float
    eps_minus: float
    mu_plus: float
    mu_minus: float
    hbar_plus: float
    hbar_minus: float
    bond: float
    g_reduced: float
    h_eff: float
    wave_speed: float
    upsilon: float
    # carried along for dimensional restatements of the criteria
    rho_total: float
    sigma: float

    def layer(self, sign: int) -> tuple:
        """(ε±, μ±) of the layer below (+1) or above (−1) the interface."""
        return (self.eps_plus, self.mu_plus) if sign > 0 else (self.eps_minus, self.mu_minus)


class Verdict(Enum):
    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise InvalidConfigError unless value is an integer >= least (not a bool)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise InvalidConfigError(f"{name} must be an integer >= {least}, got {value}")


def _check_real(name: str, value, least: float = -math.inf, *, strict: bool = False,
                finite: bool = True):
    """value; InvalidConfigError unless value >= least (> least if strict)
    and, if finite, value is finite.  NaN fails every comparison."""
    if not ((value > least if strict else value >= least) and (math.isfinite(value) or not finite)):
        raise InvalidConfigError(f"{name} must be {'>' if strict else '>='} {least}"
                                 f"{' and finite' if finite else ''}, got {value}")
    return value


def _pow(x: float, n: float) -> float:
    """x**n, or ∞ where the float power overflows (OverflowError)."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def derive_params(cfg: PhysicalConfig) -> DimensionlessParams:
    """Derive all dimensionless parameters from a dimensional configuration.

    Surface tension 0 is not an error here: the Bond number and Υ are set
    to +inf (the capillarity-free limit must be requested explicitly for
    the criteria; see :func:`upsilon`).  Any other value that is not a
    finite float > 0 (or >= 0 for ρ̄⁻, σ, Υ and the ε) raises InvalidConfigError.
    """
    rho_tot = cfg.rho_plus + cfg.rho_minus
    rbp = cfg.rho_plus / rho_tot
    rbm = cfg.rho_minus / rho_tot
    g_red = (rbp - rbm) * cfg.gravity
    # 0 where ρ⁺ + ρ⁻ overflows
    h_eff = cfg.depth_plus * cfg.depth_minus / _check_real(
        "ρ̄-weighted depth", rbp * cfg.depth_minus + rbm * cfg.depth_plus, 0.0, strict=True)
    h_sq = _check_real("H²", _pow(h_eff, 2), 0.0, strict=True)
    eps = cfg.amplitude / h_eff
    mu = _pow(h_eff / cfg.wavelength, 2)
    if cfg.surface_tension > 0.0:
        bond = rho_tot * g_red * _pow(cfg.wavelength, 2) / cfg.surface_tension
        ups = (_pow(rbp * rbm, 2) * _pow(cfg.amplitude, 4) / h_sq * rho_tot * g_red
               / (4.0 * cfg.surface_tension))
    else:
        bond = math.inf
        ups = math.inf if rbm > 0.0 and cfg.amplitude > 0.0 else 0.0
    params = DimensionlessParams(
        rhobar_plus=rbp,
        rhobar_minus=rbm,
        eps=eps,
        mu=mu,
        eps_plus=cfg.amplitude / cfg.depth_plus,
        eps_minus=cfg.amplitude / cfg.depth_minus,
        mu_plus=_pow(cfg.depth_plus / cfg.wavelength, 2),
        mu_minus=_pow(cfg.depth_minus / cfg.wavelength, 2),
        hbar_plus=cfg.depth_plus / h_eff,
        hbar_minus=cfg.depth_minus / h_eff,
        bond=bond,
        g_reduced=g_red,
        h_eff=h_eff,
        wave_speed=math.sqrt(g_red * h_eff),
        upsilon=ups,
        rho_total=rho_tot,
        sigma=cfg.surface_tension,
    )
    for name, value in vars(params).items():
        _check_real(name, value, 0.0, strict=name not in ("rhobar_minus", "sigma", "upsilon")
                    and not name.startswith("eps"),
                    finite=cfg.surface_tension > 0.0 or name not in ("bond", "upsilon"))
    return params


def upsilon(cfg: PhysicalConfig) -> float:
    """Practical stability parameter Υ = (ρ̄⁺ρ̄⁻)²(a⁴/H²)(ρ⁺+ρ⁻)g'/(4σ).

    Raises
    ------
    InvalidConfigError
        If σ = 0.  The capillarity-free limit changes the structure of the
        stability criteria and must be handled explicitly rather than
        through Υ = +inf.
    """
    if cfg.surface_tension == 0.0:
        raise InvalidConfigError(
            "upsilon is undefined at sigma = 0; treat the zero-surface-tension "
            "limit (single-fluid reduction) explicitly"
        )
    return derive_params(cfg).upsilon


def practical_verdict(ups: float) -> Verdict:
    """Classify Υ into stable / critical / unstable bands.

    The bands reach one decade on each side of Υ = 1: the practical
    criterion only distinguishes Υ ≪ 1, Υ ∼ 1 and Υ ≫ 1, and anything in
    the middle band requires the exact criterion.  Υ must be >= 0; +inf
    (σ = 0 with ρ⁻ > 0 and a > 0) is unstable.
    """
    _check_real("upsilon", ups, 0.0, finite=False)
    if ups < 0.1:
        return Verdict.STABLE
    if ups > 10.0:
        return Verdict.UNSTABLE
    return Verdict.CRITICAL


def config_from_dimensionless(
    eps: float,
    mu: float,
    rhobar_minus: float,
    depth_ratio: float = 1.0,
    bond: float = math.inf,
    gravity: float = GRAVITY_DEFAULT,
    rho_total: float = 1000.0,
) -> PhysicalConfig:
    """Build a physical configuration realizing the given dimensionless targets.

    Convenient for purely dimensionless experiments: the returned config has
    effective depth H = 1 m and reproduces (ε, μ, ρ̄⁻, H⁺/H⁻, Bo) exactly
    through :func:`derive_params`.
    """
    if not 0.0 <= rhobar_minus < 0.5:
        raise InvalidConfigError(f"rhobar_minus must be in [0, 0.5), got {rhobar_minus}")
    if not (mu > 0.0 and depth_ratio > 0.0 and bond > 0.0):
        raise InvalidConfigError("mu, depth_ratio and bond must be positive")
    rbp = 1.0 - rhobar_minus
    h_eff = 1.0
    hbar_plus = rbp + rhobar_minus * depth_ratio
    hbar_minus = rbp / depth_ratio + rhobar_minus
    lam = h_eff / math.sqrt(mu)
    g_red = (rbp - rhobar_minus) * gravity
    sigma = 0.0 if math.isinf(bond) else rho_total * g_red * _pow(lam, 2) / bond
    return PhysicalConfig(
        rho_plus=rbp * rho_total,
        rho_minus=rhobar_minus * rho_total,
        depth_plus=hbar_plus * h_eff,
        depth_minus=hbar_minus * h_eff,
        amplitude=eps * h_eff,
        wavelength=lam,
        surface_tension=sigma,
        gravity=gravity,
    )


# Case-study presets.  Densities and depths follow the published experiments
# they model; the Koop & Butler interfacial tension is a literature estimate
# for water over Freon TF, not a measured value.
PRESETS = {
    "air_water_long": PhysicalConfig(
        rho_plus=1025.0,
        rho_minus=1.2,
        depth_plus=5.0,
        depth_minus=5.0,
        amplitude=0.1,
        wavelength=35.0,
        surface_tension=0.073,
    ),
    "air_water_breaking": PhysicalConfig(
        rho_plus=1025.0,
        rho_minus=1.2,
        depth_plus=15.0,
        depth_minus=15.0,
        amplitude=6.0,
        wavelength=100.0,
        surface_tension=0.073,
    ),
    # Koop & Butler (1981): deionized water over Freon TF, tank depths in cm.
    "koop_butler": PhysicalConfig(
        rho_plus=1563.0,
        rho_minus=998.0,
        depth_plus=0.01366,
        depth_minus=0.06948,
        amplitude=0.0068,
        wavelength=0.10,
        surface_tension=0.005,
    ),
    # Grue et al.: brine below fresh water, solitary-wave tank.
    "grue": PhysicalConfig(
        rho_plus=1022.0,
        rho_minus=999.0,
        depth_plus=0.62,
        depth_minus=0.15,
        amplitude=0.20,
        wavelength=1.5,
        surface_tension=0.095,
    ),
}
