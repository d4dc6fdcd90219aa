"""Two-layer interfacial waves: operators, stability criteria, and solvers."""

from .errors import (
    DegenerateGeometryError,
    IncompatibleDataError,
    InvalidConfigError,
    NumericalError,
    TwoFluidError,
)
from .params import (
    DimensionlessParams,
    PhysicalConfig,
    PRESETS,
    Verdict,
    config_from_dimensionless,
    derive_params,
    practical_verdict,
    upsilon,
)
from .spectral import (
    PeriodicGrid,
    antideriv,
    apply_multiplier,
    apply_symbol,
    dealias,
    dealias_mask,
    deriv,
    inner,
    norm_hdot_mu,
    norm_sobolev,
)
from .strip import (
    StripOperator,
    StripSolution,
    dn_apply,
)
from .operators import (
    InterfaceState,
    TraceBundle,
    apply_g_tilde,
    apply_j,
    e_quadratic_form,
    invert_g_tilde,
    invert_j,
    transmission_solve,
    transmission_tangent,
)
from .symbols import (
    TailReport,
    TailSymbolSet,
    ratio_symbol_error,
    tail_error_report,
)
from .stability import (
    FlatConstant,
    MarginResult,
    StabilityInputs,
    StabilityReport,
    a_field,
    c_flat,
    criteria_from_scalars,
    e_coeff,
    evaluate_criteria,
    ins_form,
    modewise_margin,
    monitor_criterion,
    stability_inputs,
)
from .kelvin import (
    ShearConfig,
    critical_shear,
    kelvin_criterion_threshold,
    max_growth,
    mode_growth,
)
from .evolution import (
    EvolutionConfig,
    TimeSeries,
    cfl_cap,
    rhs,
    rk4_step,
    run,
    tendency,
)
from .swsw import (
    ComparisonTable,
    SWSeries,
    SWState,
    compare_with_full,
    flux,
    fv_step,
    heights,
    hyperbolicity_indicator,
    run_swsw,
)

__version__ = "0.1.0"
