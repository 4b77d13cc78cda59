"""Desk-scale numerical laboratory for nonlocal phase transitions."""

from .fields import (
    BallRegion,
    ConstantExterior,
    FieldExterior,
    Grid,
    IndicatorSet,
    Periodic,
    ScalarField,
    embed_profile,
    evaluate_field,
    gradient_l1_norm,
    hausdorff_distance,
    l1_distance,
    level_set,
    load_field,
    make_grid,
    rescale_blowdown,
    save_field,
)
from .kernels import (
    KernelSpec,
    apply_laplacian,
    apply_quadrature,
    apply_spectral,
    kernel_value,
    operator_consistency,
)
from .energies import (
    EnergyBreakdown,
    Potential,
    VariationMap,
    domain_variation,
    energy_breakdown,
    fractional_perimeter,
    maxmin_residual,
    perimeter_identity_residual,
    potential_energy,
    sobolev_energy,
    translation_comparison,
)
from .solver import (
    SolveResult,
    euler_lagrange_consistency,
    gradient_flow,
    residual_field,
    solve_layer_1d,
)
from .stability import (
    StabilityReport,
    VectorFieldSpec,
    flow_map,
    gradient_test_inequality,
    min_rayleigh,
    perimeter_stability_quotients,
    second_variation,
)
from .extension import (
    ExtensionField,
    MonotonicityTrace,
    extend,
    extend_by_weighted_solve,
    extension_constant,
    extension_energy,
    halfspace_extension,
    monotonicity_trace,
    neumann_trace_residual,
)
from .scaling import (
    DensityCheckConfig,
    FitResult,
    ScalingExperiment,
    blowdown_convergence,
    bv_scaling,
    density_check,
    fit_loglog,
    flatness_profile,
    full_energy_scaling,
    interpolation_check,
    layer_decay,
    potential_decay,
    potential_vs_sobolev,
    sobolev_scaling,
)

_CLI_NAMES = ("RunConfig", "RunReport", "report_merge", "run")


def __getattr__(name):
    # the CLI loads on first use, so `python -m fracac.cli` runs a fresh module
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_CLI_NAMES)
__version__ = "0.1.0"
