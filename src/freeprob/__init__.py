"""Computational free probability for a single selfadjoint variable.

The package computes logarithmic energies of compactly supported
spectral measures, Voiculescu's free entropy, the free Hausdorff
dimension, and two-sided bounds on the free Hausdorff entropy, together
with the diagonal microstate constructions and Selberg-integral
asymptotics those bounds rest on.
"""

__version__ = "0.1.0"

# Nothing in the package calls _quad, but the benchmark's tracer
# (perfbench/tracing.py) looks its functions up in sys.modules after
# importing freeprob.cli, so the package still loads it.
from . import _quad  # noqa: F401

from .asymptotics import (
    GAMMA_RATIO_LIMIT,
    GammaSeries,
    SelbergMonteCarlo,
    gamma_ratio_limit_series,
    log_ball_volume,
    log_gamma,
    mehta_log_density,
    selberg_log,
    selberg_mc_check,
)
from .energy import (
    EnergyComponents,
    EnergyResult,
    offdiag_energy,
    regularized_energy,
)
from .entropy import (
    CHI_SHIFT,
    FORMULAS,
    EntropyBounds,
    FamilyBounds,
    chi,
    dimension_truncation_bound,
    family_constants,
    free_family_bounds,
    free_hausdorff_dimension,
    h1_identity,
    hausdorff_entropy_bounds,
    sandwich_width,
)
from .measures import (
    Atom,
    DiffusePart,
    MeasureSpecError,
    SpectralMeasure,
    ValidationReport,
    affine_pushforward,
    arcsine_measure,
    atomic_measure,
    diffuse_quantile,
    diffuse_quantile_batch,
    dump_measure,
    example42_measure,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    semicircle_measure,
    truncate_atoms,
    uniform_measure,
    validate,
)
from .microstates import (
    CountingCheck,
    DiagonalMicrostate,
    NoSolutionError,
    PairPartition,
    SeriesReport,
    build_lower_microstate,
    build_upper_microstate,
    offdiag_sum_series,
    packing_constant_log,
    packing_constant_series,
    packing_series_target,
    pair_partition,
    regularized_product_series,
    sk_counting_check,
    volume_upper_bound_log,
)

__all__ = [
    "__version__",
    # asymptotics
    "GAMMA_RATIO_LIMIT",
    "GammaSeries",
    "SelbergMonteCarlo",
    "gamma_ratio_limit_series",
    "log_ball_volume",
    "log_gamma",
    "mehta_log_density",
    "selberg_log",
    "selberg_mc_check",
    # energy
    "EnergyComponents",
    "EnergyResult",
    "offdiag_energy",
    "regularized_energy",
    # entropy
    "CHI_SHIFT",
    "FORMULAS",
    "EntropyBounds",
    "FamilyBounds",
    "chi",
    "dimension_truncation_bound",
    "family_constants",
    "free_family_bounds",
    "free_hausdorff_dimension",
    "h1_identity",
    "hausdorff_entropy_bounds",
    "sandwich_width",
    # measures
    "Atom",
    "DiffusePart",
    "MeasureSpecError",
    "SpectralMeasure",
    "ValidationReport",
    "affine_pushforward",
    "arcsine_measure",
    "atomic_measure",
    "diffuse_quantile",
    "diffuse_quantile_batch",
    "dump_measure",
    "example42_measure",
    "load_measure",
    "measure_from_dict",
    "measure_to_dict",
    "semicircle_measure",
    "truncate_atoms",
    "uniform_measure",
    "validate",
    # microstates
    "CountingCheck",
    "DiagonalMicrostate",
    "NoSolutionError",
    "PairPartition",
    "SeriesReport",
    "build_lower_microstate",
    "build_upper_microstate",
    "offdiag_sum_series",
    "packing_constant_log",
    "packing_constant_series",
    "packing_series_target",
    "pair_partition",
    "regularized_product_series",
    "sk_counting_check",
    "volume_upper_bound_log",
]
