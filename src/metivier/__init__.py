"""Numerical harmonic analysis on Metivier groups.

Symplectic normal forms of skew-symmetric structure pencils, twisted and
reduced-twist spherical means, Laguerre / special Hermite spectral
decompositions, and injectivity experiments (blockwise reconstruction from
means, one-radius counterexamples, two-radii admissibility and recovery).

METIVIER_THREADS, a positive integer, caps the numeric libraries' thread
pools; it is applied here, before numpy and scipy load.
"""

from ._threads import apply_thread_cap as _apply_thread_cap

try:
    _apply_thread_cap()
except ValueError:
    pass  # metivier.cli reports a bad value as a usage error

from .errors import (
    DependentStructureMatrices,
    DimensionMismatch,
    GridMismatch,
    GridTooCoarse,
    InadmissibleRadii,
    MalformedFile,
    MetivierError,
    NonConvergence,
    NonFiniteValue,
    NotHomogeneous,
    NotSkewSymmetric,
    NoUsableRadius,
    NyquistViolation,
    OutOfDomain,
    RangeExceeded,
    SingularPencil,
    TruncationDominates,
    UnsupportedDimension,
    VersionMismatch,
)
from .fieldio import export_radial_slice_csv, read_field, write_field
from .grids import (
    FieldEvaluator,
    PeriodicField,
    PolarGrid,
    SampledField,
    SphereRule,
    build_sphere_rule,
    default_grid,
    inner_product,
    polar_grid,
    sample,
    sample_periodic,
)
from .injectivity import (
    OneRadiusCounterexample,
    RadialMeasure,
    RadiiVerdict,
    ReconstructionResult,
    TwoRadiiReport,
    WeightedNorm,
    euclidean_mean,
    euclidean_two_radii_invert,
    inadmissible_radius_pair,
    measure_mean,
    measure_mean_at,
    one_radius_counterexample,
    reconstruct_from_means,
    reconstruct_from_measure_mean,
    two_radii_check,
    two_radii_reconstruct,
    weighted_norm,
)
from .special import (
    BesselZeroTable,
    LaguerreZeroTable,
    bessel_j,
    bessel_zeros,
    hermite_h,
    laguerre_L,
    laguerre_zeros,
    mean_factor,
    phi_k,
    psi_alpha,
    psi_alpha_beta,
    special_hermite_1d,
    theta_k,
)
from .structures import (
    MetivierReport,
    MetivierStructure,
    SymplecticSpectrum,
    builtin_structure,
    complex_from_real,
    lambda_prime_of,
    metivier_check,
    read_structure,
    real_from_complex,
    rotate_field,
    symplectic_spectrum,
    v_lambda,
    validate_structure,
    write_structure,
)
from .transforms import (
    HermiteCoefficients,
    apply_twisted_laplacian,
    decompose,
    fourier_coefficient_center,
    homogeneous_projection_expand,
    joint_homogeneity_modes,
    m_radialize,
    matrix_coefficient,
    mean_eigenvalue,
    modified_twisted_mean_at,
    read_spectrum,
    reduced_mean,
    reduced_mean_at,
    spectral_projection,
    synthesize,
    twisted_convolution,
    twisted_convolution_at,
    twisted_mean,
    twisted_mean_at,
    write_spectrum,
)

__version__ = "0.1.0"
