"""Koopman spectral analysis of snapshot time series.

Fits finite-dimensional Koopman operator approximations from data by
companion-matrix DMD, SVD-based DMD (with optional delay embedding and
input augmentation), explicit EDMD over observable dictionaries, and
kernel EDMD, exposing spectra, eigenfunctions, modes, and multi-step
spectral prediction.

The three eigenfunction evaluators share the name ``eigenfunction_values``
and live in their modules: ``dmd``, ``edmd``, and ``kernel_edmd``.
"""

from .data import (
    EmbeddedTrajectory,
    SnapshotPair,
    Trajectory,
    concat_pairs,
    delay_embed,
    load_trajectory,
    save_trajectory,
    snapshot_pairs,
)
from .dmd import (
    CompanionFit,
    KoopmanModel,
    companion_modes,
    embedding_sweep,
    fit_companion,
    fit_svd_dmd,
    full_operator,
    predict,
)
from .edmd import EdmdModel, edmd_predict, eval_eigenfunction, fit_edmd, lift_snapshots
from .errors import (
    ConditioningError,
    ConfigError,
    DataError,
    DivergenceError,
    DmdkitError,
    EmptyRankError,
    NumericalError,
    ShapeError,
)
from .kernel_edmd import (
    KernelModel,
    fit_kernel_edmd,
    gram_matrices,
    kernel_eigenfunction,
    kernel_predict,
)
from .linalg import DEFAULT_RTOL, EigenPairs, SvdFactors, eig, pinv, svd_truncated
from .model_io import SCHEMA_VERSION, ModelRecord, load_model, save_model
from .observables import (
    CustomDictionary,
    Dictionary,
    GaussianKernel,
    IdentityDictionary,
    Kernel,
    LaplacianKernel,
    PolynomialDictionary,
    PolynomialKernel,
    RbfDictionary,
    build_dictionary,
    parse_kernel,
    strided_centers,
)
from .systems import (
    ExactLift,
    SystemSpec,
    exact_lift_oracle,
    forced_linear_system,
    linear_system,
    quadratic_system,
    rotation_system,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "CompanionFit",
    "ConditioningError",
    "ConfigError",
    "CustomDictionary",
    "DataError",
    "DEFAULT_RTOL",
    "Dictionary",
    "DivergenceError",
    "DmdkitError",
    "EdmdModel",
    "EigenPairs",
    "EmbeddedTrajectory",
    "EmptyRankError",
    "ExactLift",
    "GaussianKernel",
    "IdentityDictionary",
    "Kernel",
    "KernelModel",
    "KoopmanModel",
    "LaplacianKernel",
    "ModelRecord",
    "NumericalError",
    "PolynomialDictionary",
    "PolynomialKernel",
    "RbfDictionary",
    "SCHEMA_VERSION",
    "ShapeError",
    "SnapshotPair",
    "SvdFactors",
    "SystemSpec",
    "Trajectory",
    "build_dictionary",
    "companion_modes",
    "concat_pairs",
    "delay_embed",
    "edmd_predict",
    "eig",
    "embedding_sweep",
    "eval_eigenfunction",
    "exact_lift_oracle",
    "fit_companion",
    "fit_edmd",
    "fit_kernel_edmd",
    "fit_svd_dmd",
    "forced_linear_system",
    "full_operator",
    "gram_matrices",
    "kernel_eigenfunction",
    "kernel_predict",
    "lift_snapshots",
    "linear_system",
    "load_model",
    "load_trajectory",
    "parse_kernel",
    "pinv",
    "predict",
    "quadratic_system",
    "rotation_system",
    "save_model",
    "save_trajectory",
    "simulate",
    "snapshot_pairs",
    "strided_centers",
    "svd_truncated",
]
