"""Koopman spectral analysis of snapshot time series.

Fits finite-dimensional Koopman operator approximations from data by
companion-matrix DMD, SVD-based DMD (with optional delay embedding and
input augmentation), explicit EDMD over observable dictionaries, and
kernel EDMD. Every fitter returns a ``SpectralModel``: eigenvalues, modes,
and a map from features (the state, its dictionary lift, or its kernel row
against the training data) to eigenfunction values. One
``eigenfunction_values``, one ``predict`` and one ``full_operator`` serve
every model, and ``save_model`` writes them all in one file layout.
"""

from importlib import import_module

# Each public name and the submodule that defines it. Nothing is imported
# here: ``dmdkit.X`` and ``from dmdkit import X`` load X's module on first use
# (PEP 562), so a caller pays only for the modules it touches.
_EXPORTS = {
    "data": (
        "SnapshotPair", "Trajectory", "concat_pairs", "delay_embed", "load_trajectory",
        "save_trajectory", "snapshot_pairs",
    ),
    "dmd": (
        "SpectralModel", "eigenfunction_values", "embedding_sweep", "fit_companion",
        "fit_svd_dmd", "full_operator", "predict",
    ),
    "edmd": ("fit_edmd", "lift_snapshots"),
    "errors": (
        "ConditioningError", "ConfigError", "DataError", "DivergenceError",
        "DmdkitError", "EmptyRankError", "NumericalError", "ShapeError",
    ),
    "kernel_edmd": ("fit_kernel_edmd",),
    "linalg": (
        "DEFAULT_RTOL", "EigenPairs", "SvdFactors", "conjugate_pairs", "eig", "svd_truncated",
    ),
    "model_io": ("SCHEMA_VERSION", "load_model", "save_model"),
    "observables": (
        "CustomDictionary", "Dictionary", "GaussianKernel", "IdentityDictionary",
        "Kernel", "KernelDictionary", "LaplacianKernel", "PolynomialDictionary",
        "PolynomialKernel", "build_dictionary", "parse_kernel", "strided_centers",
    ),
    "systems": (
        "ExactLift", "SystemSpec", "exact_lift_oracle", "forced_linear_system",
        "linear_system", "quadratic_system", "rotation_system", "simulate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, e.g. dmdkit.dmd
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
