"""Model persistence: structured JSON with explicit real/imaginary arrays.

A saved file carries the algorithm tag, fit metadata (tolerance, embedding
depth, augmentation, residuals, dictionary or kernel spec string), and every
matrix the fitted model needs, each as {rows, cols, real, imag} in row-major
order. Floats are written with 17 significant digits, which round-trips every
double exactly: save -> load -> save is byte-identical and loaded models
reproduce the original predictions to machine precision.

Reading uses the stdlib json parser. The stdlib encoder offers no hook for
fixed-precision float text, so writing renders the payload here: each matrix
stays a numpy array until its ``real`` or ``imag`` list is converted as a
whole by ``_text.float_texts`` and joined once, and the file is written piece
by piece rather than built as one string.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._text import float_texts
from .dmd import CompanionFit, KoopmanModel
from .edmd import EdmdModel
from .errors import ConfigError, DataError
from .kernel_edmd import KernelModel
from .linalg import EigenPairs, SvdFactors
from .observables import RbfDictionary, build_dictionary, parse_kernel

SCHEMA_VERSION = 1

_ALGORITHMS = ("companion", "dmd", "edmd", "kernel-edmd")


@dataclass(frozen=True)
class ModelRecord:
    """A fitted model plus the metadata needed to reuse it from disk."""

    algorithm: str
    model: object
    rtol: float
    embed_h: int = 1
    augment_inputs: bool = False
    residuals: dict = field(default_factory=dict)
    companion_modes: np.ndarray | None = None
    # Column split (n_states, n_inputs, n_disturbances) of one raw data row,
    # recorded so embedded or augmented models can rebuild their stacked
    # observable from plain history rows at prediction time.
    base_split: tuple | None = None

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm tag {self.algorithm!r}; expected one of "
                f"{', '.join(_ALGORITHMS)}"
            )
        if self.algorithm == "companion" and self.companion_modes is None:
            raise ConfigError("companion records need the mode matrix to predict")

    @property
    def observable_dim(self) -> int:
        if self.algorithm == "companion":
            return int(self.companion_modes.shape[0])
        if self.algorithm == "kernel-edmd":
            return int(self.model.training_x.shape[0])
        return int(self.model.observable_dim)


# ------------------------------------------------------------ text rendering


def _render(value, indent: int):
    """Yield the JSON text of ``value`` in pieces; matrices arrive as arrays."""
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        pad = "  " * indent
        sep = "{\n"
        for k, v in value.items():
            yield f"{sep}{pad}  {json.dumps(str(k))}: "
            yield from _render(v, indent + 1)
            sep = ",\n"
        yield "\n" + pad + "}"
    elif isinstance(value, np.ndarray):
        yield "[" + ", ".join(float_texts(value)) + "]"
    elif isinstance(value, (list, tuple)):
        yield "[" + ", ".join("".join(_render(v, indent)) for v in value) + "]"
    elif value is None:
        yield "null"
    elif isinstance(value, (bool, np.bool_)):
        yield "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise DataError("model files cannot encode non-finite numbers")
        yield float_texts(float(value) + 0.0)[0]
    elif isinstance(value, str):
        yield json.dumps(value)
    else:
        raise DataError(f"cannot encode {type(value).__name__} in a model file")


def _encode_matrix(m) -> dict:
    m = np.asarray(m)
    if m.ndim == 1:
        m = m[None, :]
    # Adding +0.0 turns negative zeros into positive ones; "-0" would parse
    # back as the integer 0 and break byte-identical re-saves.
    re = np.real(m).astype(float) + 0.0
    im = np.imag(m).astype(float) + 0.0
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise DataError("model matrices must be finite")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "real": re.ravel(),
        "imag": im.ravel(),
    }


def _decode_matrix(obj, name: str, want_complex: bool) -> np.ndarray:
    if not isinstance(obj, dict):
        raise DataError(f"matrix {name!r} is not an object")
    for key in ("rows", "cols", "real", "imag"):
        if key not in obj:
            raise DataError(f"matrix {name!r} is missing key {key!r}")
    rows, cols = int(obj["rows"]), int(obj["cols"])
    try:
        re = np.asarray(obj["real"], dtype=float).reshape(rows, cols)
        im = np.asarray(obj["imag"], dtype=float).reshape(rows, cols)
    except ValueError as err:
        raise DataError(f"matrix {name!r} has inconsistent shape data: {err}") from err
    if want_complex:
        return re + 1j * im
    if np.any(im != 0.0):
        raise DataError(f"matrix {name!r} must be real but has imaginary entries")
    return re


def _vector(matrix: np.ndarray) -> np.ndarray:
    if matrix.shape[0] != 1:
        raise DataError("expected a single-row vector encoding")
    return matrix[0]


# ------------------------------------------------------------- save pathways


def _matrices_for(record: ModelRecord) -> tuple[dict, dict]:
    """Algorithm-specific matrix table and extra fit metadata."""
    model = record.model
    if record.algorithm == "companion":
        if not isinstance(model, CompanionFit):
            raise ConfigError("companion records must wrap a CompanionFit")
        matrices = {
            "c_matrix": _encode_matrix(model.c_matrix),
            "eigenvalues": _encode_matrix(model.eigenvalues),
            "vandermonde_t": _encode_matrix(model.vandermonde_t),
            "modes": _encode_matrix(record.companion_modes),
        }
        return matrices, {"window": int(model.window)}
    if record.algorithm == "dmd":
        if not isinstance(model, KoopmanModel):
            raise ConfigError("dmd records must wrap a KoopmanModel")
        matrices = {
            "k_hat": _encode_matrix(model.k_hat),
            "eigenvalues": _encode_matrix(model.eigenvalues),
            "eigenvectors_p": _encode_matrix(model.eigenvectors_p),
            "modes_v": _encode_matrix(model.modes_v),
            "svd_u": _encode_matrix(model.svd.u),
            "svd_sigma": _encode_matrix(model.svd.sigma),
            "svd_w": _encode_matrix(model.svd.w),
        }
        return matrices, {"observable_dim": int(model.observable_dim)}
    if record.algorithm == "edmd":
        if not isinstance(model, EdmdModel):
            raise ConfigError("edmd records must wrap an EdmdModel")
        matrices = {
            "k_hat": _encode_matrix(model.k_hat),
            "eigenvalues": _encode_matrix(model.eigenvalues),
            "eigenvectors_p": _encode_matrix(model.eigen.vectors),
            "b_coeffs": _encode_matrix(model.b_coeffs),
            "d_coeffs": _encode_matrix(model.d_coeffs),
            "svd_u": _encode_matrix(model.svd.u),
            "svd_sigma": _encode_matrix(model.svd.sigma),
            "svd_w": _encode_matrix(model.svd.w),
        }
        if model.modes_v is not None:
            matrices["modes_v"] = _encode_matrix(model.modes_v)
        extra = {
            "observable_dim": int(model.observable_dim),
            "dictionary": model.dictionary.spec_string(),
        }
        if isinstance(model.dictionary, RbfDictionary):
            matrices["dict_centers"] = _encode_matrix(model.dictionary.centers)
        return matrices, extra
    if not isinstance(model, KernelModel):
        raise ConfigError("kernel-edmd records must wrap a KernelModel")
    matrices = {
        "g_gram": _encode_matrix(model.g_gram),
        "a_gram": _encode_matrix(model.a_gram),
        "q_eigvecs": _encode_matrix(model.q_eigvecs),
        "sigma": _encode_matrix(model.sigma),
        "k_hat_u": _encode_matrix(model.k_hat_u),
        "eigenvalues": _encode_matrix(model.eigenvalues),
        "eigenvectors_v": _encode_matrix(model.eigen.vectors),
        "v_inv": _encode_matrix(model.v_inv),
        "training_x": _encode_matrix(model.training_x),
        "modes": _encode_matrix(model.modes),
    }
    return matrices, {"kernel": model.kernel.spec_string()}


def save_model(record: ModelRecord, path) -> None:
    """Write the record as schema-versioned JSON (17 significant digits)."""
    matrices, extra = _matrices_for(record)
    fit_meta = {
        "rtol": float(record.rtol),
        "embed_h": int(record.embed_h),
        "augment_inputs": bool(record.augment_inputs),
        "residuals": {str(k): float(v) for k, v in record.residuals.items()},
    }
    fit_meta.update(extra)
    if record.base_split is not None:
        fit_meta["base_split"] = [int(v) for v in record.base_split]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": record.algorithm,
        "fit": fit_meta,
        "flags": list(getattr(record.model, "flags", ())),
        "matrices": matrices,
    }
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_render(payload, 0))
            handle.write("\n")
    except DataError:
        # the file is written piece by piece; leave none half written
        os.remove(path)
        raise


# ------------------------------------------------------------- load pathways


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise DataError(f"model file is missing {where} key {key!r}")
    return obj[key]


def _load_companion(matrices, fit_meta):
    model = CompanionFit(
        c_matrix=_decode_matrix(_require(matrices, "c_matrix", "matrix"), "c_matrix", False),
        eigenvalues=_vector(_decode_matrix(_require(matrices, "eigenvalues", "matrix"),
                                           "eigenvalues", True)),
        vandermonde_t=_decode_matrix(_require(matrices, "vandermonde_t", "matrix"),
                                     "vandermonde_t", True),
        window=int(_require(fit_meta, "window", "fit")),
    )
    modes = _decode_matrix(_require(matrices, "modes", "matrix"), "modes", True)
    return model, modes


def _load_svd(matrices) -> SvdFactors:
    return SvdFactors(
        u=_decode_matrix(_require(matrices, "svd_u", "matrix"), "svd_u", False),
        sigma=_vector(_decode_matrix(_require(matrices, "svd_sigma", "matrix"),
                                     "svd_sigma", False)),
        w=_decode_matrix(_require(matrices, "svd_w", "matrix"), "svd_w", False),
    )


def _load_dmd(matrices, fit_meta, flags, residuals):
    return KoopmanModel(
        k_hat=_decode_matrix(_require(matrices, "k_hat", "matrix"), "k_hat", False),
        eigenvalues=_vector(_decode_matrix(_require(matrices, "eigenvalues", "matrix"),
                                           "eigenvalues", True)),
        eigenvectors_p=_decode_matrix(_require(matrices, "eigenvectors_p", "matrix"),
                                      "eigenvectors_p", True),
        modes_v=_decode_matrix(_require(matrices, "modes_v", "matrix"), "modes_v", True),
        svd=_load_svd(matrices),
        observable_dim=int(_require(fit_meta, "observable_dim", "fit")),
        fit_residual=float(residuals.get("training", 0.0)),
        flags=flags,
    )


def _load_edmd(matrices, fit_meta, flags, residuals):
    spec = _require(fit_meta, "dictionary", "fit")
    input_dim = int(_require(fit_meta, "observable_dim", "fit"))
    if isinstance(spec, str) and spec.startswith("rbf:"):
        width = float(spec.split(":")[1])
        centers = _decode_matrix(_require(matrices, "dict_centers", "matrix"),
                                 "dict_centers", False)
        dictionary = RbfDictionary(centers, width)
    else:
        dictionary = build_dictionary(spec, input_dim)
    modes_v = None
    if "modes_v" in matrices:
        modes_v = _decode_matrix(matrices["modes_v"], "modes_v", True)
    values = _vector(_decode_matrix(_require(matrices, "eigenvalues", "matrix"),
                                    "eigenvalues", True))
    vectors = _decode_matrix(_require(matrices, "eigenvectors_p", "matrix"),
                             "eigenvectors_p", True)
    return EdmdModel(
        dictionary=dictionary,
        k_hat=_decode_matrix(_require(matrices, "k_hat", "matrix"), "k_hat", False),
        eigen=EigenPairs(values=values, vectors=vectors),
        b_coeffs=_decode_matrix(_require(matrices, "b_coeffs", "matrix"), "b_coeffs", True),
        d_coeffs=_decode_matrix(_require(matrices, "d_coeffs", "matrix"), "d_coeffs", False),
        modes_v=modes_v,
        svd=_load_svd(matrices),
        lifted_residual=float(residuals.get("lifted", 0.0)),
        d_residual=float(residuals.get("observable", 0.0)),
        observable_dim=input_dim,
        flags=flags,
    )


def _load_kernel(matrices, fit_meta, flags, residuals):
    values = _vector(_decode_matrix(_require(matrices, "eigenvalues", "matrix"),
                                    "eigenvalues", True))
    vectors = _decode_matrix(_require(matrices, "eigenvectors_v", "matrix"),
                             "eigenvectors_v", True)
    return KernelModel(
        kernel=parse_kernel(_require(fit_meta, "kernel", "fit")),
        g_gram=_decode_matrix(_require(matrices, "g_gram", "matrix"), "g_gram", False),
        a_gram=_decode_matrix(_require(matrices, "a_gram", "matrix"), "a_gram", False),
        q_eigvecs=_decode_matrix(_require(matrices, "q_eigvecs", "matrix"),
                                 "q_eigvecs", False),
        sigma=_vector(_decode_matrix(_require(matrices, "sigma", "matrix"), "sigma", False)),
        k_hat_u=_decode_matrix(_require(matrices, "k_hat_u", "matrix"), "k_hat_u", False),
        eigen=EigenPairs(values=values, vectors=vectors),
        v_inv=_decode_matrix(_require(matrices, "v_inv", "matrix"), "v_inv", True),
        training_x=_decode_matrix(_require(matrices, "training_x", "matrix"),
                                  "training_x", False),
        modes=_decode_matrix(_require(matrices, "modes", "matrix"), "modes", True),
        fit_residual=float(residuals.get("training", 0.0)),
        flags=flags,
    )


def load_model(path) -> ModelRecord:
    """Read a model file, checking the schema version before anything else."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise DataError(f"cannot read model file: {err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"model file is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise DataError("model file must contain a JSON object")
    version = _require(payload, "schema_version", "top-level")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"model file schema_version {version} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    algorithm = _require(payload, "algorithm", "top-level")
    if algorithm not in _ALGORITHMS:
        raise DataError(f"unknown algorithm tag {algorithm!r} in model file")
    fit_meta = _require(payload, "fit", "top-level")
    matrices = _require(payload, "matrices", "top-level")
    flags = tuple(payload.get("flags", []))
    residuals = {str(k): float(v) for k, v in _require(fit_meta, "residuals", "fit").items()}

    companion_modes = None
    if algorithm == "companion":
        model, companion_modes = _load_companion(matrices, fit_meta)
    elif algorithm == "dmd":
        model = _load_dmd(matrices, fit_meta, flags, residuals)
    elif algorithm == "edmd":
        model = _load_edmd(matrices, fit_meta, flags, residuals)
    else:
        model = _load_kernel(matrices, fit_meta, flags, residuals)

    split = fit_meta.get("base_split")
    return ModelRecord(
        algorithm=algorithm,
        model=model,
        rtol=float(_require(fit_meta, "rtol", "fit")),
        embed_h=int(_require(fit_meta, "embed_h", "fit")),
        augment_inputs=bool(_require(fit_meta, "augment_inputs", "fit")),
        residuals=residuals,
        companion_modes=companion_modes,
        base_split=tuple(int(v) for v in split) if split is not None else None,
    )
