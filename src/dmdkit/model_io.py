"""Model persistence: structured JSON with explicit real/imaginary arrays.

A saved file carries the algorithm tag, fit metadata (tolerance, embedding
depth, augmentation, residuals, dictionary or kernel spec string), and the
matrices a loaded model reads to print its spectrum, forecast and evaluate
eigenfunctions. Each matrix is {rows, cols, real, imag} in row-major order,
with ``imag`` left out when every imaginary entry is zero. Schema version 2
stores, per algorithm (``_LAYOUTS``):

* dmd: k_hat, eigenvalues, eigenvectors_p, modes_v, svd_u, svd_sigma;
* edmd: the same less modes_v, then b_coeffs, d_coeffs, modes_v (absent when
  the eigenvector basis was singular) and dict_centers (rbf dictionaries);
* kernel-edmd: q_eigvecs, sigma, k_hat_u, eigenvalues, v_inv, training_x,
  modes;
* companion: c_matrix, eigenvalues, vandermonde_t, modes.

What only the fit uses (right singular vectors, Gram matrices, the kernel
fit's right eigenvectors) is not stored. Floats are written with 17
significant digits, which round-trips every double exactly: save -> load ->
save is byte-identical and loaded models reproduce the original predictions
bit for bit.

Reading uses the stdlib json parser with NaN and Infinity refused, then
checks every field's type, every number's finiteness, and that the matrix
shapes agree with each other and with the fit metadata, so a damaged file
raises ``DataError`` rather than failing later or forecasting wrongly.

The stdlib encoder offers no hook for fixed-precision float text, so writing
renders the payload here. Each matrix stays a numpy array until ``_text``
turns its ``real`` or ``imag`` list into text, at most ``_text._CHUNK_VALUES``
numbers at a time, and the file is written piece by piece rather than built
as one string.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._text import float_texts, joined_pieces
from .dmd import CompanionFit, KoopmanModel
from .edmd import EdmdModel
from .errors import ConfigError, DataError, ShapeError
from .kernel_edmd import KernelModel
from .linalg import EigenPairs
from .observables import RbfDictionary, build_dictionary, parse_kernel

SCHEMA_VERSION = 2

_ALGORITHMS = ("companion", "dmd", "edmd", "kernel-edmd")

# Stored matrices per algorithm, in file order: name -> (rows, cols, complex).
# A letter is a size every matrix of the file must agree on (see _DIMENSIONS);
# a row count of 1 marks a vector, which loads as 1-D.
_LAYOUTS = {
    "companion": {
        "c_matrix": ("w", "w", False),
        "eigenvalues": (1, "w", True),
        "vandermonde_t": ("w", "w", True),
        "modes": ("n", "w", True),
    },
    "dmd": {
        "k_hat": ("r", "r", False),
        "eigenvalues": (1, "r", True),
        "eigenvectors_p": ("r", "r", True),
        "modes_v": ("n", "r", True),
        "svd_u": ("n", "r", False),
        "svd_sigma": (1, "r", False),
    },
    "edmd": {
        "k_hat": ("r", "r", False),
        "eigenvalues": (1, "r", True),
        "eigenvectors_p": ("r", "r", True),
        "b_coeffs": ("r", "r", True),
        "d_coeffs": ("n", "f", False),
        "svd_u": ("f", "r", False),
        "svd_sigma": (1, "r", False),
        "modes_v": ("n", "r", True),
        "dict_centers": ("f", "n", False),
    },
    "kernel-edmd": {
        "q_eigvecs": ("m", "r", False),
        "sigma": (1, "r", False),
        "k_hat_u": ("r", "r", False),
        "eigenvalues": (1, "r", True),
        "v_inv": ("r", "r", True),
        "training_x": ("n", "m", False),
        "modes": ("n", "r", True),
    },
}
_OPTIONAL = {"edmd": ("modes_v", "dict_centers")}
_DIMENSIONS = {
    "r": "eigenvalue count",
    "n": "observable dimension",
    "w": "companion window",
    "f": "dictionary size",
    "m": "training snapshot count",
}


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
        yield "["
        yield from joined_pieces(value, ", ")
        yield "]"
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
    out = {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "real": re.ravel()}
    if np.any(im):
        out["imag"] = im.ravel()
    return out


def _count(value, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DataError(f"model file {what} must be an integer >= {minimum}, "
                        f"got {value!r:.40}")
    return value


def _number(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value)):
        raise DataError(f"model file {what} must be a finite number, got {value!r:.40}")
    return float(value)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"model file {what} must be a string, got {value!r:.40}")
    return value


def _numbers(values, name: str, key: str, count: int) -> np.ndarray:
    """The list ``values`` as a float array of ``count`` finite entries."""
    # without a dtype, a string entry shows in arr.dtype; dtype=float would
    # convert "1.5" silently
    arr = np.array(values if isinstance(values, list) else None)
    if arr.dtype.kind not in "iuf" or arr.shape != (count,):
        raise DataError(f"matrix {name!r} {key} must be a list of {count} numbers")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise DataError(f"matrix {name!r} {key} has non-finite entries")
    return arr


def _decode_matrix(obj, name: str, want_complex: bool) -> np.ndarray:
    if not isinstance(obj, dict):
        raise DataError(f"matrix {name!r} is not an object")
    for key in ("rows", "cols", "real"):
        if key not in obj:
            raise DataError(f"matrix {name!r} is missing key {key!r}")
    rows = _count(obj["rows"], f"matrix {name!r} rows")
    cols = _count(obj["cols"], f"matrix {name!r} cols")
    re = _numbers(obj["real"], name, "real", rows * cols).reshape(rows, cols)
    if "imag" not in obj:
        return re.astype(complex) if want_complex else re
    im = _numbers(obj["imag"], name, "imag", rows * cols).reshape(rows, cols)
    if want_complex:
        return re + 1j * im
    if np.any(im != 0.0):
        raise DataError(f"matrix {name!r} must be real but has imaginary entries")
    return re


def _decode_matrices(algorithm: str, matrices: dict, dims: dict) -> dict:
    """Decode the algorithm's stored matrices, checking their shapes agree.

    ``dims`` maps the layout letters fixed by the fit metadata to sizes;
    every other letter takes its size from the first matrix that has it.
    """
    out = {}
    for name, (rows, cols, want_complex) in _LAYOUTS[algorithm].items():
        if name not in matrices:
            if name in _OPTIONAL.get(algorithm, ()):
                continue
            raise DataError(f"model file is missing matrix key {name!r}")
        m = _decode_matrix(matrices[name], name, want_complex)
        for letter, size in zip((rows, cols), m.shape):
            named = isinstance(letter, str)
            expected = dims.setdefault(letter, size) if named else letter
            if size != expected:
                what = _DIMENSIONS[letter] if named else "row count"
                raise DataError(
                    f"matrix {name!r} is {m.shape[0]}x{m.shape[1]}, which does not "
                    f"match the model's {what} of {expected}"
                )
        out[name] = m[0] if rows == 1 else m
    return out


# ------------------------------------------------------------- save pathways


def _arrays_for(record: ModelRecord) -> tuple[dict, dict]:
    """Algorithm-specific arrays by stored name, and extra fit metadata."""
    model = record.model
    if record.algorithm == "companion":
        if not isinstance(model, CompanionFit):
            raise ConfigError("companion records must wrap a CompanionFit")
        arrays = {
            "c_matrix": model.c_matrix,
            "eigenvalues": model.eigenvalues,
            "vandermonde_t": model.vandermonde_t,
            "modes": record.companion_modes,
        }
        return arrays, {"window": int(model.window)}
    if record.algorithm == "dmd":
        if not isinstance(model, KoopmanModel):
            raise ConfigError("dmd records must wrap a KoopmanModel")
        arrays = {
            "k_hat": model.k_hat,
            "eigenvalues": model.eigenvalues,
            "eigenvectors_p": model.eigenvectors_p,
            "modes_v": model.modes_v,
            "svd_u": model.svd_u,
            "svd_sigma": model.svd_sigma,
        }
        return arrays, {"observable_dim": int(model.observable_dim)}
    if record.algorithm == "edmd":
        if not isinstance(model, EdmdModel):
            raise ConfigError("edmd records must wrap an EdmdModel")
        arrays = {
            "k_hat": model.k_hat,
            "eigenvalues": model.eigenvalues,
            "eigenvectors_p": model.eigenvectors_p,
            "b_coeffs": model.b_coeffs,
            "d_coeffs": model.d_coeffs,
            "svd_u": model.svd_u,
            "svd_sigma": model.svd_sigma,
            "modes_v": model.modes_v,
        }
        if isinstance(model.dictionary, RbfDictionary):
            arrays["dict_centers"] = model.dictionary.centers
        extra = {
            "observable_dim": int(model.observable_dim),
            "dictionary": model.dictionary.spec_string(),
        }
        return arrays, extra
    if not isinstance(model, KernelModel):
        raise ConfigError("kernel-edmd records must wrap a KernelModel")
    arrays = {
        "q_eigvecs": model.q_eigvecs,
        "sigma": model.sigma,
        "k_hat_u": model.k_hat_u,
        "eigenvalues": model.eigenvalues,
        "v_inv": model.v_inv,
        "training_x": model.training_x,
        "modes": model.modes,
    }
    return arrays, {"kernel": model.kernel.spec_string()}


def save_model(record: ModelRecord, path) -> None:
    """Write the record as schema-versioned JSON (17 significant digits)."""
    arrays, extra = _arrays_for(record)
    matrices = {
        name: _encode_matrix(arrays[name])
        for name in _LAYOUTS[record.algorithm]
        if arrays.get(name) is not None
    }
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


def _section(obj: dict, key: str) -> dict:
    value = _require(obj, key, "top-level")
    if not isinstance(value, dict):
        raise DataError(f"model file {key!r} must be a JSON object")
    return value


def _refuse_constant(token: str):
    raise DataError(f"model file contains {token}; every number must be finite")


def _load_companion(m, fit_meta, flags, residuals):
    return CompanionFit(c_matrix=m["c_matrix"], eigenvalues=m["eigenvalues"],
                        vandermonde_t=m["vandermonde_t"],
                        window=int(m["c_matrix"].shape[0]))


def _load_dmd(m, fit_meta, flags, residuals):
    return KoopmanModel(
        k_hat=m["k_hat"],
        eigenvalues=m["eigenvalues"],
        eigenvectors_p=m["eigenvectors_p"],
        modes_v=m["modes_v"],
        svd_u=m["svd_u"],
        svd_sigma=m["svd_sigma"],
        observable_dim=int(m["modes_v"].shape[0]),
        fit_residual=residuals.get("training", 0.0),
        flags=flags,
    )


def _edmd_dictionary(spec: str, input_dim: int, centers):
    try:
        if not spec.startswith("rbf:"):
            return build_dictionary(spec, input_dim)
        if centers is None:
            raise DataError("model file is missing matrix key 'dict_centers'")
        return RbfDictionary(centers, float(spec.split(":")[1]))
    except (ConfigError, ShapeError, ValueError) as err:
        raise DataError(f"model file dictionary {spec!r} is unusable: {err}") from None


def _load_edmd(m, fit_meta, flags, residuals):
    spec = _string(_require(fit_meta, "dictionary", "fit"), "dictionary")
    input_dim = int(m["d_coeffs"].shape[0])
    dictionary = _edmd_dictionary(spec, input_dim, m.get("dict_centers"))
    if dictionary.size != m["d_coeffs"].shape[1]:
        raise DataError(
            f"model file dictionary {spec!r} has {dictionary.size} features, "
            f"but its matrices have {m['d_coeffs'].shape[1]}"
        )
    eigen = EigenPairs(values=m["eigenvalues"], vectors=m["eigenvectors_p"])
    return EdmdModel(
        dictionary=dictionary,
        k_hat=m["k_hat"],
        eigen=eigen,
        b_coeffs=m["b_coeffs"],
        d_coeffs=m["d_coeffs"],
        modes_v=m.get("modes_v"),
        svd_u=m["svd_u"],
        svd_sigma=m["svd_sigma"],
        lifted_residual=residuals.get("lifted", 0.0),
        d_residual=residuals.get("observable", 0.0),
        observable_dim=input_dim,
        flags=flags,
    )


def _load_kernel(m, fit_meta, flags, residuals):
    spec = _string(_require(fit_meta, "kernel", "fit"), "kernel")
    try:
        kernel = parse_kernel(spec)
    except ConfigError as err:
        raise DataError(f"model file kernel {spec!r} is unusable: {err}") from None
    return KernelModel(
        kernel=kernel,
        q_eigvecs=m["q_eigvecs"],
        sigma=m["sigma"],
        k_hat_u=m["k_hat_u"],
        eigenvalues=m["eigenvalues"],
        v_inv=m["v_inv"],
        training_x=m["training_x"],
        modes=m["modes"],
        fit_residual=residuals.get("training", 0.0),
        flags=flags,
    )


_LOADERS = {
    "companion": _load_companion,
    "dmd": _load_dmd,
    "edmd": _load_edmd,
    "kernel-edmd": _load_kernel,
}


def load_model(path) -> ModelRecord:
    """Read a model file, checking the schema version before anything else."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=_refuse_constant)
    except OSError as err:
        raise DataError(f"cannot read model file: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataError(f"model file is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise DataError("model file must contain a JSON object")
    version = _require(payload, "schema_version", "top-level")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"model file schema_version {version!r:.40} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    algorithm = _require(payload, "algorithm", "top-level")
    if algorithm not in _ALGORITHMS:
        raise DataError(f"unknown algorithm tag {algorithm!r:.40} in model file")
    fit_meta = _section(payload, "fit")
    matrices = _section(payload, "matrices")
    flags = payload.get("flags", [])
    if not isinstance(flags, list):
        raise DataError("model file 'flags' must be a list")
    flags = tuple(_string(flag, "flag") for flag in flags)
    residuals = _require(fit_meta, "residuals", "fit")
    if not isinstance(residuals, dict):
        raise DataError("model file 'residuals' must be a JSON object")
    residuals = {k: _number(v, f"residual {k!r}") for k, v in residuals.items()}

    dims = {}
    if algorithm == "companion":
        dims["w"] = _count(_require(fit_meta, "window", "fit"), "window", 1)
    elif algorithm in ("dmd", "edmd"):
        dims["n"] = _count(_require(fit_meta, "observable_dim", "fit"),
                           "observable_dim", 1)
    decoded = _decode_matrices(algorithm, matrices, dims)
    model = _LOADERS[algorithm](decoded, fit_meta, flags, residuals)
    augment = _require(fit_meta, "augment_inputs", "fit")
    if not isinstance(augment, bool):
        raise DataError(f"model file augment_inputs must be true or false, "
                        f"got {augment!r:.40}")

    split = fit_meta.get("base_split")
    if split is not None:
        if not isinstance(split, list) or len(split) != 3:
            raise DataError("model file 'base_split' must list 3 column counts")
        split = tuple(_count(v, "base_split entry") for v in split)
    return ModelRecord(
        algorithm=algorithm,
        model=model,
        rtol=_number(_require(fit_meta, "rtol", "fit"), "rtol"),
        embed_h=_count(_require(fit_meta, "embed_h", "fit"), "embed_h", 1),
        augment_inputs=augment,
        residuals=residuals,
        companion_modes=decoded["modes"] if algorithm == "companion" else None,
        base_split=split,
    )
