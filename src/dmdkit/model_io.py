"""Model persistence: structured JSON with base64 matrices in pair form.

Every fitter returns a ``SpectralModel``, so every model file has one layout
(schema version 7). A file carries the algorithm tag, the flags, fit
metadata (tolerance, embedding depth, residuals, observable dimension, the
feature map's spec string as ``features``: ``identity`` for DMD, and
``inputs``, the held-input columns of one data row, 0 unless the model was
fitted with ``--augment-inputs``) and the matrices a loaded model reads to
print its spectrum, forecast and evaluate eigenfunctions (``_LAYOUT``):

* eigenvalues (r), modes (n x r) and coeffs (r x f), the map from features
  to eigenfunctions;
* points (n x f), the points of a ``KernelDictionary``: kernel EDMD's
  training snapshots or an rbf dictionary's centers.

A loaded model's features are the kernel sections at ``points`` when the
file has them and the dictionary its spec builds otherwise; loading refuses
features of a type its algorithm tag does not take, as saving does.

Each matrix is {rows, cols, real, imag}. ``real`` and ``imag`` are base64
strings of the row-major IEEE-754 binary64 values in little-endian order,
with ``imag`` left out when every imaginary entry is zero. Decoding bytes
costs a small fraction of parsing decimal text, and the stored doubles are
the model's own, so save -> load -> save is byte-identical and loaded models
reproduce the original predictions bit for bit. The metadata floats are
the stdlib encoder's shortest round-trip text, which reads back exactly.

A model holds its modes and coeffs in pair form (see ``dmd``), and they are
stored and loaded as they are, real: the column of modes (row of coeffs) of
a real eigenvalue holds its vector, an upper pair member's slot the real
part of its vector and its lower partner's slot the imaginary part; the
complex matrices are formed only when a model is used. Saving and loading
refuse eigenvalues not closed under conjugation, which no pair form fits.

Reading uses the stdlib json parser with NaN and Infinity refused, then
checks every field's type, every matrix payload's base64 alphabet, padding
and length, every number's finiteness, that each flag is one a fit raises
and the observable ``embed_h`` rows of at least one state and ``inputs``
inputs (saving refuses a record that breaks either rule, in the same
words), and that the matrix shapes agree with each other and with the fit
metadata, so a damaged file raises ``DataError`` rather than failing later
or forecasting wrongly. Files of any other schema version are refused.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from ._text import write_text_file
from .dmd import _FIT_FLAGS, SpectralModel
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .linalg import conjugate_pairs
from .observables import (Dictionary, IdentityDictionary, KernelDictionary,
                          build_dictionary, parse_kernel)

SCHEMA_VERSION = 7

# The feature map each algorithm's model evaluates.
_FEATURES = {
    "companion": IdentityDictionary,
    "dmd": IdentityDictionary,
    "edmd": Dictionary,
    "kernel-edmd": KernelDictionary,
}

# Stored matrices, in file order: name -> (rows, cols, complex). A letter is a
# size every matrix of the file must agree on (see _DIMENSIONS); a row count
# of 1 marks a vector, which loads as 1-D. modes and coeffs are stored real,
# in pair form.
_LAYOUT = {
    "eigenvalues": (1, "r", True),
    "modes": ("n", "r", False),
    "coeffs": ("r", "f", False),
    "points": ("n", "f", False),
}
_DIMENSIONS = {
    "r": "eigenvalue count",
    "n": "observable dimension",
    "f": "feature count",
}


@dataclass(frozen=True)
class ModelRecord:
    """A fitted model plus the metadata needed to reuse it from disk."""

    algorithm: str
    model: SpectralModel
    rtol: float
    embed_h: int = 1
    # Held inputs at the end of each data row, 0 unless fitted with
    # --augment-inputs, so predict can restack plain history rows.
    inputs: int = 0

    def __post_init__(self):
        if self.algorithm not in _FEATURES:
            raise ConfigError(
                f"unknown algorithm tag {self.algorithm!r}; expected one of "
                f"{', '.join(_FEATURES)}"
            )


def _encode_matrix(m) -> dict:
    m = np.asarray(m)
    if m.ndim == 1:
        m = m[None, :]
    # Adding +0.0 turns negative zeros into positive ones, so the sign of a
    # zero never decides whether ``imag`` is stored or what a file holds.
    re = np.real(m).astype(float) + 0.0
    im = np.imag(m).astype(float) + 0.0
    out = {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "real": _packed(re)}
    if np.any(im):
        out["imag"] = _packed(im)
    return out


def _packed(part: np.ndarray) -> str:
    """Base64 of ``part``'s row-major little-endian doubles."""
    raw = np.ascontiguousarray(part, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _count(value, what: str, minimum: int = 0, error=DataError) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"model file {what} must be an integer >= {minimum}, "
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


def _numbers(value, name: str, key: str, count: int) -> np.ndarray:
    """The base64 string ``value`` as a float array of ``count`` finite entries."""
    if not isinstance(value, str):
        raise DataError(f"matrix {name!r} {key} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise DataError(f"matrix {name!r} {key} is not valid base64: {err}") from None
    if len(raw) != 8 * count:
        raise DataError(f"matrix {name!r} {key} holds {len(raw)} bytes, not the "
                        f"{8 * count} of {count} doubles")
    arr = np.frombuffer(raw, "<f8").astype(float)  # a writable native copy
    if not np.isfinite(arr).all():
        raise DataError(f"matrix {name!r} {key} has NaN or infinite entries")
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


def _decode_matrices(matrices: dict, dims: dict, required: set) -> dict:
    """Decode the stored matrices, checking their shapes agree.

    ``dims`` maps the layout letters fixed by the fit metadata to sizes;
    every other letter takes its size from the first matrix that has it.
    """
    out = {}
    for name, (rows, cols, want_complex) in _LAYOUT.items():
        if name not in matrices:
            if name in required:
                raise DataError(f"model file is missing matrix key {name!r}")
            continue
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


def _arrays_for(model: SpectralModel) -> dict:
    """The model's matrices by stored name; None marks one the file leaves out."""
    return {
        "eigenvalues": model.eigenvalues,
        "modes": model.modes_pf,
        "coeffs": model.coeffs_pf,
        "points": getattr(model.features, "points", None),
    }


def _check_features(algorithm: str, features, error) -> None:
    if not isinstance(features, _FEATURES[algorithm]):
        raise error(f"a {algorithm} model cannot hold "
                    f"{type(features).__name__} features")


def _check_flags(flags, error) -> None:
    for flag in flags:
        if flag not in _FIT_FLAGS:
            raise error(f"model flag {flag!r:.40} is not one a fit raises "
                        f"({', '.join(_FIT_FLAGS)})")


def _split(fit_meta: dict, error) -> tuple[int, int, int]:
    """``embed_h``, ``inputs`` and ``observable_dim`` of the fit metadata,
    checked to be ``embed_h`` rows of at least one state and ``inputs`` inputs."""
    h = _count(_require(fit_meta, "embed_h", "fit"), "embed_h", 1, error)
    inputs = _count(_require(fit_meta, "inputs", "fit"), "inputs", 0, error)
    n = _count(_require(fit_meta, "observable_dim", "fit"), "observable_dim", 1, error)
    if n % h or n // h <= inputs:
        raise error(f"model file observable_dim {n} is not embed_h {h} x "
                    f"(states + {inputs} inputs) with at least one state")
    return h, inputs, n


def save_model(record: ModelRecord, path) -> None:
    """Write the record as schema-versioned JSON, refusing a record the loader
    would refuse for its features, flags or observable split (``ConfigError``)
    or for eigenvalues not closed under conjugation (``NumericalError``)."""
    model = record.model
    _check_features(record.algorithm, model.features, ConfigError)
    _check_flags(model.flags, ConfigError)
    arrays = _arrays_for(model)
    if not all(np.isfinite(value).all() for value in arrays.values() if value is not None):
        raise DataError("model matrices must be finite")
    conjugate_pairs(model.eigenvalues)
    fit_meta = {
        "rtol": float(record.rtol) + 0.0,  # never "-0.0"
        "embed_h": int(record.embed_h),
        "inputs": int(record.inputs),
        "residuals": {str(k): float(v) for k, v in model.residuals.items()},
        "observable_dim": model.features.input_dim,
        "features": model.features.spec_string(),
    }
    _split(fit_meta, ConfigError)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": record.algorithm,
        "fit": fit_meta,
        "flags": list(model.flags),
        "matrices": {
            name: _encode_matrix(value) for name, value in arrays.items()
            if value is not None
        },
    }

    def write(handle):
        try:
            json.dump(payload, handle, indent=2, allow_nan=False)
        except ValueError:  # write_text_file cleans up after DataError, not this
            raise DataError("model files cannot encode non-finite numbers") from None
        handle.write("\n")

    write_text_file(path, "model file", write)


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


def _features(algorithm: str, fit_meta: dict, n: int, m: dict) -> Dictionary:
    """The model's feature map: kernel sections at the stored points when
    there are any, else the dictionary its spec builds on n states."""
    spec = _string(_require(fit_meta, "features", "fit"), "features")
    try:
        if "points" in m:
            dictionary = KernelDictionary(parse_kernel(spec), m["points"])
        else:
            dictionary = build_dictionary(spec, n)
    except (ConfigError, ShapeError) as err:
        raise DataError(f"model file features {spec!r} are unusable: {err}") from None
    _check_features(algorithm, dictionary, DataError)
    if dictionary.size != m["coeffs"].shape[1]:
        raise DataError(
            f"model file features {spec!r} have {dictionary.size} entries, "
            f"but its matrices have {m['coeffs'].shape[1]}"
        )
    return dictionary


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
    if not isinstance(algorithm, str) or algorithm not in _FEATURES:
        raise DataError(f"unknown algorithm tag {algorithm!r:.40} in model file")
    fit_meta = _section(payload, "fit")
    matrices = _section(payload, "matrices")
    flags = _require(payload, "flags", "top-level")
    if not isinstance(flags, list):
        raise DataError("model file 'flags' must be a list")
    _check_flags(flags, DataError)
    residuals = _require(fit_meta, "residuals", "fit")
    if not isinstance(residuals, dict):
        raise DataError("model file 'residuals' must be a JSON object")
    _require(residuals, "training", "residuals")
    residuals = {k: _number(v, f"residual {k!r}") for k, v in residuals.items()}
    h, inputs, n = _split(fit_meta, DataError)
    dims = {"n": n}
    required = {"eigenvalues", "modes", "coeffs"}
    if algorithm == "kernel-edmd":
        required.add("points")
    m = _decode_matrices(matrices, dims, required)
    try:
        conjugate_pairs(m["eigenvalues"])
    except NumericalError as err:
        raise DataError(f"model file {err}") from None
    model = SpectralModel(
        eigenvalues=m["eigenvalues"],
        modes_pf=m["modes"],
        coeffs_pf=m["coeffs"],
        features=_features(algorithm, fit_meta, n, m),
        flags=tuple(flags),
        residuals=residuals,
    )
    return ModelRecord(
        algorithm=algorithm,
        model=model,
        rtol=_number(_require(fit_meta, "rtol", "fit"), "rtol"),
        embed_h=h,
        inputs=inputs,
    )
