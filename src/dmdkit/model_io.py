"""Model persistence: structured JSON with base64 matrices in pair form.

Every fitter returns a ``SpectralModel``, so every model file has one layout
(schema version 7): the model's algorithm tag and flags; fit metadata (its
``rtol``, ``embed_h``, ``inputs`` and residuals, the observable dimension,
and the feature map's spec string as ``features``, ``identity`` for DMD);
and the matrices (``_LAYOUT``): eigenvalues (r), modes (n x r) and coeffs
(r x f), and points (n x f), the points of a ``KernelDictionary`` (kernel
EDMD's training snapshots or an rbf dictionary's centers). A loaded model's
features are the kernel sections at ``points`` when the file has them and
the dictionary its spec builds otherwise.

Each matrix is {rows, cols, real, imag}. ``real`` and ``imag`` are base64
strings of the row-major IEEE-754 binary64 values in little-endian order,
with ``imag`` left out when every imaginary entry is zero; modes and coeffs
are the model's real pair forms (see ``dmd``). Decoding bytes costs a small
fraction of parsing decimal text, and the stored doubles are the model's
own, so save -> load -> save is byte-identical and loaded models reproduce
the original predictions bit for bit. The metadata floats are the stdlib
encoder's shortest round-trip text, which reads back exactly.

A model checks its own rules, finite numbers among them, when it is built
and cannot change after (``SpectralModel``), so saving only encodes.
Loading uses the stdlib json parser with NaN and Infinity refused, checks
every field's type and matrix payload (base64 alphabet, padding, length)
and that ``observable_dim`` is the row count of modes and points, then
builds the model; its refusal, like every other, is a ``DataError`` naming
the file, so a damaged file never fails later or forecasts wrongly. Files
of any other schema version are refused.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from ._text import write_text_file
from .dmd import SpectralModel
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .observables import Dictionary, KernelDictionary, build_dictionary, parse_kernel

SCHEMA_VERSION = 7

# Stored matrices in file order, each with whether it is complex. The
# eigenvalues are a vector, stored as one row; modes and coeffs are stored
# real, in pair form.
_LAYOUT = {"eigenvalues": True, "modes": False, "coeffs": False, "points": False}


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


def _count(value, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DataError(f"model file {what} must be an integer >= {minimum}, "
                        f"got {value!r:.40}")
    return value


def _number(value, what: str) -> float:
    try:
        number = float(value) if type(value) in (int, float) else math.nan  # bool is no number
    except OverflowError:  # an integer past the largest double
        number = math.nan
    if not math.isfinite(number):
        raise DataError(f"model file {what} must be a finite number, got {value!r:.40}")
    return number


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"model file {what} must be a string, got {value!r:.40}")
    return value


def _numbers(value, name: str, key: str, count: int) -> np.ndarray:
    """The base64 string ``value`` as a float array of ``count`` entries."""
    if not isinstance(value, str):
        raise DataError(f"matrix {name!r} {key} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII character
        raise DataError(f"matrix {name!r} {key} is not valid base64: {err}") from None
    if len(raw) != 8 * count:
        raise DataError(f"matrix {name!r} {key} holds {len(raw)} bytes, not the "
                        f"{8 * count} of {count} doubles")
    return np.frombuffer(raw, "<f8").astype(float)  # a native copy


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
    if want_complex:  # paired as stored, where re + 1j * im turns an infinite im into a NaN re
        return np.stack((re, im), axis=-1).view(complex)[..., 0]
    if np.any(im != 0.0):
        raise DataError(f"matrix {name!r} must be real but has imaginary entries")
    return re


# ------------------------------------------------------------- save pathways


def _arrays_for(model: SpectralModel) -> dict:
    """The model's matrices by stored name; None marks one the file leaves out."""
    return {"eigenvalues": model.eigenvalues, "modes": model.modes_pf, "coeffs": model.coeffs_pf,
            "points": getattr(model.features, "points", None)}


def save_model(model: SpectralModel, path) -> None:
    """Write the model as schema-versioned JSON.

    The model checked itself when it was built and cannot change after, so
    any model is written as it is.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": model.algorithm,
        "fit": {
            "rtol": float(model.rtol) + 0.0,  # never "-0.0"
            "embed_h": int(model.embed_h),
            "inputs": int(model.inputs),
            "residuals": {str(k): float(v) for k, v in model.residuals.items()},
            "observable_dim": model.features.input_dim,
            "features": model.features.spec_string(),
        },
        "flags": list(model.flags),
        "matrices": {
            name: _encode_matrix(value) for name, value in _arrays_for(model).items()
            if value is not None
        },
    }

    def write(handle):
        json.dump(payload, handle, indent=2, allow_nan=False)
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


def _features(fit_meta: dict, n: int, m: dict) -> Dictionary:
    """The model's feature map: kernel sections at the stored points when
    there are any, else the dictionary its spec builds on n states."""
    spec = _string(_require(fit_meta, "features", "fit"), "features")
    try:
        if "points" in m:
            return KernelDictionary(parse_kernel(spec), m["points"])
        return build_dictionary(spec, n)
    except (ConfigError, ShapeError) as err:
        raise DataError(f"model file features {spec!r} are unusable: {err}") from None


def load_model(path) -> SpectralModel:
    """Read a model file, checking the schema version before anything else.

    The JSON's types and the matrix payloads are checked here, and that
    ``observable_dim`` is the row count of ``modes`` and ``points``; every
    other rule is the model's own, and its refusal becomes a ``DataError``.
    """
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
    fit_meta = _section(payload, "fit")
    matrices = _section(payload, "matrices")
    flags = _require(payload, "flags", "top-level")
    if not isinstance(flags, list):
        raise DataError("model file 'flags' must be a list")
    residuals = _require(fit_meta, "residuals", "fit")
    if not isinstance(residuals, dict):
        raise DataError("model file 'residuals' must be a JSON object")
    _require(residuals, "training", "residuals")
    residuals = {k: _number(v, f"residual {k!r}") for k, v in residuals.items()}
    n = _count(_require(fit_meta, "observable_dim", "fit"), "observable_dim", 1)
    m = {}
    for name, want_complex in _LAYOUT.items():
        if name in matrices:
            m[name] = _decode_matrix(matrices[name], name, want_complex)
        elif name != "points" or algorithm == "kernel-edmd":  # only kernel EDMD needs points
            raise DataError(f"model file is missing matrix key {name!r}")
    for name in ("modes", "points"):
        if name in m and m[name].shape[0] != n:
            raise DataError(f"matrix {name!r} is {m[name].shape[0]}x{m[name].shape[1]}, which "
                            f"does not match the model's observable dimension of {n}")
    values = m["eigenvalues"]
    try:
        return SpectralModel(
            eigenvalues=values[0] if len(values) == 1 else values,
            modes_pf=m["modes"],
            coeffs_pf=m["coeffs"],
            features=_features(fit_meta, n, m),
            algorithm=algorithm,
            rtol=_number(_require(fit_meta, "rtol", "fit"), "rtol"),
            flags=tuple(flags),
            residuals=residuals,
            embed_h=_require(fit_meta, "embed_h", "fit"),
            inputs=_require(fit_meta, "inputs", "fit"),
        )
    except (ConfigError, NumericalError) as err:
        raise DataError(f"model file {err}") from None
