"""Command-line front end: simulate, fit, spectrum, predict.

Standard output carries data-only CSV so results pipe straight into plotting
tools; progress notes and warnings go to standard error. Exit codes: 0 on
success, 2 for usage and configuration problems, 3 for unreadable or
malformed data, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from ._text import write_rows
from .data import (
    concat_pairs,
    delay_embed,
    load_trajectory,
    save_trajectory,
    snapshot_pairs,
)
from .dmd import (
    _spectral_predict,
    companion_modes,
    fit_companion,
    fit_svd_dmd,
    predict,
)
from .edmd import edmd_predict, fit_edmd
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .kernel_edmd import fit_kernel_edmd, kernel_predict
from .model_io import ModelRecord, load_model, save_model
from .observables import build_dictionary, parse_kernel
from .systems import (
    forced_linear_system,
    linear_system,
    quadratic_system,
    rotation_system,
    simulate,
)


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _parse_matrix(text: str, flag: str) -> np.ndarray:
    """Parse row-major matrix text like '0.9,0;0,0.5' (rows split on ';')."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise ConfigError(f"{flag}: could not parse {text!r} as a matrix") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{flag}: rows of {text!r} have unequal lengths")
    return np.array(rows)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"{flag}: could not parse {text!r} as a vector") from None


def _require_flag(value, flag: str, context: str):
    if value is None:
        raise ConfigError(f"{context} requires {flag}")
    return value


# ------------------------------------------------------------------ simulate


def cmd_simulate(args) -> int:
    kind = args.system
    steps = args.steps
    if kind == "linear":
        a = _parse_matrix(_require_flag(args.a, "--a", "--system linear"), "--a")
        x0 = _parse_vector(_require_flag(args.x0, "--x0", "--system linear"), "--x0")
        spec = linear_system(a, x0, steps)
    elif kind == "rotation":
        theta = _require_flag(args.theta, "--theta", "--system rotation")
        x0 = _parse_vector(args.x0, "--x0") if args.x0 else (1.0, 0.0)
        spec = rotation_system(theta, steps, x0=x0, observe=args.observe)
    elif kind == "quadratic":
        mu = _require_flag(args.mu, "--mu", "--system quadratic")
        lam = _require_flag(args.lam, "--lam", "--system quadratic")
        c = _require_flag(args.c, "--c", "--system quadratic")
        x0 = _parse_vector(_require_flag(args.x0, "--x0", "--system quadratic"), "--x0")
        spec = quadratic_system(mu, lam, c, x0, steps)
    else:
        a = _parse_matrix(_require_flag(args.a, "--a", "--system forced-linear"), "--a")
        b_in = _parse_matrix(_require_flag(args.b, "--b", "--system forced-linear"), "--b")
        x0 = _parse_vector(_require_flag(args.x0, "--x0", "--system forced-linear"), "--x0")
        spec = forced_linear_system(
            a, b_in, x0, steps,
            input_seed=args.input_seed,
            input_hold=args.input_hold,
            input_scale=args.input_scale,
        )
    traj = simulate(spec)
    if args.out:
        save_trajectory(traj, args.out)
        _note(f"wrote {traj.length} samples to {args.out}")
    else:
        save_trajectory(traj, sys.stdout)
    return 0


# ----------------------------------------------------------------------- fit


_TRAINING_RESIDUAL_KEY = {
    "companion": "training",
    "dmd": "training",
    "edmd": "lifted",
    "kernel-edmd": "training",
}


def _companion_training_residual(modes, fit, pair) -> float:
    window = pair.x[:, : fit.window]
    recon = (modes @ fit.vandermonde_t).real
    denom = np.linalg.norm(window)
    return float(np.linalg.norm(window - recon) / (denom if denom > 0 else 1.0))


def cmd_fit(args) -> int:
    if args.dict is not None and args.algo != "edmd":
        raise ConfigError("--dict applies only to --algo edmd")
    if args.kernel is not None and args.algo != "kernel-edmd":
        raise ConfigError("--kernel applies only to --algo kernel-edmd")
    if args.algo == "edmd" and args.dict is None:
        raise ConfigError("--algo edmd requires --dict")
    if args.algo == "kernel-edmd" and args.kernel is None:
        raise ConfigError("--algo kernel-edmd requires --kernel")
    if args.embed < 1:
        raise ConfigError(f"--embed must be at least 1, got {args.embed}")

    trajectories = [load_trajectory(path) for path in args.data]
    first = trajectories[0]
    split = (first.n_states, first.n_inputs, first.n_disturbances)
    pairs = []
    for traj in trajectories:
        work = delay_embed(traj, args.embed) if args.embed > 1 else traj
        pairs.append(snapshot_pairs(work, augment_inputs=args.augment_inputs))
    pair = concat_pairs(pairs)
    _note(
        f"fit {args.algo}: {pair.n_observables} observables x "
        f"{pair.n_columns} column pairs"
    )

    companion = None
    if args.algo == "companion":
        model = fit_companion(pair)
        companion = companion_modes(model, pair)
        residuals = {"training": _companion_training_residual(companion, model, pair)}
        eigenvalues = model.eigenvalues
    elif args.algo == "dmd":
        model = fit_svd_dmd(pair, rtol=args.rtol)
        residuals = {"training": model.fit_residual}
        eigenvalues = model.eigenvalues
    elif args.algo == "edmd":
        dictionary = build_dictionary(args.dict, pair.n_observables, snapshots=pair.x)
        model = fit_edmd(pair, dictionary, rtol=args.rtol)
        residuals = {"lifted": model.lifted_residual, "observable": model.d_residual}
        eigenvalues = model.eigenvalues
    else:
        kernel = parse_kernel(args.kernel)
        model = fit_kernel_edmd(pair, kernel, rtol=args.rtol)
        residuals = {"training": model.fit_residual}
        eigenvalues = model.eigenvalues

    for flag in getattr(model, "flags", ()):
        _note(f"note: {flag}")

    record = ModelRecord(
        algorithm=args.algo,
        model=model,
        rtol=args.rtol,
        embed_h=args.embed,
        augment_inputs=args.augment_inputs,
        residuals=residuals,
        companion_modes=companion,
        base_split=split,
    )
    save_model(record, args.out)
    _note(f"wrote model to {args.out}")

    residual = residuals[_TRAINING_RESIDUAL_KEY[args.algo]]
    table = np.column_stack([
        eigenvalues.real, eigenvalues.imag, np.full(eigenvalues.shape, residual),
    ])
    sys.stdout.write("index,re,im,training_residual\n")
    write_rows(sys.stdout, table + 0.0, labels=np.arange(table.shape[0]))
    return 0


# ------------------------------------------------------------------ spectrum


def cmd_spectrum(args) -> int:
    record = load_model(args.model)
    values = np.asarray(record.model.eigenvalues)
    magnitude = np.abs(values)
    # the magnitude column prints the same numbers the rows are sorted by
    order = np.argsort(-magnitude, kind="stable")
    v = values[order]
    table = np.column_stack([v.real, v.imag, magnitude[order], np.angle(v)])
    sys.stdout.write("index,re,im,magnitude,phase\n")
    write_rows(sys.stdout, table + 0.0, labels=order)
    return 0


# ------------------------------------------------------------------- predict


def _read_initial_rows(path) -> np.ndarray:
    """Read a headerless numeric CSV of one or more history rows."""
    try:
        with open(path, newline="") as handle:
            rows = []
            for lineno, fields in enumerate(csv.reader(handle), start=1):
                if not fields:
                    continue
                try:
                    rows.append([float(f) for f in fields])
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: non-numeric value in "
                        "initial-condition file"
                    ) from None
    except OSError as err:
        raise DataError(f"cannot read initial-condition file: {err}") from err
    if not rows:
        raise DataError(f"{path}: initial-condition file has no data rows")
    if len({len(r) for r in rows}) != 1:
        raise DataError(f"{path}: initial-condition rows have unequal lengths")
    return np.array(rows)


def _initial_condition(record: ModelRecord, rows: np.ndarray) -> np.ndarray:
    """Assemble the model's observable vector from raw history rows.

    Non-embedded models take a single row of width observable_dim. Embedded
    models take embed_h consecutive rows (oldest first) and restack them the
    way the training pipeline did: states block first, then held inputs and
    disturbances, each block ordered oldest to newest.
    """
    h, dim = record.embed_h, record.observable_dim
    if h == 1:
        if rows.shape[0] != 1:
            raise DataError(
                f"model expects exactly 1 initial-condition row, got {rows.shape[0]}"
            )
        if rows.shape[1] != dim:
            raise DataError(
                f"initial condition has {rows.shape[1]} values, model expects {dim}"
            )
        return rows[0]
    if rows.shape[0] != h:
        raise DataError(
            f"embedded model needs {h} history rows, got {rows.shape[0]}"
        )
    split = record.base_split
    if split is None:
        if dim % h:
            raise DataError(
                "model file lacks the row split needed to embed history rows"
            )
        split = (dim // h, 0, 0)
    n_x, n_u, n_d = split
    if rows.shape[1] != n_x + n_u + n_d:
        raise DataError(
            f"history rows have {rows.shape[1]} values, expected {n_x + n_u + n_d}"
        )
    parts = [rows[:, :n_x].reshape(-1)]
    if n_u:
        parts.append(rows[:, n_x : n_x + n_u].reshape(-1))
    if n_d:
        parts.append(rows[:, n_x + n_u :].reshape(-1))
    g0 = np.concatenate(parts)
    if g0.size != dim:
        raise DataError(
            f"stacked initial condition has {g0.size} values, model expects {dim}"
        )
    return g0


def cmd_predict(args) -> int:
    record = load_model(args.model)
    if args.steps < 0:
        raise ConfigError(f"steps must be non-negative, got {args.steps}")
    g0 = _initial_condition(record, _read_initial_rows(args.ic))
    if record.algorithm == "companion":
        modes = record.companion_modes
        amplitudes = np.linalg.lstsq(modes, g0.astype(complex), rcond=None)[0]
        forecast = _spectral_predict(
            modes, record.model.eigenvalues, amplitudes, args.steps
        )
    elif record.algorithm == "dmd":
        forecast = predict(record.model, g0, args.steps)
    elif record.algorithm == "edmd":
        forecast = edmd_predict(record.model, g0, args.steps)
    else:
        forecast = kernel_predict(record.model, g0, args.steps)
    header = ["step"] + [f"g{j}" for j in range(1, forecast.shape[1] + 1)]
    sys.stdout.write(",".join(header) + "\n")
    forecast += 0.0  # in place: prints -0.0 as "0" without copying the forecast
    write_rows(sys.stdout, forecast, labels=np.arange(1, forecast.shape[0] + 1))
    return 0


# ------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmdkit",
        description="Koopman spectral analysis of snapshot time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a benchmark trajectory CSV")
    sim.add_argument(
        "--system",
        required=True,
        choices=["linear", "rotation", "quadratic", "forced-linear"],
    )
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--a", help="system matrix, rows split on ';', e.g. '0.9,0;0,0.5'")
    sim.add_argument("--b", help="input matrix for forced-linear, same grammar as --a")
    sim.add_argument("--x0", help="initial state, e.g. '1,1'")
    sim.add_argument("--theta", type=float, help="rotation angle in radians")
    sim.add_argument("--observe", choices=["full", "first"], default="full")
    sim.add_argument("--mu", type=float, help="quadratic system rate for x1")
    sim.add_argument("--lam", type=float, help="quadratic system rate for x2")
    sim.add_argument("--c", type=float, help="quadratic coupling coefficient")
    sim.add_argument("--input-seed", type=int, default=0)
    sim.add_argument("--input-hold", type=int, default=5)
    sim.add_argument("--input-scale", type=float, default=1.0)
    sim.add_argument("--out", help="output CSV path (default: standard output)")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model from trajectory CSV files")
    fit.add_argument(
        "--algo",
        required=True,
        choices=["companion", "dmd", "edmd", "kernel-edmd"],
    )
    fit.add_argument(
        "--data",
        action="append",
        required=True,
        help="trajectory CSV (repeat for multiple trajectories)",
    )
    fit.add_argument("--dict", help="dictionary spec for edmd, e.g. poly:2 or rbf:0.5:32")
    fit.add_argument("--kernel", help="kernel spec for kernel-edmd, e.g. gaussian:0.7")
    fit.add_argument("--embed", type=int, default=1, help="delay-embedding depth")
    fit.add_argument(
        "--augment-inputs",
        action="store_true",
        help="append held inputs and disturbances to each snapshot",
    )
    fit.add_argument("--rtol", type=float, default=1e-10)
    fit.add_argument("--out", required=True, help="model file to write")
    fit.set_defaults(func=cmd_fit)

    spec = sub.add_parser("spectrum", help="print eigenvalues of a saved model")
    spec.add_argument("model", help="model file")
    spec.set_defaults(func=cmd_spectrum)

    pred = sub.add_parser("predict", help="forecast from a saved model")
    pred.add_argument("model", help="model file")
    pred.add_argument("ic", help="initial-condition CSV (headerless rows)")
    pred.add_argument("steps", type=int, help="number of steps to forecast")
    pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        _note(f"error: {err}")
        return 2
    except (DataError, ShapeError) as err:
        _note(f"error: {err}")
        return 3
    except NumericalError as err:
        _note(f"error: {err}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
