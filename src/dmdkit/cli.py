"""Command-line front end: simulate, fit, spectrum, predict.

Standard output carries data-only CSV so results pipe straight into plotting
tools; progress notes and warnings go to standard error. Exit codes: 0 on
success, 1 when standard output closed early (``| head``), 2 for usage and
configuration problems, 3 for unreadable or malformed data and failed
writes, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING

import numpy as np

from ._text import write_rows
from .errors import ConfigError, DataError, NumericalError, ShapeError

if TYPE_CHECKING:
    from .model_io import ModelRecord


def _deferred(module: str, name: str):
    """Stand-in for ``dmdkit.<module>.<name>`` that imports the module when called.

    Each subcommand then loads only the modules it runs. The stand-ins are
    attributes of this module and the commands call them through it, so
    replacing ``dmdkit.cli.<name>`` (as perfbench's span tracer does) still
    intercepts every call.
    """
    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


simulate = _deferred("systems", "simulate")
save_trajectory = _deferred("data", "save_trajectory")
load_trajectory = _deferred("data", "load_trajectory")
snapshot_pairs = _deferred("data", "snapshot_pairs")
delay_embed = _deferred("data", "delay_embed")
concat_pairs = _deferred("data", "concat_pairs")
fit_svd_dmd = _deferred("dmd", "fit_svd_dmd")
predict = _deferred("dmd", "predict")
fit_edmd = _deferred("edmd", "fit_edmd")
fit_kernel_edmd = _deferred("kernel_edmd", "fit_kernel_edmd")
save_model = _deferred("model_io", "save_model")
load_model = _deferred("model_io", "load_model")


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
    from .systems import (
        forced_linear_system,
        linear_system,
        quadratic_system,
        rotation_system,
    )

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
    from .dmd import fit_companion
    from .linalg import check_rtol
    from .model_io import ModelRecord
    from .observables import build_dictionary, parse_kernel

    check_rtol(args.rtol)  # for every fitter: the model file stores it
    pair, split = _training_pair(args)
    _note(
        f"fit {args.algo}: {pair.n_observables} observables x "
        f"{pair.n_columns} column pairs"
    )

    try:  # a Gram matrix, lift or SVD that cannot be allocated is a usage error
        if args.algo == "companion":
            model = fit_companion(pair)
        elif args.algo == "dmd":
            model = fit_svd_dmd(pair, rtol=args.rtol)
        elif args.algo == "edmd":
            dictionary = build_dictionary(args.dict, pair.n_observables, snapshots=pair.x)
            model = fit_edmd(pair, dictionary, rtol=args.rtol)
        else:
            model = fit_kernel_edmd(pair, parse_kernel(args.kernel), rtol=args.rtol)
    except MemoryError as err:
        raise ConfigError(f"a {args.algo} fit of {pair.n_observables} observables x "
                          f"{pair.n_columns} column pairs is too large to allocate: "
                          f"{str(err) or 'out of memory'}") from None
    del pair  # the model keeps what it needs of the data; saving it needs none

    for flag in model.flags:
        _note(f"note: {flag}")
    if "training" not in model.residuals:
        _note("note: no modes, so training_residual is the lifted residual")

    record = ModelRecord(
        algorithm=args.algo,
        model=model,
        rtol=args.rtol,
        embed_h=args.embed,
        augment_inputs=args.augment_inputs,
        base_split=split,
    )
    save_model(record, args.out)
    _note(f"wrote model to {args.out}")

    values = model.eigenvalues
    table = np.column_stack([
        values.real, values.imag, np.full(values.shape, model.fit_residual),
    ])
    sys.stdout.write("index,re,im,training_residual\n")
    write_rows(sys.stdout, table + 0.0, labels=np.arange(table.shape[0]))
    return 0


def _training_pair(args):
    """The snapshot pairs of all ``--data`` files as one, and the first file's split.

    The trajectories are dropped on return, so the fit holds the data once."""
    trajectories = [load_trajectory(path) for path in args.data]
    first = trajectories[0]
    split = (first.n_states, first.n_inputs, first.n_disturbances)
    pairs = []
    for traj in trajectories:
        work = delay_embed(traj, args.embed) if args.embed > 1 else traj
        pairs.append(snapshot_pairs(work, augment_inputs=args.augment_inputs))
    return concat_pairs(pairs), split


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


def _initial_condition(record: ModelRecord, rows: np.ndarray) -> np.ndarray:
    """Assemble the model's observable vector from raw history rows.

    A model takes embed_h consecutive rows, oldest first, and restacks them
    the way the training pipeline did. Models fit with --augment-inputs take
    whole data rows and stack the states block first, then the held inputs
    and disturbances, each block ordered oldest to newest; other models take
    rows of states only.
    """
    h, dim = record.embed_h, record.model.features.input_dim
    if rows.shape[0] != h:
        raise DataError(f"model needs {h} history row{'s' * (h > 1)}, got {rows.shape[0]}")
    split = (rows.shape[1], 0, 0)  # states only: the rows stack as they are
    if record.augment_inputs and record.base_split:
        split = record.base_split
    ends = np.cumsum((0, *split))
    if rows.shape[1] != ends[-1]:
        raise DataError(f"history rows have {rows.shape[1]} values, expected {ends[-1]}")
    g0 = np.concatenate([rows[:, a:b].reshape(-1) for a, b in zip(ends[:-1], ends[1:])])
    if g0.size != dim:
        raise DataError(f"initial condition has {g0.size} values, model expects {dim}")
    return g0


def cmd_predict(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"steps must be non-negative, got {args.steps}")
    record = load_model(args.model)
    from .data import load_rows

    g0 = _initial_condition(record, load_rows(args.ic, "initial-condition file"))
    forecast = predict(record.model, g0, args.steps)
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


def _quiet_stdout() -> None:
    """Point stdout at devnull, so the flush at exit cannot fail again.

    This is the recipe for a closed pipe in the Python docs (signal module).
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a failed write shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head` does
        _quiet_stdout()
        return 1
    except OSError as err:  # the files a command writes raise DataError
        _quiet_stdout()
        _note(f"error: cannot write standard output: {err}")
        return 3
    except ConfigError as err:
        _note(f"error: {err}")
        return 2
    except (DataError, ShapeError) as err:
        _note(f"error: {err}")
        return 3
    except NumericalError as err:
        _note(f"error: {err}")
        return 4


def run() -> int:
    """Program entry of ``python -m dmdkit.cli`` and the ``dmdkit`` script.

    ``gc.freeze()`` puts every object alive once this module's imports are
    done, numpy's above all, out of the collector's reach, so neither the
    collections during the command nor the full collection at interpreter
    exit walk them again. That suits a process that ends after one command;
    ``main(argv)`` called in-process leaves the collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
