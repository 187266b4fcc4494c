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
    from .dmd import SpectralModel


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


# control characters and line separators, escaped so quoted input keeps an error one line
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


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


def _print_table(columns: list[str], table: np.ndarray, labels) -> None:
    """Print ``columns`` as a header line, then each row of ``table`` after its label.
    ``table += 0.0`` turns -0.0 into 0 in place, so a long forecast is not copied."""
    sys.stdout.write(",".join(columns) + "\n")
    table += 0.0
    write_rows(sys.stdout, table, labels=labels)


def _require_flag(value, flag: str, context: str):
    if value is None:
        raise ConfigError(f"{context} requires {flag}")
    return value


# ------------------------------------------------------------------ simulate


def cmd_simulate(args) -> int:
    from dataclasses import replace

    from .systems import (
        forced_linear_system,
        linear_system,
        quadratic_system,
        rotation_system,
    )

    kind = args.system
    steps = args.steps
    try:  # a flag value of the wrong shape is a usage error
        if kind == "linear":
            a = _parse_matrix(_require_flag(args.a, "--a", "--system linear"), "--a")
            x0 = _parse_vector(_require_flag(args.x0, "--x0", "--system linear"), "--x0")
            spec = linear_system(a, x0, steps)
        elif kind == "rotation":
            theta = _require_flag(args.theta, "--theta", "--system rotation")
            x0 = _parse_vector(args.x0, "--x0") if args.x0 else (1.0, 0.0)
            spec = rotation_system(theta, steps, x0=x0)
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
    except ShapeError as err:
        raise ConfigError(str(err)) from None
    traj = simulate(replace(spec, observe=args.observe))
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
    from dataclasses import replace

    from .dmd import fit_companion
    from .linalg import check_rtol
    from .observables import build_dictionary, parse_kernel

    check_rtol(args.rtol)  # for every fitter, before any data
    kernel = None if args.kernel is None else parse_kernel(args.kernel)  # before any data
    size = "the data in " + ", ".join(args.data)  # until the pair's shape is known
    try:  # data, a Gram matrix, lift, SVD or model file that cannot be allocated is a usage error
        pair, inputs = _training_pair(args)
        size = f"{pair.n_observables} observables x {pair.n_columns} column pairs"
        _note(f"fit {args.algo}: {size}")
        if args.algo == "companion":
            model = fit_companion(pair)
        elif args.algo == "dmd":
            model = fit_svd_dmd(pair, rtol=args.rtol)
        elif args.algo == "edmd":
            dictionary = build_dictionary(args.dict, pair.n_observables, snapshots=pair.x)
            model = fit_edmd(pair, dictionary, rtol=args.rtol)
        else:
            model = fit_kernel_edmd(pair, kernel, rtol=args.rtol)
        del pair  # the model keeps what it needs of the data; saving it needs none
        model = replace(model, embed_h=args.embed, inputs=inputs)
        for flag in model.flags:
            _note(f"note: {flag}")
        save_model(model, args.out)
    except MemoryError as err:
        raise ConfigError(f"a {args.algo} fit of {size} is too large to allocate: "
                          f"{str(err) or 'out of memory'}") from None
    _note(f"wrote model to {args.out}")

    values = model.eigenvalues
    table = np.column_stack([
        values.real, values.imag, np.full(values.shape, model.fit_residual),
    ])
    _print_table(["index", "re", "im", "training_residual"], table, np.arange(values.size))
    return 0


def _training_pair(args):
    """The snapshot pairs of all ``--data`` files as one, and their held-input count.

    The count is the input columns of every file with ``--augment-inputs``,
    which refuses files that split states from inputs differently; it is 0
    without. The trajectories are dropped on return, so the fit holds the
    data once."""
    trajectories = [load_trajectory(path) for path in args.data]
    split = trajectories[0].n_states, trajectories[0].n_inputs
    pairs = []
    for path, traj in zip(args.data, trajectories):
        if args.augment_inputs and (traj.n_states, traj.n_inputs) != split:
            raise DataError(
                f"--augment-inputs needs one state/input split, but {args.data[0]} has "
                f"{split[0]} x and {split[1]} u columns and {path} has "
                f"{traj.n_states} x and {traj.n_inputs} u columns")
        work = delay_embed(traj, args.embed) if args.embed > 1 else traj
        pairs.append(snapshot_pairs(work, augment_inputs=args.augment_inputs))
    return concat_pairs(pairs), split[1] if args.augment_inputs else 0


# ------------------------------------------------------------------ spectrum


def cmd_spectrum(args) -> int:
    values = np.asarray(load_model(args.model).eigenvalues)
    magnitude = np.abs(values)
    # the magnitude column prints the same numbers the rows are sorted by
    order = np.argsort(-magnitude, kind="stable")
    v = values[order]
    table = np.column_stack([v.real, v.imag, magnitude[order], np.angle(v)])
    _print_table(["index", "re", "im", "magnitude", "phase"], table, order)
    return 0


# ------------------------------------------------------------------- predict


def _initial_condition(model: SpectralModel, rows: np.ndarray, path) -> np.ndarray:
    """Assemble the model's observable vector from the history rows read from ``path``.

    A model takes embed_h consecutive rows, oldest first, and restacks them
    the way the training pipeline did. Models fit with --augment-inputs take
    whole data rows (states, then inputs) and split each at width - inputs:
    the states block comes first, then the held inputs, each ordered oldest
    to newest; other models take rows of states only.
    """
    h, dim = model.embed_h, model.features.input_dim
    if rows.shape[0] != h:
        raise DataError(f"{path}: model needs {h} history row{'s' * (h > 1)}, "
                        f"got {rows.shape[0]}")
    if rows.size != dim:
        raise DataError(f"{path}: history rows have {rows.shape[1]} values, "
                        f"expected {dim // h}")
    cut = rows.shape[1] - model.inputs
    return np.concatenate([rows[:, :cut].reshape(-1), rows[:, cut:].reshape(-1)])


def cmd_predict(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"steps must be non-negative, got {args.steps}")
    model = load_model(args.model)
    from .data import load_rows

    g0 = _initial_condition(model, load_rows(args.ic, "initial-condition file"), args.ic)
    forecast = predict(model, g0, args.steps)
    columns = ["step"] + [f"g{j}" for j in range(1, forecast.shape[1] + 1)]
    _print_table(columns, forecast, np.arange(1, forecast.shape[0] + 1))
    return 0


# ------------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is one error: line, exit 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="append the held inputs (the u and d columns) to each snapshot",
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
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a failed write shows here, not at exit
        return code
    except SystemExit as err:  # --help prints its text and exits 0
        return int(err.code or 0)
    except BrokenPipeError:  # the reader left early, as `| head` does
        _quiet_stdout()
        return 1
    except OSError as err:  # the files a command writes raise DataError
        _quiet_stdout()
        code, text = 3, f"cannot write standard output: {err}"
    except ConfigError as err:
        code, text = 2, str(err)
    except (DataError, ShapeError) as err:
        code, text = 3, str(err)
    except NumericalError as err:
        code, text = 4, str(err)
    _note("error: " + text.translate(_ESCAPES))
    return code


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
