"""Seeded benchmark of the dmdkit command line, end to end and per layer.

    python3 perfbench/run.py --workload dmd-wide --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every ``dmdkit`` command of a round (simulate, fit,
spectrum, predict) runs in its own child process, one at a time, and the run
reports the median wall time of each stage, the peak RSS of the fit and
predict children and the model file size. With ``--trace 1`` the same
commands run in this process through ``dmdkit.cli.main(argv)`` with spans
around each layer (see tracing.py), and the run reports per-layer times.

Rounds repeat until ``--seconds`` is used up; every output of every round is
checked against numpy references (see workloads.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child: on a small shared
# machine more BLAS threads made the fits slower and noisier, not faster.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYER_METRICS, Tracer, install  # noqa: E402
from workloads import SIZES, Checker, CheckError, prepare  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "fit_s": "s",
    "spectrum_s": "s",
    "predict_s": "s",
    "pipeline_s": "s",
    "fit_peak_rss_mb": "MB",
    "predict_peak_rss_mb": "MB",
    "model_bytes": "bytes",
}
PER_LAYER_UNITS = {"cli.import_s": "s", **{m: "s" for m in LAYER_METRICS},
                   "model_io.values_written": "count"}


def child_env() -> dict:
    """Environment of every dmdkit child: absolute src path, fixed BLAS threads."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list, workdir: Path, stdout: Path, env: dict):
    """Run ``python -m dmdkit.cli argv``; return (wall s, peak RSS MB, exit code).

    The peak RSS is this child's own (os.wait4), not the running maximum over
    all children that RUSAGE_CHILDREN would give.
    """
    with open(stdout, "wb") as out, open(workdir / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dmdkit.cli", *argv],
                                cwd=workdir, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def child_round(job, workdir: Path, env: dict):
    """One round in child processes: (metric sample, stdout paths, failures)."""
    sample = {}
    outputs = {}
    failed = 0
    for stage, commands in job.stages():
        sample[f"{stage}_s"] = 0.0
        outputs[stage] = []
        for i, argv in enumerate(commands):
            path = workdir / f"{stage}{i}.out"
            wall, rss, code = run_child(argv, workdir, path, env)
            sample[f"{stage}_s"] += wall
            if stage in ("fit", "predict"):
                sample[f"{stage}_peak_rss_mb"] = rss
            outputs[stage].append(path if code == 0 else None)
            failed += code != 0
    sample["pipeline_s"] = sum(sample[f"{s}_s"] for s, _ in job.stages())
    model = workdir / job.model
    sample["model_bytes"] = float(model.stat().st_size) if model.exists() else 0.0
    return sample, outputs, failed


def traced_round(job, workdir: Path, tracer: Tracer):
    """One round in this process under spans: (metric sample, stdout paths, failures)."""
    import dmdkit.cli

    tracer.clear()
    outputs = {}
    failed = 0
    for stage, commands in job.stages():
        outputs[stage] = []
        for i, argv in enumerate(commands):
            path = workdir / f"{stage}{i}.out"
            with open(path, "w", newline="") as out, \
                    open(workdir / "stderr.txt", "a") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    with tracer.span(f"cli.{stage}"):
                        code = dmdkit.cli.main(list(argv))
                except Exception as exc:  # a traceback the CLI let through
                    print(f"{stage}: {type(exc).__name__}: {exc}", file=err)
                    code = 1
            outputs[stage].append(path if code == 0 else None)
            failed += code != 0
    sample = tracer.layer_metrics()
    sample["model_io.values_written"] = float(values_written(workdir / job.model))
    return sample, outputs, failed


def values_written(path: Path) -> int:
    """Numbers stored in a model file, real and imaginary parts alike."""
    if not path.exists():
        return 0

    def count(node) -> int:
        if isinstance(node, dict):
            return sum(count(v) for v in node.values())
        if isinstance(node, list):
            return sum(count(v) for v in node)
        return int(isinstance(node, (int, float)) and not isinstance(node, bool))

    with open(path, encoding="utf-8") as handle:
        return count(json.load(handle))


def import_seconds(env: dict) -> float:
    """Median time a fresh child spends importing dmdkit.cli."""
    code = ("import time; t = time.perf_counter(); import dmdkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run whole rounds for ``seconds``, check them; return the result."""
    env = child_env()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        job = prepare(name, seed, workdir)
        setup_times.append(time.perf_counter() - start)

    tracer = uninstall = None
    if trace:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import_s = import_seconds(env)
        tracer = Tracer()
        uninstall = install(tracer)

    checker = Checker(job, workdir)
    samples = []
    attempted = failed = 0
    error = None
    cwd = os.getcwd()
    began = time.perf_counter()
    last = 0.0
    try:
        if trace:
            os.chdir(workdir)  # the CLI resolves the job's relative paths
        # a round starts while at least half of its expected length fits
        while not samples or time.perf_counter() - began + last / 2 <= seconds:
            round_start = time.perf_counter()
            for stale in [job.model, *(csv_name for csv_name, _ in job.trajectories)]:
                (workdir / stale).unlink(missing_ok=True)
            if trace:
                sample, outputs, bad = traced_round(job, workdir, tracer)
            else:
                sample, outputs, bad = child_round(job, workdir, env)
            attempted += sum(len(c) for _, c in job.stages())
            failed += bad
            samples.append(sample)
            if error is None:
                try:
                    checker.check(outputs)
                except CheckError as err:
                    error = str(err)
            last = time.perf_counter() - round_start
    finally:
        os.chdir(cwd)
        if uninstall is not None:
            uninstall()

    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    if trace:
        medians["cli.import_s"] = import_s
        units = PER_LAYER_UNITS
    else:
        medians["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS
    return {
        "correct": error is None,
        "error": error,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(samples),
        "metrics": {key: {"value": float(medians[key]), "unit": unit}
                    for key, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmdkit" / "cli.py").is_file():
        print(f"error: no dmdkit sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps({"env": environment(args.seed)}))
    rounds = result["rounds"]
    for key, metric in result["metrics"].items():
        count = SETUP_REPEATS if key == "setup_s" else (
            IMPORT_REPEATS if key == "cli.import_s" else rounds)
        print(f"{args.workload:14s} {key:38s} {metric['value']:14.6g} {metric['unit']:6s}"
              f" median of {count}")
    if result["error"]:
        print(f"check failed: {result['error']}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
