"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

For each workload it runs one round in child processes and one traced round
in this process, and requires that:

* both rounds pass every check, and the traced run prints the same standard
  output as the child processes, command for command;
* each check fails on a deliberately corrupted output: a perturbed
  eigenvalue row in the spectrum (the one matching e^{i theta_1}, and for
  the workloads whose whole spectrum is known, one matching none),
  a forecast shifted by one row, and one changed byte in a refit model file.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
from tracing import Tracer, install
from workloads import SMALL_SIZES, Checker, CheckError, check_forecast, check_spectrum, prepare

import numpy as np  # noqa: E402  (after run, which fixes BLAS threads)


def expect_failure(label: str, check) -> None:
    try:
        check()
    except CheckError:
        return
    raise SystemExit(f"selftest: {label} was not caught")


def perturbed_spectrum(text: str, expected: np.ndarray, nearest: bool = True) -> str:
    """Scale one eigenvalue row by 1 + 1e-3: the row nearest ``expected[0]``,
    or with ``nearest=False`` the row farthest from every expected value."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    if nearest:
        index = np.argmin(np.abs(values - expected[0]))
    else:
        index = np.argmax(np.min(np.abs(values[:, None] - expected[None, :]), axis=1))
    row = rows[int(index)]
    value = (float(row[1]) + 1j * float(row[2])) * (1 + 1e-3)
    row[1:5] = [repr(value.real), repr(value.imag), repr(abs(value)), row[4]]
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def shifted_forecast(text: str) -> str:
    """Replace the values of forecast row 2 by those of row 3."""
    lines = text.splitlines()
    step, _, _ = lines[2].partition(",")
    lines[2] = step + "," + lines[3].partition(",")[2]
    return "\n".join(lines) + "\n"


def changed_byte(data: bytes) -> bytes:
    """Change the middle digit of the model file to another digit."""
    middle = len(data) // 2
    index = next(i for i in range(middle, len(data)) if chr(data[i]).isdigit())
    digit = b"1" if data[index:index + 1] != b"1" else b"2"
    return data[:index] + digit + data[index + 1:]


def selftest_workload(name: str, workdir) -> None:
    job = prepare(name, seed=7, workdir=workdir, sizes=SMALL_SIZES[name])
    checker = Checker(job, workdir)

    _, outputs, failed = run.child_round(job, workdir, run.child_env())
    if failed:
        raise SystemExit(f"selftest: {name}: {failed} commands failed in child processes")
    checker.check(outputs)
    child_stdout = {(stage, i): path.read_bytes()
                    for stage, paths in outputs.items() for i, path in enumerate(paths)}
    spectrum_text = outputs["spectrum"][0].read_text()
    forecast_text = outputs["predict"][0].read_text()
    model_bytes = (workdir / job.model).read_bytes()

    tracer = Tracer()
    uninstall = install(tracer)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        _, outputs, failed = run.traced_round(job, workdir, tracer)
    finally:
        os.chdir(cwd)
        uninstall()
    if failed:
        raise SystemExit(f"selftest: {name}: {failed} commands failed in the traced run")
    checker.check(outputs)  # includes the byte-identical refit check
    for stage, paths in outputs.items():
        for i, path in enumerate(paths):
            if path.read_bytes() != child_stdout[(stage, i)]:
                raise SystemExit(f"selftest: {name}: traced {stage} stdout differs "
                                 "from the child process")
    if not tracer.spans:
        raise SystemExit(f"selftest: {name}: the traced run recorded no spans")

    bad = workdir / "corrupt.csv"
    bad.write_text(perturbed_spectrum(spectrum_text, job.eigenvalues))
    expect_failure(f"{name}: perturbed eigenvalue row",
                   lambda: check_spectrum(bad, name, job.eigenvalues))
    if name != "kernel-gauss":  # its spectrum may hold any further eigenvalues
        bad.write_text(perturbed_spectrum(spectrum_text, job.eigenvalues, nearest=False))
        expect_failure(f"{name}: perturbed extra eigenvalue row",
                       lambda: check_spectrum(bad, name, job.eigenvalues))
    bad.write_text(shifted_forecast(forecast_text))
    expect_failure(f"{name}: shifted forecast row",
                   lambda: check_forecast(bad, name, job.forecast))
    (workdir / job.model).write_bytes(changed_byte(model_bytes))
    expect_failure(f"{name}: changed byte in a refit model file",
                   lambda: checker.check(outputs))
    print(f"selftest: {name}: ok")


def main() -> int:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    root = run.WORK / f"selftest-{os.getpid()}"
    try:
        for name in SMALL_SIZES:
            workdir = root / name
            workdir.mkdir(parents=True)
            selftest_workload(name, workdir)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print("selftest: all checks ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
