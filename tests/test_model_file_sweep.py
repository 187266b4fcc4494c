"""A fixed mutation sweep over model files, run through ``cli.main``.

Six model files are fitted through the command line: ``dmd``, ``companion``,
``edmd poly:2``, ``kernel-edmd gaussian:1``, shift-map ``edmd identity``
(flagged eigenvector_basis_singular) and ``dmd --embed 2``. Each key of each
file is deleted and set to values of the wrong type and to boundary values,
and each matrix payload is cut short by one double and has its first double
changed. ``spectrum`` and ``predict`` then run on every mutated file. Each
run must exit 0, 2, 3 or 4, and a nonzero exit must print nothing and write
exactly one ``error:`` line. An exit-0 run whose output differs from the
unmutated file's must be a case ``allowed`` names: a well-formed file of
another model.

``sweep(workdir)`` returns every run's exit codes by mutation, so two builds
can be compared mutation by mutation: ``python -c "import sys; sys.path[:0] =
['src', 'tests']; import test_model_file_sweep as t, pathlib, json;
print(json.dumps(t.sweep(pathlib.Path(sys.argv[1]))))" DIR``.
"""

import base64
import contextlib
import copy
import io
import json
import time

import numpy as np

from dmdkit.cli import main

DELETE = "delete"
# wrong types and boundary values; each replaces every key in turn
VALUES = [None, True, 0, 1, 2, -1, 10**30, 0.5, 1e300, "", "x", [], {}]
# the module's whole sweep took about 8 s on a 2-core host
TIME_BOUND_S = 60.0

DATA = {
    # 0.9 +- 0.3i: a spectrum with an imaginary part
    "linear": ["--system", "linear", "--a", "0.9,-0.3;0.3,0.9", "--x0", "1,0.5",
               "--steps", "12"],
    "quadratic": ["--system", "quadratic", "--mu", "0.9", "--lam", "0.5", "--c", "0.4",
                  "--x0", "1,-0.4", "--steps", "16"],
}
FITS = {
    "dmd": ("linear", ["--algo", "dmd"]),
    "companion": ("linear", ["--algo", "companion"]),
    "edmd-poly2": ("quadratic", ["--algo", "edmd", "--dict", "poly:2"]),
    "kernel-gaussian1": ("quadratic", ["--algo", "kernel-edmd", "--kernel", "gaussian:1"]),
    # x -> (x2, 0), whose eigenvector basis is singular
    "shift-map": ("shift", ["--algo", "edmd", "--dict", "identity"]),
    "dmd-embed2": ("linear", ["--algo", "dmd", "--embed", "2"]),
}


def run_cli(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; an exception that escapes
    it is recorded as its class name in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as escaped:  # the sweep reports it as an undocumented exit
            code = type(escaped).__name__
    return code, out.getvalue(), err.getvalue()


def build(workdir):
    """Fit the six model files in ``workdir``; return {name: (model path, ic path)}."""
    for name, argv in DATA.items():
        assert run_cli(["simulate", *argv, "--out", str(workdir / f"{name}.csv")])[0] == 0
    (workdir / "shift.csv").write_text("t,x1,x2\n0,0,1\n1,1,0\n2,0,0\n")
    files = {}
    for name, (data, argv) in FITS.items():
        model = workdir / f"{name}.json"
        assert run_cli(["fit", *argv, "--data", str(workdir / f"{data}.csv"),
                        "--out", str(model)])[0] == 0
        fit = json.loads(model.read_text())["fit"]
        h = fit["embed_h"]
        rows = np.linspace(-0.4, 0.6, fit["observable_dim"]).reshape(h, -1)
        ic = workdir / f"{name}-ic.csv"
        ic.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        files[name] = model, ic
    return files


def _targets(node, path=()):
    """The path of every key and list entry under ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _targets(value, (*path, key))


def _packed(raw):
    return base64.b64encode(raw).decode("ascii")


def mutations(original):
    """(target, change, mutated payload) for every mutation of one model file."""
    for target in _targets(original):
        holder = original
        for key in target[:-1]:
            holder = holder[key]
        changes = [(DELETE, None), *((repr(value), value) for value in VALUES)]
        if target[-1] in ("real", "imag") and isinstance(holder[target[-1]], str):
            raw = base64.b64decode(holder[target[-1]], validate=True)
            first = np.frombuffer(raw[:8], "<f8")[0]
            changes += [("one double short", _packed(raw[:-8])),
                        ("first double changed",
                         _packed(np.array([first + 0.5], "<f8").tobytes() + raw[8:]))]
        for change, value in changes:
            payload = copy.deepcopy(original)
            place = payload
            for key in target[:-1]:
                place = place[key]
            if change == DELETE:
                del place[target[-1]]
            else:
                place[target[-1]] = value
            yield target, change, payload


def allowed(target, change, original, payload):
    """Why an exit-0 run may differ from the unmutated file's, or None.

    Each case is a well-formed file of another model; a checksum would only
    refuse hand edits, and nothing asks for that.
    """
    if change == "first double changed":
        return "changed stored doubles"
    if target == ("matrices", "eigenvalues", "imag") and change == DELETE:
        return "a deleted eigenvalues.imag: an all-real spectrum"
    if target == ("fit", "inputs"):
        return "a fit.inputs change that still splits the data row validly"
    if original["flags"] and payload.get("flags") == []:
        # open until a model file stores kappa_1 and the loader derives the flag
        return '"flags": [] loads as unflagged'
    return None


def sweep(workdir):
    """{"file target change": [spectrum exit, predict exit]} for every mutation."""
    codes = {}
    for name, target, change, _, _, runs in _runs(workdir):
        codes[f"{name} {'/'.join(map(str, target))} {change}"] = [run[0] for run in runs]
    return codes


def _runs(workdir):
    """(file, target, change, original, mutated payload, [(code, out, err) of
    spectrum and predict]) per mutation, the unmutated file's first with
    target () and change None."""
    for name, (model, ic) in build(workdir).items():
        original = json.loads(model.read_text())
        mutated = workdir / f"{name}-mutated.json"
        commands = (["spectrum", str(mutated)], ["predict", str(mutated), str(ic), "3"])
        for target, change, payload in [((), None, original), *mutations(original)]:
            mutated.write_text(json.dumps(payload))
            yield name, target, change, original, payload, [run_cli(argv) for argv in commands]


def test_every_model_file_mutation_exits_0_2_3_or_4_with_one_error_line(tmp_path):
    start = time.perf_counter()
    failures, allowed_seen, count = [], set(), 0
    baseline = {}
    for name, target, change, original, payload, runs in _runs(tmp_path):
        if change is None:
            baseline[name] = runs
            continue
        for (code, out, err), want in zip(runs, baseline[name]):
            count += 1
            label = f"{name} {'/'.join(map(str, target))} {change}: exit {code}"
            if code not in (0, 2, 3, 4):
                failures.append(f"{label}, undocumented")
            elif code and (out or len(err.splitlines()) != 1 or not err.startswith("error: ")):
                failures.append(f"{label}, out {out[:40]!r}, err {err[:80]!r}")
            elif code == 0 and (code, out) != want[:2]:
                reason = allowed(target, change, original, payload)
                if reason is None:
                    failures.append(f"{label}, output changed")
                allowed_seen.add(reason)
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} of {count} runs: " + "; ".join(failures[:20])
    assert count > 4000
    # every allowlisted class shows up, so none is dead weight
    assert allowed_seen == {
        "changed stored doubles", "a deleted eigenvalues.imag: an all-real spectrum",
        "a fit.inputs change that still splits the data row validly",
        '"flags": [] loads as unflagged',
    }
    assert elapsed < TIME_BOUND_S
