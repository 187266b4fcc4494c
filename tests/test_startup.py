"""What a dmdkit process loads, and the program entry's garbage-collector freeze.

``import dmdkit`` loads no submodule until one of its names is used, and each
CLI subcommand loads only the modules it runs. The checks that depend on a
fresh interpreter run in a child process.
"""

import gc
import importlib
import json
import subprocess
import sys

import pytest

import dmdkit
from dmdkit.cli import main

SUBMODULES = ["data", "dmd", "edmd", "errors", "kernel_edmd", "linalg",
              "model_io", "observables", "systems"]

# Runs the CLI the way ``python -m dmdkit.cli`` does, then prints the dmdkit
# modules it loaded and the collector's freeze count as the last stdout line.
PROGRAM = """
import gc, json, runpy, sys
sys.argv = ["dmdkit", *sys.argv[1:]]
try:
    runpy.run_module("dmdkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.startswith("dmdkit")),
    "frozen": gc.get_freeze_count(),
}))
"""


def run_program(argv, cwd):
    proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report


def child_json(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def fitted(tmp_path):
    """A dmd model of a rotation and a one-row initial condition."""
    data = tmp_path / "rot.csv"
    assert main(["simulate", "--system", "rotation", "--theta", "0.5",
                 "--steps", "20", "--out", str(data)]) == 0
    assert main(["fit", "--algo", "dmd", "--data", str(data),
                 "--out", str(tmp_path / "model.json")]) == 0
    (tmp_path / "ic.csv").write_text("1,0\n")
    return tmp_path


def test_each_subcommand_loads_only_what_it_runs(fitted, capsys):
    capsys.readouterr()
    simulate = run_program(["simulate", "--system", "rotation", "--theta", "0.5",
                            "--steps", "5"], fitted)
    assert simulate["modules"] == ["dmdkit", "dmdkit._text", "dmdkit.data",
                                   "dmdkit.errors", "dmdkit.systems"]
    for argv in (["spectrum", "model.json"], ["predict", "model.json", "ic.csv", "3"]):
        report = run_program(argv, fitted)
        assert "dmdkit.model_io" in report["modules"]
        assert "dmdkit.systems" not in report["modules"]


def test_program_entry_freezes_the_collector(fitted):
    assert run_program(["spectrum", "model.json"], fitted)["frozen"] > 0


def test_console_script_entry_freezes_the_collector():
    code = ("import gc, sys; from dmdkit.cli import run\n"
            "sys.argv = ['dmdkit', 'simulate', '--system', 'rotation', '--theta', '0.5',"
            " '--steps', '2', '--out', '/dev/null']\n"
            "assert run() == 0\n"
            "print(gc.get_freeze_count())")
    assert child_json(code) > 0


def test_in_process_main_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    assert main(["simulate", "--system", "rotation", "--theta", "0.5",
                 "--steps", "2", "--out", str(tmp_path / "rot.csv")]) == 0
    assert gc.get_freeze_count() == before


def test_import_dmdkit_loads_submodules_on_first_use():
    code = f"""
import json, sys
import dmdkit
before = sorted(m for m in sys.modules if m.startswith("dmdkit"))
trajectory = dmdkit.Trajectory
after_name = sorted(m for m in sys.modules if m.startswith("dmdkit"))
names = {{s: getattr(dmdkit, s).__name__ for s in {SUBMODULES!r}}}
print(json.dumps([before, after_name, names]))
"""
    before, after_name, names = child_json(code)
    assert before == ["dmdkit"]
    assert after_name == ["dmdkit", "dmdkit._text", "dmdkit.data", "dmdkit.errors"]
    assert names == {s: f"dmdkit.{s}" for s in SUBMODULES}


@pytest.mark.parametrize("name", dmdkit.__all__)
def test_public_name_is_its_home_module_object(name):
    home = f"dmdkit.{dmdkit._HOME[name]}"
    value = getattr(dmdkit, name)
    assert value is getattr(importlib.import_module(home), name)
    # classes and functions: the table names the module that defines them
    assert getattr(value, "__module__", home) == home


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from dmdkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dmdkit.__all__)
    assert all(namespace[name] is getattr(dmdkit, name) for name in dmdkit.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dmdkit.no_such_name
    with pytest.raises(ImportError):
        exec("from dmdkit import no_such_name", {})
    assert not hasattr(dmdkit, "cli_main")


def test_dir_lists_all():
    listed = dir(dmdkit)
    assert set(dmdkit.__all__) <= set(listed)
    assert "__version__" in listed
