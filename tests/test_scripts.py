"""The shell and Python examples shipped with the project run as written.

``tests/cli_smoke.sh`` is the script CI runs against the installed ``dmdkit``
console script; here it runs against this checkout's ``src`` through a
``dmdkit`` shim on ``PATH``. The README's Quick-start Python blocks and its
"Command line" ``sh`` block run the same way, and the values their comments
promise are checked.
"""

import ast
import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture
def shim_path(tmp_path):
    """A PATH whose ``dmdkit`` runs ``python -m dmdkit.cli`` from this checkout.

    ``python`` is this interpreter too, so the scripts' own Python lines see
    the numpy the tests run with.
    """
    missing = [tool for tool in ("bash", "awk", "sed", "grep", "cmp", "wc")
               if shutil.which(tool) is None]
    if missing:
        pytest.skip(f"the scripts are bash and need {', '.join(missing)}, not found on PATH")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shims = {
        "dmdkit": f'export PYTHONPATH="{SRC}${{PYTHONPATH:+:$PYTHONPATH}}"\n'
                  f'exec "{sys.executable}" -m dmdkit.cli "$@"\n',
        "python": f'exec "{sys.executable}" "$@"\n',
    }
    for name, body in shims.items():
        shim = bin_dir / name
        shim.write_text("#!/bin/sh\n" + body)
        shim.chmod(0o755)
    return f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"


def run_bash(script: Path, cwd: Path, path: str) -> subprocess.CompletedProcess:
    work = cwd / "work"
    work.mkdir()
    return subprocess.run(["bash", "-e", str(script)], cwd=work, env={**os.environ, "PATH": path},
                          capture_output=True, text=True, timeout=300)


def readme_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks of the README section headed ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", body, flags=re.M | re.S)


def test_cli_smoke_script_passes(tmp_path, shim_path):
    proc = run_bash(ROOT / "tests" / "cli_smoke.sh", tmp_path, shim_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_readme_command_line_block_runs(tmp_path, shim_path):
    (block,) = readme_blocks("Command line", "sh")
    script = tmp_path / "command_line.sh"
    script.write_text(block)
    proc = run_bash(script, tmp_path, shim_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    # the last command forecasts 10 steps: a header and one row per step
    assert lines[-11] == "step,g1,g2" and lines[-1].startswith("10,")


def test_readme_quick_start_prints_what_its_comments_say():
    linear, nonlinear = readme_blocks("Quick start", "python")
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(linear, "README.md", "exec"), namespace)
    promised = re.findall(r"^print\((.*)\)\s+# (.*)$", linear, flags=re.M)
    assert len(promised) == 2  # the eigenvalues and the two-step forecast
    for expression, comment in promised:
        assert_allclose(eval(expression, namespace), ast.literal_eval(comment), atol=1e-12)

    exec(compile(nonlinear, "README.md", "exec"), namespace)
    assert "# spectrum contains 0.9, 0.5, and 0.81 = 0.9^2" in nonlinear
    values = namespace["model"].eigenvalues
    for value in (0.9, 0.5, 0.81):
        assert np.min(np.abs(values - value)) < 1e-12, (value, values)
