"""Test-session setup shared by every test module.

Some tests start ``python -m dmdkit.cli`` in a temporary working directory.
A relative ``PYTHONPATH=src`` does not resolve there, so the child could not
import dmdkit; put this checkout's ``src`` on ``PYTHONPATH`` as an absolute
path for every child process the tests start.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *parts])
