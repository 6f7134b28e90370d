"""Helpers shared by the test modules."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import designlab


def _run_optimized(script: str) -> int:
    env = dict(os.environ,
               PYTHONPATH=str(Path(designlab.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          timeout=120).returncode


@pytest.fixture
def run_optimized():
    """Run a script under python -O; returns its exit status."""
    return _run_optimized


@pytest.fixture
def refused_under_optimize():
    """Whether a snippet raises InternalCheckError under python -O, which
    strips bare asserts."""
    def refused(body: str) -> bool:
        script = ("from designlab.errors import InternalCheckError\n"
                  "try:\n" + textwrap.indent(body, "    ")
                  + "\nexcept InternalCheckError:\n"
                  "    raise SystemExit(0)\n"
                  "raise SystemExit(1)\n")
        return _run_optimized(script) == 0
    return refused
