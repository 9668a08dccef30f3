"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import bpfhelm


@pytest.fixture
def child_env():
    """Environment for a child Python process that imports the same bpfhelm
    as this run: its source directory leads PYTHONPATH."""
    src = str(Path(bpfhelm.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}
