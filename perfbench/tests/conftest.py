"""Make the benchmark modules and the package source importable for the
benchmark's self-tests (``python3 -m pytest perfbench/tests``)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
