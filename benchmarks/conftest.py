"""Pytest bootstrap for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one experiment of the paper as a
pytest-benchmark module; the scientific output (round counts,
decomposition statistics, analytic predictions) goes through
:func:`_harness.record_table`.  This file only makes ``src/`` importable
when the package is not installed.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
