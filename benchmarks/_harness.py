"""Helpers shared by the experiment benchmarks.

Two kinds of output are produced under ``benchmarks/results/``:

* plain-text :class:`MeasurementTable` renderings (``<name>.txt``) for
  humans, and
* machine-readable JSON (``<name>.json``) so the performance trajectory
  can be compared across PRs — the CI workflow uploads these as
  artifacts.  Every scenario entry records at least the scenario name,
  the instance size ``n``, the wall-clock seconds and (for simulator
  scenarios) the round and message counts.

Each JSON payload is additionally mirrored to a canonical
``BENCH_<suffix>.json`` at the repository root (``bench_engine`` →
``BENCH_engine.json``), which is the documented, stable location the
per-PR perf trajectory is tracked from; the ``benchmarks/results/``
copies stay where the existing CI artifact uploads expect them.  The
root copies are gitignored — they are run outputs, not sources.
"""

import json
import os
import platform
import sys
import time

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_table(name: str, table) -> None:
    """Print a MeasurementTable and persist it under benchmarks/results/."""
    text = table.render()
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def scenario_entry(
    scenario: str,
    n: int,
    wall_clock_s: float,
    rounds: int | None = None,
    messages: int | None = None,
    **extras,
) -> dict:
    """One machine-readable benchmark data point."""
    entry = {
        "scenario": scenario,
        "n": n,
        "wall_clock_s": round(wall_clock_s, 6),
        "rounds": rounds,
        "messages": messages,
    }
    entry.update(extras)
    return entry


def canonical_bench_path(name: str) -> str:
    """The repo-root ``BENCH_*.json`` path for a benchmark ``name``.

    ``bench_engine`` → ``<repo>/BENCH_engine.json``; a name without the
    ``bench_`` prefix keeps its full form (``BENCH_<name>.json``).
    """
    suffix = name[len("bench_"):] if name.startswith("bench_") else name
    return os.path.join(REPO_ROOT, f"BENCH_{suffix}.json")


def record_json(name: str, entries: list, meta: dict | None = None) -> str:
    """Persist benchmark entries as ``benchmarks/results/<name>.json``.

    Returns the path written.  The payload carries enough environment
    metadata to interpret wall-clock numbers across machines.  The same
    payload is mirrored to the canonical repo-root ``BENCH_*.json``
    location (see :func:`canonical_bench_path`).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "name": name,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "entries": list(entries),
    }
    if meta:
        payload["meta"] = dict(meta)
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(canonical_bench_path(name), "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def timed(callable_):
    """Run ``callable_`` and return ``(result, wall_clock_seconds)``."""
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start
