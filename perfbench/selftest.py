"""Smoke-size self-test of the benchmark.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that, at tiny sizes and one pass per workload,

* every workload prints every metric named in ``BENCHMARK.json`` with its
  unit, exits 0 and reports no failed cell, untraced and traced;
* the traced layer seconds plus ``unattributed_s`` add up to the traced
  pass, and two traced runs of the same seed give identical counts;
* today's reference counts hold: 754 underlying-graph builds for
  ``tree-mis`` at n = 2000 (seed 1), and 3 to 7 CSR builds per cell of the
  two pipeline workloads;
* an injected unverified cell, and an injected cell whose rounds change
  between passes, each make the benchmark exit non-zero;
* with only ``BENCHMARK.json`` and ``perfbench/`` present, the benchmark
  exits non-zero without printing a result.

``--inject FAULT -- ARGS`` is the helper mode the fault checks run in a
child process: it registers a faulty algorithm family, points the
``thm12-tree`` workload at it and runs the benchmark with ``ARGS``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402


def benchmark(*args: str, script: str = os.path.join(HERE, "run.py"), cwd=ROOT):
    command = [sys.executable, script, *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def result_of(process) -> dict:
    return json.loads(process.stdout.splitlines()[-1])


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    process = benchmark("--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace), "--smoke")
    assert process.returncode == 0, (workload, trace, process.stderr)
    result = result_of(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    return result


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in declared}, (where, sorted(printed))
    for metric in declared:
        entry = printed[metric["name"]]
        assert entry["unit"] == metric["unit"], (where, metric, entry)
        assert isinstance(entry["value"], (int, float)), (where, metric, entry)


def check_workloads(spec: dict) -> None:
    counts = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        check_metrics(smoke(name, 0), spec["end_to_end"], f"{name} untraced")
        traced = smoke(name, 1)
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        metrics = {key: entry["value"] for key, entry in traced["metrics"].items()}
        layer_sum = sum(metrics[key] for key in layers.TIME_METRICS)
        total = layer_sum + metrics["unattributed_s"]
        assert abs(total - metrics["traced_pass_s"]) < 1e-6, (name, total, metrics)
        assert metrics["unattributed_s"] >= 0, (name, metrics)
        again = smoke(name, 1)["metrics"]
        for key in layers.COUNT_METRICS:
            assert again[key]["value"] == metrics[key], (name, key, again[key], metrics[key])
        counts[name] = metrics
        print(f"ok  {name}: metrics, units, layer sum and repeat counts")
    assert counts["thm12-tree"]["semigraph.gather_s"] > 0
    assert counts["thm15-edge-coloring"]["semigraph.gather_s"] == 0


def check_reference_counts() -> None:
    experiments = run.load_program()
    tracer = layers.install()
    try:
        tree_mis = experiments.Cell("perfbench", "random-tree", "tree-mis", 2000, 1)
        experiments.run_cell("perfbench", tree_mis)
        builds = tracer.cell_counts("semigraph.underlying_graph_builds")
        assert builds[tree_mis.fingerprint] == 754, builds
        cells = [
            cell
            for name in ("thm12-tree", "thm15-edge-coloring")
            for cell in run.WORKLOADS[name].listing(experiments, 1, smoke=True)
        ]
        for cell in cells:
            experiments.run_cell("perfbench", cell)
        csr = tracer.cell_counts("local.csr_builds")
        for cell in cells:
            assert 3 <= csr[cell.fingerprint] <= 7, (cell, csr[cell.fingerprint])
    finally:
        tracer.uninstall()
    print("ok  reference counts: 754 underlying-graph builds, 3-7 CSR builds per cell")


def check_injected_faults() -> None:
    for fault, trace in (("unverified", "0"), ("unstable", "1")):
        process = benchmark("--inject", fault, "--", "--workload", "thm12-tree",
                            "--seed", "1", "--seconds", "0", "--trace", trace,
                            "--smoke", script=os.path.abspath(__file__))
        assert process.returncode != 0, (fault, process.stdout, process.stderr)
        result = result_of(process)
        assert not result["correct"] and result["failed"] >= 1, (fault, result)
        print(f"ok  injected {fault} cell: exit {process.returncode}, "
              f"{result['failed']} failed")


def check_without_program() -> None:
    isolated = os.path.join(run.OUT, "isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = benchmark("--workload", "thm12-tree", "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            script=os.path.join("perfbench", "run.py"), cwd=isolated)
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    assert process.returncode != 0, process.stdout
    assert '"correct"' not in process.stdout, process.stdout
    print(f"ok  without the program: exit {process.returncode}, no result")


def inject(fault: str, argv: list[str]) -> int:
    """Run the benchmark with ``thm12-tree`` pointed at a faulty family."""
    experiments = run.load_program()
    calls = itertools.count(1)
    outcomes = {
        "unverified": lambda graph, generator, n: {"rounds": 1, "verified": False},
        "unstable": lambda graph, generator, n: {"rounds": next(calls), "verified": True},
    }
    experiments.register_algorithm(experiments.AlgorithmFamily(
        name=f"perfbench-{fault}", description=f"self-test fault: {fault}",
        kind="baseline", run=outcomes[fault],
    ))
    run.WORKLOADS["thm12-tree"] = dataclasses.replace(
        run.WORKLOADS["thm12-tree"], cells=(("random-tree", f"perfbench-{fault}", 50),)
    )
    return run.main(argv)


def main() -> int:
    if sys.argv[1:2] == ["--inject"]:
        return inject(sys.argv[2], sys.argv[4:])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_workloads(spec)
    check_reference_counts()
    check_injected_faults()
    check_without_program()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
