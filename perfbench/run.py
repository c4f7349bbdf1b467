"""End-to-end benchmark of verified cells: generate → decompose → A-phase →
gather & solve → verify.

Run from the repository root::

    python3 perfbench/run.py --workload thm12-tree --seed 1 --seconds 35 --trace 0

The program is driven only through its public functions (``run_cell``,
``SweepRunner``, ``build_report``), one cell at a time in a closed loop in
one process.  Inputs are made from ``--seed``: the same seed gives the same
cells.

A run warms up on a tiny pass, times ``setup_s`` in fresh interpreters,
then repeats passes over the workload's cells for ``--seconds`` seconds
and reports per-pass medians.  Times are in reference seconds: scaled by
a speed probe timed among the cells, so that the host's slow spells
cancel out (see ``perfbench/speed.py``).  Every cell is checked (see
:class:`Checker`); any failed cell makes the exit code 1.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, installs the layer wrappers of ``perfbench/layers.py`` and
repeats traced passes (at least two, whose exact counters must agree); it
reports the per-layer metrics of the median traced pass and writes its
spans to ``.perfbench/``.  ``--smoke`` shrinks every cell for a quick
self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space (sweep stores, span dumps) inside the checkout.
OUT = os.path.join(ROOT, ".perfbench")
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Work between speed probes in a pass, at least, and the least share of
#: that work's wall time the probes after it take.
PROBE_EVERY_S = 0.5
PROBE_SHARE = 0.25
#: Traced passes per ``--trace 1`` run, at least: their counters must agree.
MIN_TRACED_PASSES = 2
TRANSFORM_KINDS = ("tree-transform", "arboricity-transform")


def load_program():
    """Import the program from ``src/``; this is the set-up being timed."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"no program to benchmark: {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.experiments as experiments

    return experiments


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Outcome:
    """What one cell produced, or the error it raised."""

    key: str
    algorithm: str
    n: int
    verified: bool = False
    rounds: object = None
    k: object = None
    extras: object = None
    error: str | None = None

    @property
    def semantic(self) -> tuple:
        return (self.rounds, self.k, json.dumps(self.extras, sort_keys=True))


@dataclass(frozen=True)
class CellWorkload:
    """A fixed list of cells run back to back through ``run_cell``."""

    why: str
    #: ``(generator, algorithm, n)`` per cell template.
    cells: tuple[tuple[str, str, int], ...]
    #: Size of every cell under ``--smoke``.
    smoke_n: int
    #: Distinct seeds each template runs with in a pass, so that a pass
    #: averages over several inputs rather than resting on one.
    seeds: int = 1

    def listing(self, experiments, seed: int, smoke: bool):
        templates = [cell for cell in self.cells for _ in range(self.seeds)]
        return [
            experiments.Cell(
                "perfbench", generator, algorithm,
                self.smoke_n if smoke else n, seed * 100 + index,
            )
            for index, (generator, algorithm, n) in enumerate(templates)
        ]

    def run_pass(self, experiments, listing, workdir, after_cell):
        outcomes = []
        for cell in listing:
            try:
                result = experiments.run_cell("perfbench", cell)
            except Exception as error:  # noqa: BLE001 - counted as a failed cell
                outcomes.append(Outcome(cell.fingerprint, cell.algorithm, cell.n,
                                        error=repr(error)))
            else:
                outcomes.append(Outcome(
                    cell.fingerprint, cell.algorithm, cell.n, result.verified,
                    result.rounds, result.k, result.extras,
                ))
            after_cell()
        return outcomes


@dataclass(frozen=True)
class SweepWorkload:
    """Built-in suites swept into a fresh store, then reported on."""

    why: str
    suites: tuple[str, ...]

    def listing(self, experiments, seed: int, smoke: bool):
        """The suites with every measured scenario's seeds moved by ``seed``."""
        suites = []
        for name in self.suites:
            suite = experiments.get_suite(name)
            scenarios = tuple(
                scenario if scenario.is_analytic else dataclasses.replace(
                    scenario, seeds=tuple(seed * 100 + s for s in scenario.seeds)
                )
                for scenario in suite.scenarios
            )
            suites.append(dataclasses.replace(suite, scenarios=scenarios))
        return [(suite, suite.cells(smoke=smoke)) for suite in suites], smoke

    def run_pass(self, experiments, listing, workdir, after_cell):
        suites, smoke = listing
        store = experiments.ResultStore(tempfile.mkdtemp(dir=workdir))
        outcomes = []
        for suite, _ in suites:
            report = experiments.SweepRunner(suite, store, smoke=smoke).run(
                progress=lambda result: after_cell()
            )
            outcomes += [
                Outcome(failure.cell.fingerprint, failure.cell.algorithm,
                        failure.cell.n, error=failure.error)
                for failure in report.failures
            ]
        records = store.records()
        bundle = experiments.build_report(records)
        outcomes += [
            Outcome(
                record["fingerprint"], record["algorithm"],
                0 if record["generator"] == "analytic" else record["n"],
                record["verified"], record["rounds"], record["k"], record["extras"],
            )
            for record in records
        ]
        beta = bundle.theorem3_beta
        report_ok = bundle.all_verified and beta is not None and beta < 1
        outcomes.append(Outcome(
            "report", "build_report", 0, report_ok,
            error=None if report_ok else "report not verified or beta >= 1",
        ))
        return outcomes


_TREE = "random-tree"
WORKLOADS = {
    "thm12-tree": CellWorkload(
        why="Theorem 12 pipeline: tree-mis and tree-deg+1-coloring on random-tree, "
        "n=1000, 10 seeds each, closed loop, 1 process; gather_and_solve_rounds dominates",
        cells=((_TREE, "tree-mis", 1000), (_TREE, "tree-deg+1-coloring", 1000)),
        smoke_n=150,
        seeds=10,
    ),
    "thm15-edge-coloring": CellWorkload(
        why="Theorem 15 pipeline: charged-arb-edge-coloring on random-tree and "
        "arb-edge-coloring on planar-triangulation, n=5000, 2 seeds each, closed loop, "
        "1 process",
        cells=(
            (_TREE, "charged-arb-edge-coloring", 5000),
            ("planar-triangulation", "arb-edge-coloring", 5000),
        ),
        smoke_n=150,
        seeds=2,
    ),
    "suite-sweep": SweepWorkload(
        why="experiments/: SweepRunner(jobs=1) over 6 suites (158 cells listed, 148 "
        "distinct, n<=1000) into one fresh store, then build_report; many small cells",
        suites=("lower-bound", "workloads", "stress", "paper-claims", "charged",
                "orientation-lists"),
    ),
}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed cells across every pass of a run.

    A cell fails if it raised, is not verified, is a transform cell whose
    ``rounds`` differ from the sum of its ``extras.phases``, or disagrees
    on ``rounds``, ``k`` or ``extras`` with an earlier (untraced or traced)
    pass over the same cell.
    """

    def __init__(self, algorithms) -> None:
        self.algorithms = algorithms
        self.attempted = 0
        self.failures: list[str] = []
        self._reference: dict[str, tuple] = {}

    def check(self, outcomes, label: str) -> None:
        for outcome in outcomes:
            self.attempted += 1
            problem = self._problem(outcome)
            if problem is not None:
                self.failures.append(f"{label}: {outcome.key}: {problem}")

    def _problem(self, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return outcome.error
        if not outcome.verified:
            return "not verified"
        family = self.algorithms.get(outcome.algorithm)
        if family is not None and family.kind in TRANSFORM_KINDS:
            phases = (outcome.extras or {}).get("phases", {})
            if outcome.rounds != sum(phases.values()):
                return f"rounds {outcome.rounds} != sum of phases {phases}"
        reference = self._reference.setdefault(outcome.key, outcome.semantic)
        if reference != outcome.semantic:
            return f"result {outcome.semantic} differs from earlier pass {reference}"
        return None


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class PassRecord:
    #: Elapsed wall time of the pass, probes included.
    wall_s: float
    #: Wall and CPU time of the pass's cells, probes left out, in reference
    #: seconds.
    ref_wall_s: float
    ref_cpu_s: float
    verified_nodes: int
    outcomes: list
    start: float
    end: float


class Prober:
    """Speed probes spread through the timed work of one pass.

    Called after each cell: once ``PROBE_EVERY_S`` of work has run since
    the last probes, it probes for at least ``PROBE_SHARE`` of that work.
    Its own wall and CPU time are kept apart, to be taken off the pass.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.wall_s = self.cpu_s = 0.0
        self._mark = time.perf_counter()

    def __call__(self, force: bool = False) -> None:
        start = time.perf_counter()
        work = start - self._mark
        if work < PROBE_EVERY_S and not force:
            return
        cpu0 = time.process_time()
        self.probes.append(speed.probe())
        while time.perf_counter() - start < PROBE_SHARE * work:
            self.probes.append(speed.probe())
        self.cpu_s += time.process_time() - cpu0
        self._mark = time.perf_counter()
        self.wall_s += self._mark - start


def measure_pass(workload, experiments, listing, workdir, probed) -> PassRecord:
    """One pass over the workload's cells.

    With ``probed``, speed probes run before, among and after the cells (see
    :class:`Prober`), and the pass's times, probes left out, are scaled by
    the mean probe of the pass (see ``speed.py``); otherwise reference
    seconds are raw.
    """
    prober = Prober() if probed else None
    start = time.perf_counter()
    cpu0 = time.process_time()
    if prober:
        prober(force=True)
    outcomes = workload.run_pass(
        experiments, listing, workdir, prober or (lambda: None)
    )
    if prober:
        prober(force=True)
    cpu = time.process_time() - cpu0
    end = time.perf_counter()
    wall, factor = end - start, 1.0
    if prober:
        wall, cpu = wall - prober.wall_s, cpu - prober.cpu_s
        factor = speed.scale(prober.probes)
    nodes = sum(o.n for o in outcomes if o.verified)
    return PassRecord(end - start, wall * factor, cpu * factor, nodes, outcomes,
                      start, end)


def repeat_passes(run_one, seconds: float, minimum: int) -> list[PassRecord]:
    """At least ``minimum`` passes, then more while the next one, if it
    takes the median pass time, still ends within ``seconds``."""
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while len(passes) < minimum or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in passes)
        <= seconds
    ):
        passes.append(run_one())
    return passes


def setup_seconds(args) -> float:
    """Median time from process launch to the first cell ready, in
    reference seconds by the probes around the launches."""
    command = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples, probes = [], [speed.probe()]
    for _ in range(SETUP_PROBES):
        launched = time.perf_counter()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=120, check=True)
        samples.append(float(child.stdout.split()[-1]) - launched)
        probes.append(speed.probe())
    return statistics.median(samples) * speed.scale(probes)


def end_to_end_metrics(passes, setup_s, checker) -> dict:
    return {
        "pass_s": (statistics.median(p.ref_wall_s for p in passes), "s"),
        "verified_nodes_per_s": (
            statistics.median(p.verified_nodes / p.ref_wall_s for p in passes),
            "nodes/s",
        ),
        "cpu_s": (statistics.median(p.ref_cpu_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "verified_ratio": (
            1 - len(checker.failures) / max(checker.attempted, 1), "ratio"
        ),
    }


def layer_metrics(layers, tracer, traced, marks, untraced):
    """Per-layer metrics of the median traced pass, plus count mismatches.

    ``marks`` delimit the traced passes: pass ``i`` ran between
    ``marks[i]`` and ``marks[i + 1]``.
    """
    counts = [tracer.counts_between(a, b) for a, b in zip(marks, marks[1:])]
    mismatches = [
        f"traced pass {i} counts {c} != pass 0 counts {counts[0]}"
        for i, c in enumerate(counts) if c != counts[0]
    ]
    order = sorted(range(len(traced)), key=lambda i: traced[i].wall_s)
    chosen = order[(len(order) - 1) // 2]
    record = traced[chosen]
    seconds, unattributed = layers.attribute(tracer.spans, record.start, record.end)
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({
        name: (value, layers.COUNT_METRICS[name])
        for name, value in counts[chosen].items()
    })
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["traced_pass_s"] = (record.wall_s, "s")
    metrics["trace_overhead_ratio"] = (
        record.wall_s / statistics.median(p.wall_s for p in untraced), "ratio"
    )
    return metrics, mismatches


def run(args) -> tuple[dict, Checker]:
    experiments = load_program()
    workload = WORKLOADS[args.workload]
    listing = workload.listing(experiments, args.seed, args.smoke)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    checker = Checker(experiments.ALGORITHMS)
    try:
        warm = workload.listing(experiments, args.seed, smoke=True)
        measure_pass(workload, experiments, warm, workdir, probed=True)
        setup_s = setup_seconds(args)

        def one_pass(label):
            record = measure_pass(workload, experiments, listing, workdir,
                                  probed=not args.trace)
            checker.check(record.outcomes, label)
            return record

        if not args.trace:
            passes = repeat_passes(lambda: one_pass("untraced"), args.seconds, 1)
            return end_to_end_metrics(passes, setup_s, checker), checker

        untraced = [one_pass("untraced")]
        import layers

        tracer = layers.install()
        marks = []

        def traced_pass():
            marks.append(tracer.mark())
            return one_pass(f"traced pass {len(marks) - 1}")

        try:
            traced = repeat_passes(traced_pass, args.seconds - untraced[0].wall_s,
                                   MIN_TRACED_PASSES)
        finally:
            tracer.uninstall()
        marks.append(tracer.mark())
        metrics, mismatches = layer_metrics(
            layers, tracer, traced, marks, untraced
        )
        checker.failures += mismatches
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        return metrics, checker
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, for the self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        experiments = load_program()
        WORKLOADS[args.workload].listing(experiments, args.seed, args.smoke)
        print(time.perf_counter())
        return 0
    metrics, checker = run(args)
    for failure in checker.failures:
        print("FAILED", failure, file=sys.stderr)
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not checker.failures else 1


if __name__ == "__main__":
    sys.exit(main())
