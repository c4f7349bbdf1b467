"""Layer tracing for the traced benchmark run (``--trace 1``).

:func:`install` wraps the public calls into each layer of the pipeline
with timing spans and exact counters.  The wrappers live only here: they
are swapped into the program's module namespaces and classes at run time
and :meth:`Tracer.uninstall` puts the originals back.  Only the traced run
imports this module.

A span records its layer metric, the wrapped call, start, end, parent span
and the cell it ran for.  Spans stay in memory until the run ends
(:meth:`Tracer.dump`).

:func:`attribute` turns the spans of one pass into per-layer seconds that
add up to the pass's wall time: a layer's time is its spans' self time
(duration minus the children), and time in no span is ``unattributed_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter

#: Self-time metrics, in the order they are reported.
TIME_METRICS = (
    "generators.build_s",
    "semigraph.build_s",
    "semigraph.restrict_s",
    "semigraph.gather_s",
    "decomposition.peel_s",
    "baselines.a_phase_s",
    "local.network_build_s",
    "local.simulate_s",
    "problems.list_build_s",
    "problems.verify_s",
    "problems.to_classic_s",
    "core.sequential_solve_s",
    "core.transform_self_s",
    "experiments.run_cell_self_s",
    "experiments.store_append_s",
    "experiments.report_s",
)

#: Exact counters and their units, in the order they are reported.
COUNT_METRICS = {
    "semigraph.restrict_calls": "count",
    "semigraph.underlying_graph_builds": "count",
    "semigraph.components": "count",
    "decomposition.rounds": "rounds",
    "baselines.a_phase_rounds": "rounds",
    "local.network_builds": "count",
    "local.csr_builds": "count",
}

# Span record fields: [name, metric, start, end, parent, cell].
_METRIC, _START, _END, _PARENT = 1, 2, 3, 4


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(cell, counter) -> count``; ``cell`` is None outside cells.
        self.counts: Counter = Counter()
        self.cell: str | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def wrap(self, fn, metric=None, counter=None, amount=None):
        """``fn`` with a span for ``metric`` and/or a ``counter`` bump.

        The counter grows by ``amount(result)``, or by 1 per call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                record = [fn.__qualname__, metric, time.perf_counter(), None,
                          parent, self.cell]
                self.spans.append(record)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[_END] = time.perf_counter()
                    self._stack.pop()
            if counter is not None:
                self.counts[self.cell, counter] += (
                    1 if amount is None else amount(result)
                )
            return result

        return traced

    def wrap_run_cell(self, fn):
        """``run_cell`` traced, with its spans and counts tagged by cell."""
        traced = self.wrap(fn, "experiments.run_cell_self_s")

        @functools.wraps(fn)
        def run_cell(suite_name, cell, *args, **kwargs):
            self.cell = cell.fingerprint
            try:
                return traced(suite_name, cell, *args, **kwargs)
            finally:
                self.cell = None

        return run_cell

    def mark(self) -> tuple[int, Counter]:
        """The span count and counters now, to delimit one pass."""
        return len(self.spans), Counter(self.counts)

    @staticmethod
    def counts_between(first, last) -> dict[str, int]:
        """Counter totals between two marks, one entry per counter."""
        totals = dict.fromkeys(COUNT_METRICS, 0)
        for (_, name), value in (last[1] - first[1]).items():
            totals[name] += value
        return totals

    def cell_counts(self, counter: str) -> dict[str, int]:
        """Per-cell totals of one counter over the whole run."""
        totals: Counter = Counter()
        for (cell, name), value in self.counts.items():
            if name == counter and cell is not None:
                totals[cell] += value
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        keys = ("name", "metric", "start", "end", "parent", "cell")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")

    # -- installing ------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def replace_function(self, fn, wrapper) -> None:
        """Rebind every ``repro`` module-level name bound to ``fn``."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def replace_method(self, cls, attr, **wrap_args) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self._set(cls, attr, classmethod(self.wrap(original.__func__, **wrap_args)))
        else:
            self._set(cls, attr, self.wrap(original, **wrap_args))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Tracer:
    """Wrap the pipeline's layer calls; returns the recording tracer."""
    import repro.core.sequential as sequential
    from repro.core import solve_on_bounded_arboricity, solve_on_tree
    from repro.core.interfaces import TrulyLocalAlgorithm
    from repro.core.transform import gather_and_solve_rounds
    from repro.decomposition import arboricity_decomposition, rake_and_compress
    from repro.experiments import GENERATORS, ResultStore, build_report, run_cell
    from repro.local import CSRAdjacency, Network, run_synchronous, run_vectorized
    from repro.problems import verify_solution
    from repro.problems import classic
    from repro.problems.base import NodeEdgeCheckableProblem
    from repro.problems.lists import build_edge_list_instance, build_node_list_instance
    from repro.semigraph import (
        SemiGraph,
        restrict_to_edges,
        restrict_to_nodes,
        semigraph_from_graph,
    )

    tracer = Tracer()
    rounds = lambda result: result.rounds  # noqa: E731
    functions = [
        (semigraph_from_graph, dict(metric="semigraph.build_s")),
        (restrict_to_nodes, dict(metric="semigraph.restrict_s",
                                 counter="semigraph.restrict_calls")),
        (restrict_to_edges, dict(metric="semigraph.restrict_s",
                                 counter="semigraph.restrict_calls")),
        (gather_and_solve_rounds, dict(metric="semigraph.gather_s")),
        (rake_and_compress, dict(metric="decomposition.peel_s",
                                 counter="decomposition.rounds", amount=rounds)),
        (arboricity_decomposition, dict(metric="decomposition.peel_s",
                                        counter="decomposition.rounds", amount=rounds)),
        (run_vectorized, dict(metric="local.simulate_s")),
        (run_synchronous, dict(metric="local.simulate_s")),
        (build_edge_list_instance, dict(metric="problems.list_build_s")),
        (build_node_list_instance, dict(metric="problems.list_build_s")),
        (verify_solution, dict(metric="problems.verify_s")),
        (solve_on_tree, dict(metric="core.transform_self_s")),
        (solve_on_bounded_arboricity, dict(metric="core.transform_self_s")),
        (build_report, dict(metric="experiments.report_s")),
    ]
    functions += [
        (checker, dict(metric="problems.verify_s"))
        for name, checker in vars(classic).items()
        if name.startswith("is_") and inspect.isfunction(checker)
        and checker.__module__ == classic.__name__
    ]
    for fn, wrap_args in functions:
        tracer.replace_function(fn, tracer.wrap(fn, **wrap_args))
    tracer.replace_function(run_cell, tracer.wrap_run_cell(run_cell))

    tracer.replace_method(SemiGraph, "underlying_graph",
                          counter="semigraph.underlying_graph_builds")
    tracer.replace_method(SemiGraph, "connected_components",
                          counter="semigraph.components", amount=len)
    tracer.replace_method(Network, "__init__", metric="local.network_build_s",
                          counter="local.network_builds")
    tracer.replace_method(CSRAdjacency, "from_graph", metric="local.network_build_s",
                          counter="local.csr_builds")
    for cls in _subclasses(NodeEdgeCheckableProblem):
        if "to_classic" in cls.__dict__:
            tracer.replace_method(cls, "to_classic", metric="problems.to_classic_s")
    for cls in _subclasses(TrulyLocalAlgorithm):
        if "solve_semigraph" in cls.__dict__:
            tracer.replace_method(cls, "solve_semigraph", metric="baselines.a_phase_s",
                                  counter="baselines.a_phase_rounds",
                                  amount=lambda result: result[1])
    for _, cls in inspect.getmembers(sequential, inspect.isclass):
        if cls.__module__ != sequential.__name__:
            continue
        for attr in ("solve", "solve_node_list", "solve_edge_list"):
            if attr in cls.__dict__:
                tracer.replace_method(cls, attr, metric="core.sequential_solve_s")

    tracer.replace_method(ResultStore, "append", metric="experiments.store_append_s")
    for name, family in list(GENERATORS.items()):
        if family.build is not None:
            build = tracer.wrap(family.build, metric="generators.build_s")
            tracer._set(GENERATORS, name, dataclasses.replace(family, build=build))
    return tracer


def attribute(spans, start: float, end: float) -> tuple[dict[str, float], float]:
    """Per-layer seconds of the wall interval ``[start, end]``.

    Returns ``(seconds by metric, unattributed seconds)``; together they
    add up to ``end - start``.  Spans nest (one process), so a span's self
    time is its clipped duration minus its children's.
    """
    seconds = dict.fromkeys(TIME_METRICS, 0.0)
    for record in spans:
        inside = max(min(record[_END], end) - max(record[_START], start), 0.0)
        seconds[record[_METRIC]] += inside
        if record[_PARENT] is not None:
            seconds[spans[record[_PARENT]][_METRIC]] -= inside
    return seconds, (end - start) - sum(seconds.values())
