"""Sweep execution: plan a suite's cells, execute them, record the results.

:func:`run_cell` is the worker entry point: it resolves the cell's
generator and algorithm from the registries, builds the instance, runs the
computation under a :class:`~repro.local.MessageMeter` and returns a
:class:`~repro.experiments.store.CellResult`.  It deliberately takes only
plain data (the suite name and a :class:`~repro.experiments.spec.Cell`) so
the payload shipped to worker processes stays tiny.

:class:`SweepRunner` is the one code path that plans, executes and
records a sweep.  It filters a suite's cells against the store's completed
fingerprints and executes the remainder — in-process for ``jobs=1`` (or a
single pending cell), otherwise on a :class:`WorkerPool`: the warm pool a
caller passes to :meth:`SweepRunner.run` (the daemon's), or one opened for
the duration of the run.  Each result is appended to the store the moment
it completes — a crashed sweep resumes exactly where it died.  Failed
cells (exceptions, dead workers) are *not* stored, so the next run
retries them.

:class:`WorkerPool` keeps worker processes warm across any number of
sweeps and ships **one cell per task**, so a sweep spreads over every
worker however few cells it has.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.experiments.shard import ShardSpec, shard_cells

from repro.local import EnginePolicy, MessageMeter, numpy_available
from repro.experiments.spec import ALGORITHMS, GENERATORS, Cell, Suite
from repro.experiments.store import CellResult, ResultStore
from repro.obs import MetricsRegistry, PhaseTimer, span

__all__ = [
    "run_cell",
    "make_recorder",
    "CellFailure",
    "CellOutcome",
    "SweepReport",
    "SweepRunner",
    "WorkerPool",
    "WorkersDied",
    "default_jobs",
]


def default_jobs() -> int:
    """A conservative default worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _effective_engine_mode(family_engine: str, override: str | None) -> str:
    """The engine mode a cell runs under.

    An explicit CLI/daemon ``override`` ("interpreted" / "vectorized")
    beats the family's declared preference; otherwise the family decides.
    A family-declared "vectorized" degrades to "auto" when numpy is
    missing — the capability flag is a preference, only an explicit
    override is a hard requirement.
    """
    if override in ("interpreted", "vectorized"):
        return override
    if family_engine == "vectorized" and not numpy_available():
        return "auto"
    return family_engine


def run_cell(suite_name: str, cell: Cell, engine: str | None = None) -> CellResult:
    """Execute one sweep cell and return its structured result.

    Top-level and argument-picklable by design: this is the function
    :class:`WorkerPool` workers execute.  ``engine`` is the sweep-level
    ``--engine`` override, resolved here into one ambient
    :class:`~repro.local.EnginePolicy` per cell; the engine that
    actually served the cell is recorded in ``CellResult.engine`` (e.g.
    ``"vectorized[numpy]"``) and the per-kernel round account in
    ``CellResult.engine_rounds``.

    The cell runs under an ambient :class:`~repro.obs.PhaseTimer`: the
    instance build is the ``generate`` phase, the algorithm callable is
    ``run``, and deeper layers add their own sub-spans (``verify`` from
    the suite run functions, ``simulate`` from the engines — both nested
    inside ``run``'s wall clock).  The breakdown lands on
    ``CellResult.timings`` as nonsemantic telemetry.
    """
    generator = GENERATORS[cell.generator]
    algorithm = ALGORITHMS[cell.algorithm]
    mode = _effective_engine_mode(algorithm.engine, engine)

    start = time.perf_counter()
    with PhaseTimer() as timer:
        graph = None
        if generator.build is not None:
            with span("generate"):
                graph = generator.build(cell.n, cell.seed)
        with MessageMeter() as meter, EnginePolicy(mode) as policy, span("run"):
            fields = algorithm.run(graph, generator, cell.n)
    wall_clock = time.perf_counter() - start

    messages = meter.messages if meter.runs else None
    return CellResult(
        fingerprint=cell.fingerprint,
        suite=suite_name,
        scenario=cell.scenario,
        generator=cell.generator,
        algorithm=cell.algorithm,
        n=cell.n,
        seed=cell.seed,
        rounds=fields["rounds"],
        charged_rounds=fields.get("charged_rounds"),
        messages=messages,
        wall_clock_s=wall_clock,
        verified=bool(fields["verified"]),
        k=fields.get("k"),
        extras=dict(fields.get("extras", {})),
        engine=policy.engine_used,
        engine_rounds=dict(policy.dispatches) or None,
        timings=timer.timings() or None,
    )


@dataclass
class CellFailure:
    """A cell whose worker raised; kept out of the store so it is retried."""

    cell: Cell
    error: str


@dataclass
class SweepReport:
    """Summary of one :meth:`SweepRunner.run` invocation."""

    suite: str
    total_cells: int
    skipped: int
    executed: int
    unverified: int
    failures: list[CellFailure] = field(default_factory=list)
    wall_clock_s: float = 0.0
    #: First failure of a result sink (e.g. the ``--collector`` stream).
    #: The sweep itself keeps running on the local store — the records are
    #: safe and mergeable — but the run is not ``ok``: the caller asked
    #: for streaming and part of the stream was lost.
    sink_error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.unverified == 0 and self.sink_error is None


def make_recorder(
    store: ResultStore,
    sinks: Sequence[Callable[[CellResult], None]],
    report: SweepReport,
    progress: Callable[[CellResult], None] | None = None,
) -> Callable[[CellResult], None]:
    """The per-result fan-out of :class:`SweepRunner` and the fleet worker.

    Appends the result to the store, ticks the report's counters, feeds
    the sinks and then the progress hook.  A sink (e.g. the
    ``--collector`` stream) that fails must not fail the sweep: the
    result is already durable in the local store, so the first error is
    recorded once in ``report.sink_error`` and the sinks disabled —
    resume/merge recovers the lost stream.
    """
    live_sinks = list(sinks)

    def record(result: CellResult) -> None:
        store.append(result)
        report.executed += 1
        if not result.verified:
            report.unverified += 1
        if live_sinks:
            try:
                for sink in live_sinks:
                    sink(result)
            except Exception as error:  # noqa: BLE001 - surfaced in report
                report.sink_error = repr(error)
                live_sinks.clear()
        if progress is not None:
            progress(result)

    return record


class SweepRunner:
    """Run a suite's pending cells and append results to a store."""

    def __init__(
        self,
        suite: Suite,
        store: ResultStore,
        jobs: int = 1,
        smoke: bool = False,
        sizes: tuple[int, ...] | None = None,
        seeds: tuple[int, ...] | None = None,
        shard: ShardSpec | None = None,
        sinks: Sequence[Callable[[CellResult], None]] = (),
        engine: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.suite = suite
        self.store = store
        self.jobs = jobs
        self.smoke = smoke
        self.sizes = sizes
        self.seeds = seeds
        self.shard = shard
        self.sinks = tuple(sinks)
        self.engine = engine

    def pending_cells(self) -> tuple[list[Cell], int]:
        """The cells still to run, and how many the store already covers.

        With a shard spec, only the cells owned by this shard count: the
        disjoint fingerprint partition means ``k`` workers running the same
        suite as shards ``0/k .. k-1/k`` never duplicate work.
        """
        cells = self.suite.cells(smoke=self.smoke, sizes=self.sizes, seeds=self.seeds)
        cells = shard_cells(cells, self.shard)
        completed = self.store.completed_fingerprints()
        pending = [cell for cell in cells if cell.fingerprint not in completed]
        return pending, len(cells) - len(pending)

    def run(
        self,
        progress: Callable[[CellResult], None] | None = None,
        pool: WorkerPool | None = None,
        on_plan: Callable[[int, int], None] | None = None,
        on_failure: Callable[[Cell, str], None] | None = None,
    ) -> SweepReport:
        """Execute every pending cell; append each result as it completes.

        A passed-in warm ``pool`` always serves the sweep.  Without one,
        ``jobs=1`` or a single pending cell runs in-process; anything
        else opens a ``WorkerPool(min(jobs, pending))`` for this run.

        The hooks let a caller observe the sweep live (the daemon's
        status verb feeds off them): ``on_plan(total_cells, skipped)``
        fires once before the first cell runs, ``progress(result)`` per
        stored cell, ``on_failure(cell, error)`` per failed cell.  A cell
        that raises is a failure; a store or progress error is not a
        cell's fault and propagates.
        """
        start = time.perf_counter()
        pending, skipped = self.pending_cells()
        if on_plan is not None:
            on_plan(len(pending) + skipped, skipped)
        report = SweepReport(
            suite=self.suite.name,
            total_cells=len(pending) + skipped,
            skipped=skipped,
            executed=0,
            unverified=0,
        )

        record = make_recorder(self.store, self.sinks, report, progress)

        def fail(cell: Cell, error: str) -> None:
            report.failures.append(CellFailure(cell, error))
            if on_failure is not None:
                on_failure(cell, error)

        if pool is None and (self.jobs == 1 or len(pending) <= 1):
            for cell in pending:
                try:
                    result = run_cell(self.suite.name, cell, engine=self.engine)
                except Exception as error:  # noqa: BLE001 - collected, reported
                    fail(cell, repr(error))
                else:
                    record(result)
        elif pool is None:
            with WorkerPool(min(self.jobs, len(pending))) as owned:
                self._run_on_pool(owned, pending, record, fail)
        else:
            self._run_on_pool(pool, pending, record, fail)

        report.wall_clock_s = time.perf_counter() - start
        return report

    def _run_on_pool(
        self,
        pool: WorkerPool,
        pending: list[Cell],
        record: Callable[[CellResult], None],
        fail: Callable[[Cell, str], None],
    ) -> None:
        """Stream ``pending`` through ``pool``; a stream whose workers die
        mid-sweep turns every cell still without an outcome into a failure."""
        outstanding = {cell.fingerprint: cell for cell in pending}
        try:
            for outcome in pool.submit_sweep(self.suite.name, pending, engine=self.engine):
                del outstanding[outcome.cell.fingerprint]
                if outcome.error is None:
                    record(outcome.result)
                else:
                    fail(outcome.cell, outcome.error)
        except WorkersDied as error:
            for cell in outstanding.values():
                fail(cell, repr(error))


# ----------------------------------------------------------------------
# the warm worker pool
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """One streamed per-cell outcome of a pool sweep."""

    cell: Cell
    result: CellResult | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


class WorkersDied(RuntimeError):
    """Worker processes died mid-sweep; the pool has been rebuilt."""


def _worker_main(tasks, results) -> None:
    """Worker loop: execute cells until the ``None`` sentinel arrives.

    Lives at module top level so it is picklable under any multiprocessing
    start method, and looks :func:`run_cell` up at call time.  A cell that
    raises is reported as an error string — the runner's
    failed-cells-are-retried-next-sweep policy.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, suite_name, engine, cell = task
        try:
            results.put((job_id, cell, run_cell(suite_name, cell, engine=engine), None))
        except Exception as error:  # noqa: BLE001 - reported to the caller
            results.put((job_id, cell, None, repr(error)))


class WorkerPool:
    """Warm worker processes serving sweeps, one cell per task.

    Usage::

        with WorkerPool(workers=4) as pool:
            SweepRunner(get_suite("paper-claims"), store, smoke=True).run(pool=pool)
            SweepRunner(get_suite("scaling"), store).run(pool=pool)  # same workers

    The pool is lazy: processes spawn on the first submission, then stay
    alive until :meth:`shutdown`.  Workers use the platform-default
    multiprocessing context (fork on Linux) so that algorithms and
    generators registered at runtime are visible in the workers;
    multi-threaded hosts like the daemon should call :meth:`start`
    eagerly, before spawning their own threads, to keep the fork clean.

    The pool executes one sweep at a time (submissions serialise on an
    internal lock); concurrency lives *inside* a sweep, across the worker
    processes.  That is the daemon's job-queue model: many clients feed
    jobs into one pool, jobs run in order, each job saturates the workers.
    """

    def __init__(
        self,
        workers: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.workers = workers if workers is not None else default_jobs()
        self._context = multiprocessing.get_context()
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()
        self._processes: list = []
        self._worker_counter = 0
        self._sweep_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._closed = False
        self._ever_started = False
        # Cumulative traffic counters (exposed by the daemon's status verb).
        self.sweeps_served = 0
        self.cells_executed = 0
        self.registry = registry if registry is not None else MetricsRegistry()
        self._restarts_metric = self.registry.counter(
            "pool_worker_restarts_total",
            "Worker processes respawned after the pool first came up.",
        )
        self._cell_seconds = self.registry.histogram(
            "pool_cell_seconds",
            "Cell dispatch latency: sweep enqueue to result arrival, in seconds.",
        )
        self._cells_metric = self.registry.counter(
            "pool_cells_executed_total",
            "Cells executed by the worker pool (ok and failed).",
        )
        self._sweeps_metric = self.registry.counter(
            "pool_sweeps_total",
            "Sweep submissions fully streamed by the pool.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._processes)

    def start(self) -> None:
        """Spawn the worker processes (idempotent, self-healing).

        A worker that died while the pool sat idle (OOM, external kill)
        is detected here, before the next sweep: the pool is rebuilt
        wholesale rather than topped up, because a worker that died
        blocked on the shared task queue may have taken the queue's
        internal lock with it.
        """
        if self._closed:
            raise RuntimeError("the pool has been shut down")
        if any(not process.is_alive() for process in self._processes):
            self._rebuild_ipc()
        while len(self._processes) < self.workers:
            self._spawn_worker()
        self._ever_started = True

    def _rebuild_ipc(self) -> None:
        """Terminate every worker and rebuild both queues from scratch."""
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=5)
        self._processes.clear()
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()

    def _spawn_worker(self) -> None:
        if self._ever_started:
            # Spawning past the initial bring-up means a worker died and
            # is being replaced — the restart SLO watches exactly this.
            self._restarts_metric.inc()
        self._worker_counter += 1
        process = self._context.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            name=f"sweep-worker-{self._worker_counter}",
            daemon=True,
        )
        process.start()
        self._processes.append(process)

    def shutdown(self) -> None:
        """Stop the workers (idempotent; pending sentinels drain the loop)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            self._tasks.put(None)
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)
        self._processes.clear()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # sweep execution
    # ------------------------------------------------------------------
    def submit_sweep(
        self, suite_name: str, cells: Sequence[Cell], engine: str | None = None
    ) -> Iterator[CellOutcome]:
        """Run ``cells`` on the warm workers, streaming per-cell outcomes.

        Each cell is its own task; outcomes arrive in completion order.
        The iterator must be consumed fully — it holds the pool's sweep
        lock, and the stream *is* the progress signal.  ``engine`` is the
        sweep-level backend override forwarded to every cell.  Raises
        :class:`WorkersDied` if a worker dies before the sweep completes.
        """
        cells = list(cells)
        job_id = next(self._job_ids)

        def stream() -> Iterator[CellOutcome]:
            with self._sweep_lock:
                # start() (and its dead-worker rebuild) must run under
                # the sweep lock: healing while another sweep is mid-
                # flight would swap the queues out from under it.
                self.start()
                enqueued_at = time.perf_counter()
                for cell in cells:
                    self._tasks.put((job_id, suite_name, engine, cell))
                remaining = len(cells)
                while remaining:
                    try:
                        received_job, cell, result, error = self._results.get(timeout=1.0)
                    except queue_module.Empty:
                        self._check_workers_alive()
                        continue
                    if received_job != job_id:
                        # Left over from an abandoned earlier stream; the
                        # cell completed, its sweep just stopped
                        # listening.  Drop it — resume re-runs it.
                        continue
                    remaining -= 1
                    self._cell_seconds.observe(time.perf_counter() - enqueued_at)
                    self.cells_executed += 1
                    self._cells_metric.inc()
                    yield CellOutcome(cell=cell, result=result, error=error)
                self.sweeps_served += 1
                self._sweeps_metric.inc()

        return stream()

    def _check_workers_alive(self) -> None:
        """Fail the current sweep if workers died — but heal the pool.

        A killed worker (OOM, external signal, ``os._exit``) loses its
        in-flight cell, so the sweep cannot complete and raises
        :class:`WorkersDied`; the cells without an outcome were never
        stored, so resume re-runs them.  A worker that dies blocked on a
        shared queue may take the queue's internal lock with it, so
        healing must be wholesale: terminate the survivors, rebuild both
        queues, respawn everyone.  The *next* submission to a long-lived
        pool (the daemon's) then works without a restart.

        Fork-safety of respawning from a threaded host (the daemon's
        runner thread): the replacement children execute only
        ``_worker_main``, which touches nothing but the two queues this
        thread creates immediately before forking — their locks are
        provably unheld at fork time, and no daemon-side lock (jobs
        table, stdio) is ever acquired by worker code, so a lock some
        *other* thread held at fork cannot deadlock the child.
        """
        dead = [p.name for p in self._processes if not p.is_alive()]
        if not dead:
            return
        self._rebuild_ipc()
        if not self._closed:
            self.start()
        raise WorkersDied(
            f"worker process(es) died mid-sweep: {', '.join(dead)}; pool "
            f"rebuilt, the interrupted sweep's unstored cells re-run on resume"
        )
