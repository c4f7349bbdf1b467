"""Worker-pool tests: warm reuse across sweeps, one cell per task,
equivalence with the serial runner, failures, dead workers and resume."""

import multiprocessing
import os
import time

import pytest

import repro.experiments.runner as runner_module
from repro.experiments import (
    AlgorithmFamily,
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    WorkerPool,
    register_algorithm,
)
from repro.experiments.shard import ShardSpec
from repro.experiments.spec import ALGORITHMS, ANALYTIC_GENERATOR

SUITE = Suite(
    name="pool-test",
    description="small mixed suite",
    scenarios=(
        ScenarioSpec(
            name="forest/tree", generator="random-tree",
            algorithm="baseline-forest-3coloring", sizes=(16, 24), seeds=(1, 2, 3),
        ),
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="baseline-mis", sizes=(16,), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="shape", generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=(2**64, 2**128), seeds=(0,),
        ),
    ),
)


def normalized(store: ResultStore) -> dict[str, dict]:
    out = {}
    for record in store.records():
        record = dict(record)
        record["wall_clock_s"] = 0.0
        record["timings"] = None
        out[record["fingerprint"]] = record
    return out


def register_test_algorithm(name: str, run) -> None:
    """Register a test-only family once; call before the pool forks, so
    the workers inherit the registration."""
    if name not in ALGORITHMS:
        register_algorithm(AlgorithmFamily(
            name=name, description="test-only", kind="baseline", run=run,
        ))


def one_scenario_suite(name: str, algorithm: str, seeds: tuple[int, ...]) -> Suite:
    return Suite(name=name, description="", scenarios=(
        ScenarioSpec(
            name=name, generator="random-tree", algorithm=algorithm,
            sizes=(6,), seeds=seeds,
        ),
    ))


#: Set by the barrier tests before any worker forks; the workers inherit it.
_BARRIER = None


def _wait_at_barrier(graph, generator, n):
    _BARRIER.wait(timeout=10)
    return {"rounds": 0, "verified": True}


def _exit_worker(graph, generator, n):
    # Let the worker's queue feeder thread finish sending the result of
    # any earlier cell before the process vanishes.
    time.sleep(0.5)
    os._exit(3)


class TestPoolExecution:
    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_matches_serial_runner_modulo_wall_clock(self, tmp_path):
        serial = ResultStore(tmp_path / "serial")
        SweepRunner(SUITE, serial, jobs=1).run()
        pooled = ResultStore(tmp_path / "pool")
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(SUITE, pooled).run(pool=pool)
        assert report.ok
        assert report.executed == len(SUITE.cells())
        assert normalized(pooled) == normalized(serial)

    def test_warm_reuse_across_sweeps_same_processes(self, tmp_path):
        with WorkerPool(workers=2) as pool:
            SweepRunner(SUITE, ResultStore(tmp_path / "a")).run(pool=pool)
            pids_after_first = [p.pid for p in pool._processes]
            SweepRunner(SUITE, ResultStore(tmp_path / "b")).run(pool=pool)
            pids_after_second = [p.pid for p in pool._processes]
        assert pids_after_first == pids_after_second
        assert pool.sweeps_served == 2
        assert pool.cells_executed == 2 * len(SUITE.cells())

    def test_resume_skips_completed(self, tmp_path):
        store = ResultStore(tmp_path)
        with WorkerPool(workers=2) as pool:
            first = SweepRunner(SUITE, store).run(pool=pool)
            second = SweepRunner(SUITE, store).run(pool=pool)
        assert first.executed == len(SUITE.cells())
        assert second.executed == 0
        assert second.skipped == second.total_cells == len(SUITE.cells())

    def test_sharded_pool_run(self, tmp_path):
        with WorkerPool(workers=2) as pool:
            reports = [
                SweepRunner(
                    SUITE,
                    ResultStore(tmp_path / f"s{index}"),
                    shard=ShardSpec(index, 2),
                ).run(pool=pool)
                for index in range(2)
            ]
        assert all(report.ok for report in reports)
        fps0 = set(normalized(ResultStore(tmp_path / "s0")))
        fps1 = set(normalized(ResultStore(tmp_path / "s1")))
        assert not (fps0 & fps1)
        assert fps0 | fps1 == {c.fingerprint for c in SUITE.cells()}

    def test_progress_callback_streams_every_cell(self, tmp_path):
        seen, plans = [], []
        with WorkerPool(workers=2) as pool:
            SweepRunner(SUITE, ResultStore(tmp_path)).run(
                progress=seen.append,
                pool=pool,
                on_plan=lambda total, skipped: plans.append((total, skipped)),
            )
        assert len(seen) == len(SUITE.cells())
        assert plans == [(len(SUITE.cells()), 0)]

    def test_submit_sweep_streams_outcomes(self, tmp_path):
        cells = SUITE.cells()
        with WorkerPool(workers=2) as pool:
            outcomes = list(pool.submit_sweep(SUITE.name, cells))
        assert len(outcomes) == len(cells)
        assert all(outcome.ok for outcome in outcomes)
        assert {o.cell.fingerprint for o in outcomes} == {
            c.fingerprint for c in cells
        }


class TestCellsSpreadAcrossWorkers:
    """Two cells that wait on one 2-party barrier both pass it only when
    they run at the same time on different workers — which one cell per
    task guarantees, with no timing assertion."""

    SUITE = one_scenario_suite("barrier", "_test-barrier", seeds=(1, 2))

    @pytest.fixture(autouse=True)
    def barrier(self, monkeypatch):
        register_test_algorithm("_test-barrier", _wait_at_barrier)
        monkeypatch.setitem(globals(), "_BARRIER", multiprocessing.Barrier(2))

    def test_runner_opened_pool(self, tmp_path):
        report = SweepRunner(self.SUITE, ResultStore(tmp_path), jobs=2).run()
        assert report.ok, report.failures
        assert report.executed == 2

    def test_passed_in_pool(self, tmp_path):
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(self.SUITE, ResultStore(tmp_path)).run(pool=pool)
        assert report.ok, report.failures
        assert report.executed == 2


class TestPoolFailures:
    def test_raising_cells_reported_not_stored(self, tmp_path):
        def boom(graph, generator, n):
            raise RuntimeError("boom")

        register_test_algorithm("_test-boom", boom)
        suite = Suite(
            name="boom", description="", scenarios=(
                ScenarioSpec(
                    name="boom", generator="random-tree", algorithm="_test-boom",
                    sizes=(10,),
                ),
                ScenarioSpec(
                    name="ok", generator="random-tree", algorithm="baseline-mis",
                    sizes=(10,),
                ),
            ),
        )
        store = ResultStore(tmp_path)
        failed = []
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(suite, store).run(
                pool=pool, on_failure=lambda cell, error: failed.append(cell),
            )
        assert not report.ok
        assert len(report.failures) == 1
        assert "boom" in report.failures[0].error
        assert failed == [report.failures[0].cell]
        assert report.executed == 1
        assert len(store) == 1

    def test_worker_dying_mid_sweep_fails_its_cell_and_pool_heals(self, tmp_path):
        """A cell whose worker exits becomes a failure (the rest of the
        sweep is stored), the run returns, and the pool serves again."""
        register_test_algorithm("_test-exit", _exit_worker)
        suite = Suite(name="exit", description="", scenarios=(
            ScenarioSpec(
                name="exit", generator="random-tree", algorithm="_test-exit",
                sizes=(6,),
            ),
            ScenarioSpec(
                name="ok", generator="random-tree", algorithm="baseline-mis",
                sizes=(8, 10), seeds=(1, 2),
            ),
        ))
        store = ResultStore(tmp_path / "exit")
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(suite, store, jobs=2).run(pool=pool)
            assert not report.ok
            dead = [f for f in report.failures if f.cell.scenario == "exit"]
            assert len(dead) == 1 and "died mid-sweep" in dead[0].error
            assert report.executed + len(report.failures) == len(suite.cells())
            stored = store.results()
            assert len(stored) == report.executed
            assert all(result.verified for result in stored)
            assert all(result.scenario == "ok" for result in stored)

            clean = SweepRunner(SUITE, ResultStore(tmp_path / "clean")).run(pool=pool)
            assert clean.ok and clean.executed == len(SUITE.cells())
            assert all(p.is_alive() for p in pool._processes)

    def test_workers_killed_while_idle_are_rebuilt_before_next_sweep(self, tmp_path):
        """Workers killed between sweeps are detected at the next start():
        the pool rebuilds its processes and queues (a worker dead on a
        queue may hold its lock) and the sweep runs cleanly."""
        pool = WorkerPool(workers=2)
        try:
            assert SweepRunner(SUITE, ResultStore(tmp_path / "first")).run(pool=pool).ok
            old_pids = [p.pid for p in pool._processes]
            for process in list(pool._processes):
                process.terminate()
                process.join(timeout=5)
            report = SweepRunner(SUITE, ResultStore(tmp_path / "after")).run(pool=pool)
            assert report.ok and report.executed == len(SUITE.cells())
            assert len(pool._processes) == 2
            assert all(p.is_alive() for p in pool._processes)
            assert [p.pid for p in pool._processes] != old_pids
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_blocks_reuse(self):
        pool = WorkerPool(workers=1)
        pool.start()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.start()


class TestInProcessPath:
    """``jobs=1`` (or a single pending cell) runs in-process through the
    module-global ``run_cell``, looked up at call time."""

    @pytest.mark.parametrize(
        "jobs, suite",
        [
            (1, SUITE),
            (4, one_scenario_suite("single", "baseline-mis", seeds=(1,))),
        ],
    )
    def test_patched_run_cell_runs_in_process(self, jobs, suite, monkeypatch, tmp_path):
        original = runner_module.run_cell
        calls = []

        def traced(suite_name, cell, *args, **kwargs):
            calls.append((cell.fingerprint, os.getpid()))
            return original(suite_name, cell, *args, **kwargs)

        def no_pool(*args, **kwargs):
            raise AssertionError("the in-process path must not open a pool")

        monkeypatch.setattr(runner_module, "run_cell", traced)
        monkeypatch.setattr(runner_module, "WorkerPool", no_pool)
        children_before = set(multiprocessing.active_children())
        report = SweepRunner(suite, ResultStore(tmp_path), jobs=jobs).run()
        assert report.ok
        assert sorted(fp for fp, _ in calls) == sorted(
            cell.fingerprint for cell in suite.cells()
        )
        assert {pid for _, pid in calls} == {os.getpid()}
        assert set(multiprocessing.active_children()) <= children_before
