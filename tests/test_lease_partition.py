"""The lease table as the fleet's partitioner: however many workers ask,
in whatever batch sizes and interleavings, every cell of a suite is
granted to exactly one of them, the grant sequence is deterministic,
completed fingerprints (a resumed store) are never granted again, and an
expired or released lease goes to exactly one new owner.  Pure ledger
tests under a fake clock — no sockets, no cells executed."""

import threading

import pytest

from repro.experiments import ScenarioSpec, Suite, get_suite
from repro.experiments.spec import ANALYTIC_GENERATOR
from repro.service import LeaseTable

SUITE = Suite(
    name="partition-test",
    description="two measured scenarios and one analytic",
    scenarios=(
        ScenarioSpec(
            name="edge/tree", generator="random-tree",
            algorithm="arb-edge-coloring", sizes=(24, 48), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="forest/tree", generator="random-tree",
            algorithm="baseline-forest-3coloring", sizes=(24, 48), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="shape", generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=(2**64, 2**128, 2**256), seeds=(0,),
        ),
    ),
)

UNIVERSE = [cell.fingerprint for cell in SUITE.cells()]


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_table(**kwargs) -> tuple[LeaseTable, FakeClock]:
    clock = FakeClock()
    table = LeaseTable(
        heartbeat_interval_s=kwargs.pop("heartbeat_interval_s", 1.0),
        clock=clock,
        **kwargs,
    )
    return table, clock


def drain(table, workers, universe, limit):
    """Round-robin the workers through grant → complete until the table
    reports the universe done; returns each worker's granted list."""
    granted = {worker: [] for worker in workers}
    while True:
        finished = True
        for worker in workers:
            reply = table.grant(worker, universe, limit=limit)
            granted[worker].extend(reply["granted"])
            for fingerprint in reply["granted"]:
                table.complete(fingerprint)
            finished = finished and reply["done"]
        if finished:
            return granted


class TestDisjointCover:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_workers_partition_the_suite(self, count):
        table, _ = make_table()
        workers = [table.register(f"w{i}")["worker_id"] for i in range(count)]
        granted = drain(table, workers, UNIVERSE, limit=2)
        everything = [fp for batch in granted.values() for fp in batch]
        assert sorted(everything) == sorted(UNIVERSE)
        assert len(set(everything)) == len(everything)
        assert table.completed_count() == len(UNIVERSE)
        assert table.active_leases() == 0

    @pytest.mark.parametrize("limit", [1, 2, 4, 100])
    def test_outstanding_leases_never_overlap(self, limit):
        """Before anyone completes, every worker's batch is disjoint from
        every other's, whatever the batch size."""
        table, _ = make_table()
        workers = [table.register(f"w{i}")["worker_id"] for i in range(3)]
        batches = [
            set(table.grant(worker, UNIVERSE, limit=limit)["granted"])
            for worker in workers
        ]
        for i, first in enumerate(batches):
            for second in batches[i + 1:]:
                assert not (first & second)
        held = set().union(*batches)
        assert len(held) == min(len(UNIVERSE), 3 * limit)
        assert table.active_leases() == len(held)

    def test_single_worker_owns_everything(self):
        table, _ = make_table()
        worker = table.register("solo")["worker_id"]
        reply = table.grant(worker, UNIVERSE, limit=len(UNIVERSE))
        assert reply["granted"] == UNIVERSE
        assert reply["pending"] == 0 and not reply["done"]
        for fingerprint in reply["granted"]:
            table.complete(fingerprint)
        assert table.grant(worker, UNIVERSE)["done"]

    def test_grant_sequence_is_deterministic(self):
        def run():
            table, _ = make_table()
            workers = [table.register(f"w{i}")["worker_id"] for i in range(3)]
            return drain(table, workers, UNIVERSE, limit=2)

        assert run() == run()

    def test_builtin_suite_spreads_over_two_workers(self):
        universe = [
            cell.fingerprint
            for cell in get_suite("paper-claims").cells(smoke=True)
        ]
        table, _ = make_table()
        workers = [table.register(f"w{i}")["worker_id"] for i in range(2)]
        granted = drain(table, workers, universe, limit=2)
        assert all(granted[worker] for worker in workers)
        assert sum(len(batch) for batch in granted.values()) == len(universe)

    def test_overlapping_suites_share_their_common_cells_once(self):
        """Workers offering different universes (two suites over some of
        the same cells) still run each shared fingerprint once."""
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        half = len(UNIVERSE) // 2
        first, second = UNIVERSE[: half + 2], UNIVERSE[half - 2:]
        granted = {alpha: [], beta: []}
        done = {alpha: False, beta: False}
        while not all(done.values()):
            for worker, universe in ((alpha, first), (beta, second)):
                reply = table.grant(worker, universe, limit=1)
                granted[worker].extend(reply["granted"])
                for fingerprint in reply["granted"]:
                    table.complete(fingerprint)
                done[worker] = reply["done"]
        everything = granted[alpha] + granted[beta]
        assert sorted(everything) == sorted(UNIVERSE)
        assert set(granted[alpha]) <= set(first)
        assert set(granted[beta]) <= set(second)

    def test_concurrent_workers_never_share_a_cell(self):
        table = LeaseTable(heartbeat_interval_s=60.0)
        workers = [table.register(f"w{i}")["worker_id"] for i in range(4)]
        granted = {worker: [] for worker in workers}
        barrier = threading.Barrier(len(workers))

        def work(worker):
            barrier.wait()
            while True:
                reply = table.grant(worker, UNIVERSE, limit=1)
                granted[worker].extend(reply["granted"])
                for fingerprint in reply["granted"]:
                    table.complete(fingerprint)
                if reply["done"]:
                    return

        threads = [
            threading.Thread(target=work, args=(worker,)) for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        everything = [fp for batch in granted.values() for fp in batch]
        assert sorted(everything) == sorted(UNIVERSE)
        assert table.counts["granted"] == len(UNIVERSE)


class TestResume:
    def test_seeded_completions_are_never_granted(self):
        """A restarted collector seeds the table from its store: a rerun
        executes only the cells the store lacks."""
        table, _ = make_table()
        resumed = UNIVERSE[::2]
        table.seed_completed(resumed)
        workers = [table.register(f"w{i}")["worker_id"] for i in range(2)]
        granted = drain(table, workers, UNIVERSE, limit=3)
        everything = [fp for batch in granted.values() for fp in batch]
        assert sorted(everything) == sorted(set(UNIVERSE) - set(resumed))

    def test_finished_universe_grants_nothing_and_is_done(self):
        table, _ = make_table()
        worker = table.register("first")["worker_id"]
        drain(table, [worker], UNIVERSE, limit=4)
        late = table.register("late")["worker_id"]
        reply = table.grant(late, UNIVERSE, limit=4)
        assert reply == {
            "granted": [], "pending": 0, "outstanding": 0, "done": True,
        }

    def test_pending_and_outstanding_account_for_the_universe(self):
        table, _ = make_table()
        table.seed_completed(UNIVERSE[:2])
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        table.grant(alpha, UNIVERSE, limit=3)
        reply = table.grant(beta, UNIVERSE, limit=2)
        assert len(reply["granted"]) == 2
        assert reply["outstanding"] == 3
        assert (
            2 + reply["outstanding"] + len(reply["granted"]) + reply["pending"]
            == len(UNIVERSE)
        )


class TestRecoveredLeases:
    def test_expired_lease_goes_to_exactly_one_new_worker(self):
        table, clock = make_table(lease_ttl_s=2.0)
        dead = table.register("dead")["worker_id"]
        lost = table.grant(dead, UNIVERSE, limit=3)["granted"]
        clock.advance(5.0)
        survivors = [table.register(f"s{i}")["worker_id"] for i in range(3)]
        granted = drain(table, survivors, UNIVERSE, limit=1)
        everything = [fp for batch in granted.values() for fp in batch]
        assert sorted(everything) == sorted(UNIVERSE)
        assert table.counts["expired"] == 3
        assert table.counts["reassigned"] == 3
        assert all(everything.count(fp) == 1 for fp in lost)

    def test_heartbeating_worker_keeps_its_cells_across_ttls(self):
        """A slow worker that keeps beating holds its batch however long
        it runs; the others drain the rest and never receive it."""
        table, clock = make_table(lease_ttl_s=2.0)
        slow = table.register("slow")["worker_id"]
        held = table.grant(slow, UNIVERSE, limit=3)["granted"]
        fast = table.register("fast")["worker_id"]
        others = []
        for _ in range(len(UNIVERSE)):
            clock.advance(1.0)
            table.heartbeat(slow)
            table.heartbeat(fast)
            reply = table.grant(fast, UNIVERSE, limit=1)
            others.extend(reply["granted"])
            for fingerprint in reply["granted"]:
                table.complete(fingerprint)
        assert not set(held) & set(others)
        assert sorted(held + others) == sorted(UNIVERSE)
        assert table.counts["expired"] == 0

    def test_released_cells_keep_the_cover_exact(self):
        table, _ = make_table()
        alpha = table.register("alpha")["worker_id"]
        beta = table.register("beta")["worker_id"]
        failed = table.grant(alpha, UNIVERSE, limit=2)["granted"]
        table.grant(alpha, UNIVERSE, limit=0, release=failed)
        granted = drain(table, [beta], UNIVERSE, limit=2)
        assert sorted(granted[beta]) == sorted(UNIVERSE)
        assert table.counts["released"] == 2
        assert table.counts["reassigned"] == 2
