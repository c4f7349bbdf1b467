"""Offline ``merge`` over real sweep stores: stores that split one sweep
between them by scenario (disjointly, or sharing a scenario) union to
the store of the whole sweep, record for record and report for report,
in any input order — and the merged store resumes like one written by a
single run."""

import itertools
import json

import pytest

from repro.experiments import (
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    build_report,
    get_suite,
    merge_result_files,
)
from repro.experiments.cli import main
from repro.experiments.spec import ANALYTIC_GENERATOR

SUITE = Suite(
    name="merge-test",
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

# The same suite split between two stores by scenario; the records keep
# the suite name, so the halves are exactly the whole run's records.
HALVES = (
    Suite(name=SUITE.name, description="", scenarios=SUITE.scenarios[:1]),
    Suite(name=SUITE.name, description="", scenarios=SUITE.scenarios[1:]),
)


def normalized(store: ResultStore) -> dict[str, dict]:
    """Records by fingerprint with the nondeterministic timing zeroed."""
    return {
        record["fingerprint"]: dict(record, wall_clock_s=0.0, timings=None)
        for record in store.records()
    }


def rendered(store: ResultStore) -> str:
    records = [
        dict(record, wall_clock_s=0.0, timings=None)
        for record in store.records()
    ]
    return build_report(records).render()


@pytest.fixture
def split_stores(tmp_path):
    """(whole store, [half store paths]) for SUITE."""
    whole = ResultStore(tmp_path / "whole")
    assert SweepRunner(SUITE, whole, jobs=1).run().ok
    paths = []
    for index, half in enumerate(HALVES):
        store = ResultStore(tmp_path / f"half{index}")
        assert SweepRunner(half, store, jobs=1).run().ok
        paths.append(store.path)
    return whole, paths


class TestScenarioSplitMerge:
    def test_halves_are_disjoint_and_union_to_the_whole(self, split_stores):
        whole, paths = split_stores
        halves = [set(normalized(ResultStore.from_path(p))) for p in paths]
        assert not (halves[0] & halves[1])
        assert halves[0] | halves[1] == set(normalized(whole))

    def test_merged_records_match_the_whole_run(self, split_stores, tmp_path):
        whole, paths = split_stores
        out = tmp_path / "merged" / "results.jsonl"
        report = merge_result_files(paths, out)
        assert report.ok and not report.missing and report.duplicates == 0
        assert report.merged == len(SUITE.cells())
        assert normalized(ResultStore.from_path(out)) == normalized(whole)

    def test_merged_report_renders_identically(self, split_stores, tmp_path):
        whole, paths = split_stores
        out = tmp_path / "merged" / "results.jsonl"
        merge_result_files(paths, out)
        assert rendered(ResultStore.from_path(out)) == rendered(whole)

    def test_merged_store_is_valid_jsonl(self, split_stores, tmp_path):
        _, paths = split_stores
        out = tmp_path / "m.jsonl"
        merge_result_files(paths, out)
        lines = out.read_text().splitlines()
        assert len(lines) == len(SUITE.cells())
        for line in lines:
            assert "fingerprint" in json.loads(line)

    def test_full_rerun_over_the_merged_store_executes_nothing(
        self, split_stores, tmp_path
    ):
        _, paths = split_stores
        out = tmp_path / "merged" / "results.jsonl"
        merge_result_files(paths, out)
        again = SweepRunner(SUITE, ResultStore.from_path(out), jobs=1).run()
        assert again.ok
        assert again.executed == 0
        assert again.skipped == again.total_cells == len(SUITE.cells())

    def test_incremental_merges_into_one_store_match_the_whole_run(
        self, split_stores, tmp_path
    ):
        whole, paths = split_stores
        out = tmp_path / "merged" / "results.jsonl"
        for path in paths:
            assert merge_result_files([path], out).ok
        assert normalized(ResultStore.from_path(out)) == normalized(whole)

    def test_input_order_does_not_change_the_store(self, split_stores, tmp_path):
        whole, paths = split_stores
        for number, permutation in enumerate(itertools.permutations(paths)):
            out = tmp_path / f"m{number}.jsonl"
            assert merge_result_files(list(permutation), out).ok
            assert normalized(ResultStore.from_path(out)) == normalized(whole)


def overlapping_halves(suite: Suite) -> tuple[Suite, Suite]:
    """Split a suite by scenario with the middle scenario in both halves."""
    middle = len(suite.scenarios) // 2
    return (
        Suite(suite.name, "", suite.scenarios[: middle + 1]),
        Suite(suite.name, "", suite.scenarios[middle:]),
    )


@pytest.mark.parametrize("suite_name", ["charged", "orientation-lists"])
class TestOverlappingSplitMerge:
    """Two stores that both ran one scenario of a built-in suite: merge
    keeps one copy of each shared cell without a conflict and reproduces
    the one-machine sweep."""

    def test_overlapping_halves_merge_to_the_whole_sweep(
        self, suite_name, tmp_path
    ):
        suite = get_suite(suite_name)
        whole = ResultStore(tmp_path / "whole")
        assert SweepRunner(suite, whole, jobs=1, smoke=True).run().ok
        paths, fingerprints = [], []
        for index, half in enumerate(overlapping_halves(suite)):
            store = ResultStore(tmp_path / f"half{index}")
            assert SweepRunner(half, store, jobs=1, smoke=True).run().ok
            paths.append(store.path)
            fingerprints.append({c.fingerprint for c in half.cells(smoke=True)})
        out = tmp_path / "merged" / "results.jsonl"
        report = merge_result_files(paths, out)
        assert report.ok
        shared = fingerprints[0] & fingerprints[1]
        assert shared and report.duplicates == len(shared)
        assert normalized(ResultStore.from_path(out)) == normalized(whole)

    def test_report_identical_across_paths(self, suite_name, tmp_path, capsys):
        suite = get_suite(suite_name)
        for index, half in enumerate(overlapping_halves(suite)):
            store = ResultStore(tmp_path / f"half{index}")
            assert SweepRunner(half, store, jobs=1, smoke=True).run().ok
        assert main([
            "run", suite_name, "--smoke", "--jobs", "1", "--quiet",
            "--out", str(tmp_path / "whole"),
        ]) == 0
        assert main([
            "merge", "--out", str(tmp_path / "merged" / "results.jsonl"),
            str(tmp_path / "half0" / "results.jsonl"),
            str(tmp_path / "half1" / "results.jsonl"),
        ]) == 0
        capsys.readouterr()
        # Wall-clock means are nondeterministic, so compare what the
        # report derives from the semantic record fields.
        merged = build_report(ResultStore(tmp_path / "merged").records())
        whole = build_report(ResultStore(tmp_path / "whole").records())
        assert merged.scaling.to_json() == whole.scaling.to_json()
        assert merged.fits.to_json() == whole.fits.to_json()
        assert merged.betas == whole.betas
        if suite_name == "charged":
            assert any(
                column.endswith(" [charged]")
                for column in merged.scaling.columns
            )
