"""Integration tests for the transformation pipelines (Theorems 12 and 15)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DegPlusOneColoringAlgorithm,
    EdgeColoringAlgorithm,
    MISAlgorithm,
    MaximalMatchingAlgorithm,
    OracleCostModel,
)
from repro.core import solve_on_bounded_arboricity, solve_on_tree
from repro.core.complexity import polylog
from repro.generators import (
    balanced_regular_tree,
    caterpillar,
    forest_union,
    grid_graph,
    path_graph,
    planar_triangulation_like,
    random_tree,
    spider,
    star_graph,
)
from repro.problems.classic import (
    is_deg_plus_one_coloring,
    is_edge_degree_plus_one_coloring,
    is_maximal_independent_set,
    is_maximal_matching,
)

TREES = {
    "path": path_graph(60),
    "star": star_graph(30),
    "balanced": balanced_regular_tree(3, 5),
    "caterpillar": caterpillar(20, 3),
    "spider": spider(8, 6),
    "random-150": random_tree(150, seed=1),
    "random-400": random_tree(400, seed=2),
}


@pytest.mark.parametrize("name", sorted(TREES))
class TestTheorem12OnTrees:
    def test_mis(self, name):
        tree = TREES[name]
        result = solve_on_tree(tree, MISAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_maximal_independent_set(tree, result.classic)

    def test_deg_plus_one_coloring(self, name):
        tree = TREES[name]
        result = solve_on_tree(tree, DegPlusOneColoringAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_deg_plus_one_coloring(tree, result.classic)

    def test_round_breakdown_structure(self, name):
        tree = TREES[name]
        result = solve_on_tree(tree, MISAlgorithm())
        breakdown = result.ledger.breakdown()
        assert "decomposition" in breakdown
        assert result.rounds == sum(breakdown.values())
        assert result.details["compressed_nodes"] + result.details["raked_nodes"] == (
            tree.number_of_nodes()
        )

    def test_lemma_10_respected_inside_pipeline(self, name):
        tree = TREES[name]
        result = solve_on_tree(tree, MISAlgorithm())
        assert result.details["compressed_underlying_degree"] <= result.k


@pytest.mark.parametrize("name", sorted(TREES))
class TestTheorem15OnTrees:
    def test_edge_coloring(self, name):
        tree = TREES[name]
        result = solve_on_bounded_arboricity(tree, 1, EdgeColoringAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_edge_degree_plus_one_coloring(tree, dict(result.classic))

    def test_maximal_matching(self, name):
        tree = TREES[name]
        result = solve_on_bounded_arboricity(tree, 1, MaximalMatchingAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_maximal_matching(tree, [tuple(e) for e in result.classic])

    def test_lemma_14_respected_inside_pipeline(self, name):
        tree = TREES[name]
        result = solve_on_bounded_arboricity(tree, 1, EdgeColoringAlgorithm())
        assert result.details["typical_underlying_degree"] <= result.k
        total_edges = result.details["typical_edges"] + result.details["atypical_edges"]
        assert total_edges == tree.number_of_edges()


BOUNDED_ARBORICITY = {
    "two-forests": (forest_union(120, 2, seed=4), 2),
    "three-forests": (forest_union(100, 3, seed=5), 3),
    "grid": (grid_graph(8, 10), 2),
    "planar": (planar_triangulation_like(90, seed=6), 3),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_ARBORICITY))
class TestTheorem15OnBoundedArboricity:
    def test_edge_coloring(self, name):
        graph, arboricity = BOUNDED_ARBORICITY[name]
        result = solve_on_bounded_arboricity(graph, arboricity, EdgeColoringAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_edge_degree_plus_one_coloring(graph, dict(result.classic))

    def test_maximal_matching(self, name):
        graph, arboricity = BOUNDED_ARBORICITY[name]
        result = solve_on_bounded_arboricity(graph, arboricity, MaximalMatchingAlgorithm())
        assert result.verification.ok, result.verification.summary()
        assert is_maximal_matching(graph, [tuple(e) for e in result.classic])

    def test_star_phase_cost_scales_with_arboricity(self, name):
        graph, arboricity = BOUNDED_ARBORICITY[name]
        result = solve_on_bounded_arboricity(graph, arboricity, EdgeColoringAlgorithm())
        stars = result.ledger.breakdown()["star collections (gather & solve)"]
        assert stars >= 2 * 6 * arboricity


class TestTransformOptions:
    def test_explicit_k_override(self):
        tree = random_tree(200, seed=7)
        low_k = solve_on_tree(tree, MISAlgorithm(), k=2)
        high_k = solve_on_tree(tree, MISAlgorithm(), k=12)
        assert low_k.verification.ok and high_k.verification.ok
        assert low_k.k == 2 and high_k.k == 12
        # A larger cut-off means fewer peeling iterations.
        assert high_k.details["iterations"] <= low_k.details["iterations"]

    def test_cost_model_charges_analytic_rounds(self):
        tree = random_tree(300, seed=8)
        model = OracleCostModel("bbko22b", polylog(12))
        result = solve_on_bounded_arboricity(
            tree, 1, EdgeColoringAlgorithm(), cost_model=model
        )
        assert result.verification.ok
        assert result.algorithm_rounds_charged is not None
        assert result.charged_rounds is not None
        assert result.charged_rounds == (
            result.rounds
            - result.algorithm_rounds_measured
            + result.algorithm_rounds_charged
        )

    def test_no_cost_model_means_no_charged_rounds(self):
        tree = random_tree(50, seed=9)
        result = solve_on_tree(tree, MISAlgorithm())
        assert result.charged_rounds is None

    def test_rho_affects_k(self):
        tree = random_tree(200, seed=10)
        model = OracleCostModel("bbko22b", polylog(2))
        rho_one = solve_on_bounded_arboricity(
            tree, 1, EdgeColoringAlgorithm(), rho=1, cost_model=model
        )
        rho_three = solve_on_bounded_arboricity(
            tree, 1, EdgeColoringAlgorithm(), rho=3, cost_model=model
        )
        assert rho_one.verification.ok and rho_three.verification.ok
        assert rho_three.k >= rho_one.k

    def test_empty_and_singleton_graphs(self):
        empty = nx.Graph()
        assert solve_on_tree(empty, MISAlgorithm()).rounds == 0
        assert solve_on_bounded_arboricity(empty, 1, EdgeColoringAlgorithm()).rounds == 0
        single = nx.Graph()
        single.add_node(0)
        result = solve_on_tree(single, MISAlgorithm())
        assert result.verification.ok
        assert result.classic == {0}
        result_edge = solve_on_bounded_arboricity(single, 1, EdgeColoringAlgorithm())
        assert result_edge.verification.ok

    def test_two_node_tree(self):
        tree = nx.path_graph(2)
        mis = solve_on_tree(tree, MISAlgorithm())
        assert is_maximal_independent_set(tree, mis.classic)
        matching = solve_on_bounded_arboricity(tree, 1, MaximalMatchingAlgorithm())
        assert is_maximal_matching(tree, [tuple(e) for e in matching.classic])


class TestRoundScaling:
    """Coarse sanity check of the round accounting: the decomposition phase
    grows with log n while the A-phase depends on k (not on n)."""

    def test_decomposition_rounds_grow_slowly(self):
        small = solve_on_tree(random_tree(100, seed=11), MISAlgorithm(), k=2)
        large = solve_on_tree(random_tree(3000, seed=11), MISAlgorithm(), k=2)
        assert large.ledger.breakdown()["decomposition"] <= (
            3 * small.ledger.breakdown()["decomposition"]
        )

    def test_algorithm_phase_depends_on_k_not_n(self):
        small = solve_on_tree(random_tree(200, seed=12), DegPlusOneColoringAlgorithm(), k=3)
        large = solve_on_tree(random_tree(2000, seed=12), DegPlusOneColoringAlgorithm(), k=3)
        small_a = small.ledger.breakdown().get("truly-local algorithm A", 0)
        large_a = large.ledger.breakdown().get("truly-local algorithm A", 0)
        assert abs(large_a - small_a) <= 8


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=3000))
def test_property_pipelines_produce_valid_solutions(n, seed):
    tree = random_tree(n, seed=seed)
    mis = solve_on_tree(tree, MISAlgorithm())
    assert mis.verification.ok
    assert is_maximal_independent_set(tree, mis.classic)
    colouring = solve_on_bounded_arboricity(tree, 1, EdgeColoringAlgorithm())
    assert colouring.verification.ok
    assert is_edge_degree_plus_one_coloring(tree, dict(colouring.classic))


def test_tree_mis_at_ten_thousand_nodes_has_exact_lemma_11_diameters():
    """Theorem 12 at n = 10^4: the gather account stays exact and linear."""
    tree = random_tree(10_000, seed=3)
    result = solve_on_tree(tree, MISAlgorithm())
    assert result.verification.ok
    assert is_maximal_independent_set(tree, result.classic)
    diameters = result.details["raked_component_diameters"]
    assert sorted(diameters) == sorted(result.decomposition.raked_component_diameters())
    bound = result.decomposition.lemma_11_diameter_bound()
    assert diameters and all(d <= bound for d in diameters)
