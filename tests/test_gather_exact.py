"""Exactness pins for the Theorem 12 gather account and its diameter helper.

The gather-and-solve account charges ``2 · max diameter + 2`` rounds over
the components of a semi-graph's underlying graph.  Its diameters come
from one BFS helper (:func:`repro.semigraph.component_diameters`); these
tests pin that helper against :func:`networkx.diameter`, and the account
itself against the first, per-component ``nx.diameter`` implementation,
round for round on every smoke-size suite cell that reaches it.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.transform as transform
import repro.experiments.spec as spec
from repro.core.transform import GATHER_OVERHEAD, gather_and_solve_rounds
from repro.decomposition import rake_and_compress
from repro.experiments import ALGORITHMS, get_suite, run_cell
from repro.generators import random_tree
from repro.semigraph import (
    SemiGraph,
    component_diameters,
    restrict_to_edges,
    restrict_to_nodes,
    semigraph_from_graph,
)

GATHER_PHASE = "raked components (gather & solve)"


def reference_gather(semigraph_part: SemiGraph) -> tuple[int, list[int]]:
    """The gather account as first written: ``nx.diameter`` per component."""
    graph = semigraph_part.underlying_graph()
    diameters = [
        nx.diameter(graph.subgraph(component)) if len(component) > 1 else 0
        for component in nx.connected_components(graph)
    ]
    if not diameters:
        return 0, []
    return 2 * max(diameters) + GATHER_OVERHEAD, diameters


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _graph(kind: str, n: int, seed: int, density: float) -> nx.Graph:
    if kind == "tree":
        return random_tree(n, seed=seed)
    if kind == "forest":
        rng = random.Random(seed)
        parts = [random_tree(rng.randint(1, 8), seed=seed + i) for i in range(1 + n // 6)]
        return nx.disjoint_union_all(parts)
    if kind == "gnp":
        return nx.gnp_random_graph(n, density, seed=seed)
    if kind == "grid":
        return nx.grid_2d_graph(1 + n % 5, 1 + n // 5)
    if kind == "cycle":
        return nx.cycle_graph(max(n, 3))
    if kind == "singleton":
        graph = nx.Graph()
        graph.add_node(0)
        return graph
    return nx.Graph()


@st.composite
def semigraphs(draw) -> SemiGraph:
    """Semi-graphs of every shape the gather account meets, and more."""
    kind = draw(st.sampled_from(["tree", "forest", "gnp", "grid", "cycle",
                                 "singleton", "empty"]))
    n = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.floats(min_value=0.02, max_value=0.3))
    semigraph = semigraph_from_graph(_graph(kind, n, seed, density))
    rng = random.Random(seed)

    view = draw(st.sampled_from(["whole", "nodes", "edges"]))
    if view == "nodes":
        # Edges leaving the node subset drop to rank 1 (rank 0 never arises
        # from a graph, so some rank-0 edges are added below).
        nodes = [v for v in sorted(semigraph.nodes, key=repr) if rng.random() < 0.7]
        semigraph = restrict_to_nodes(semigraph, nodes)
        for index in range(rng.randint(0, 2)):
            semigraph.add_edge(("rank-0", index), ())
    elif view == "edges":
        edges = [e for e in sorted(semigraph.edges, key=repr) if rng.random() < 0.7]
        semigraph = restrict_to_edges(semigraph, edges)

    if draw(st.booleans()):
        # Parallel rank-2 edges with their own ids must collapse.
        rank_two = sorted(semigraph.edges_of_rank(2), key=repr)
        for index, edge in enumerate(rank_two[: rng.randint(1, 4)]):
            semigraph.add_edge(("parallel", index), semigraph.endpoints(edge))
    return semigraph


# ----------------------------------------------------------------------
# the diameter helper against networkx
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(semigraphs())
def test_property_component_diameters_match_networkx(semigraph):
    expected_rounds, expected = reference_gather(semigraph)
    diameters = component_diameters(semigraph.underlying_adjacency())
    assert sorted(diameters) == sorted(expected)
    assert gather_and_solve_rounds(semigraph)[0] == expected_rounds


@settings(max_examples=60, deadline=None)
@given(semigraphs())
def test_property_component_diameter_and_degree_match_networkx(semigraph):
    graph = semigraph.underlying_graph()
    for component in semigraph.connected_components():
        expected = nx.diameter(graph.subgraph(component)) if len(component) > 1 else 0
        assert semigraph.component_diameter(component) == expected
    assert semigraph.underlying_degree() == max(
        (d for _, d in graph.degree()), default=0
    )


def test_empty_and_singleton():
    assert component_diameters({}) == []
    assert gather_and_solve_rounds(SemiGraph()) == (0, [])
    assert gather_and_solve_rounds(SemiGraph(["a"])) == (GATHER_OVERHEAD, [0])


def test_parallel_edges_do_not_make_a_cycle():
    """Two ids for one pair of nodes are one underlying edge: a path of 3."""
    semigraph = SemiGraph(["a", "b", "c"])
    semigraph.add_edge("ab", ("a", "b"))
    semigraph.add_edge("ab-again", ("b", "a"))
    semigraph.add_edge("bc", ("b", "c"))
    semigraph.add_edge("dangling", ("c",))
    assert semigraph.underlying_adjacency() == {
        "a": {"b"}, "b": {"a", "c"}, "c": {"b"},
    }
    assert gather_and_solve_rounds(semigraph) == (2 * 2 + GATHER_OVERHEAD, [2])


def test_cycle_components_are_exact():
    """A component with a cycle gets every eccentricity, not a double sweep."""
    graph = nx.cycle_graph(9)
    graph.add_edges_from([(0, 100), (100, 101), (101, 102)])  # a tail on the cycle
    adjacency = {v: set(graph[v]) for v in graph}
    assert component_diameters(adjacency) == [nx.diameter(graph)] == [7]


def test_component_diameter_rejects_a_disconnected_set():
    semigraph = semigraph_from_graph(nx.path_graph(4))
    assert semigraph.component_diameter({0, 1, 2, 3}) == 3
    assert semigraph.component_diameter({1, 2}) == 1
    with pytest.raises(ValueError):
        semigraph.component_diameter({0, 3})


@pytest.mark.parametrize("seed", range(4))
def test_raked_component_diameters_match_networkx(seed):
    tree = random_tree(300, seed=seed)
    decomposition = rake_and_compress(tree, 3)
    subgraph = tree.subgraph(decomposition.raked_nodes)
    expected = [
        nx.diameter(subgraph.subgraph(c)) if len(c) > 1 else 0
        for c in nx.connected_components(subgraph)
    ]
    assert sorted(decomposition.raked_component_diameters()) == sorted(expected)


# ----------------------------------------------------------------------
# the account inside the pipelines
# ----------------------------------------------------------------------
def test_gather_builds_the_underlying_adjacency_at_most_once(monkeypatch):
    builds = []
    original = SemiGraph.underlying_adjacency

    def counted(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(SemiGraph, "underlying_adjacency", counted)
    monkeypatch.setattr(SemiGraph, "underlying_graph", lambda self: pytest.fail(
        "gather must not build a networkx underlying graph"
    ))
    forest = nx.disjoint_union_all([random_tree(50, seed=s) for s in range(5)])
    rounds, diameters = gather_and_solve_rounds(semigraph_from_graph(forest))
    assert len(builds) == 1
    assert len(diameters) == 5 and rounds == 2 * max(diameters) + GATHER_OVERHEAD


#: Algorithm kinds whose cells charge the gather account.
GATHER_KINDS = {"tree-transform", "orientation", "list-variant"}


@pytest.mark.parametrize("suite", ["paper-claims", "charged", "orientation-lists"])
def test_gather_matches_reference_on_every_smoke_cell(suite, monkeypatch):
    """Round for round: the new account equals the old on every suite cell."""
    calls: list[int] = []

    def spy(semigraph_part):
        rounds, diameters = gather_and_solve_rounds(semigraph_part)
        expected_rounds, expected_diameters = reference_gather(semigraph_part)
        assert rounds == expected_rounds
        assert sorted(diameters) == sorted(expected_diameters)
        calls.append(rounds)
        return rounds, diameters

    monkeypatch.setattr(transform, "gather_and_solve_rounds", spy)
    monkeypatch.setattr(spec, "gather_and_solve_rounds", spy)
    reached = 0
    for cell in get_suite(suite).cells(smoke=True):
        kind = ALGORITHMS[cell.algorithm].kind
        calls.clear()
        result = run_cell(suite, cell)
        assert result.verified, cell
        if kind == "tree-transform":
            phase = result.extras["phases"].get(GATHER_PHASE)
            assert calls == ([] if phase is None else [phase]), cell
        elif kind in GATHER_KINDS:
            assert len(calls) == 1, cell
        else:
            assert calls == [], cell
        reached += bool(calls)
    assert reached >= 4
