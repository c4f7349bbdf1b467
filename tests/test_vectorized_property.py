"""Property-style equivalence of the vectorized backend across instance
families.

Seeded random trees and bounded-degree graphs, swept over sizes and
seeds, are run three ways — vectorized array kernels, the interpreted
active-set engine and the preserved seed engine — and every observable
must agree exactly: per-node labelings, round counts and message counts,
both in the :class:`RunResult` and through :class:`MessageMeter`
accounting.  This is the bit-identical contract that lets ``auto`` mode
pick the backend per algorithm without changing any stored result.
"""

import random

import pytest

from repro.baselines.coloring import deg_plus_one_coloring
from repro.baselines.color_reduction import ColorClassReduction
from repro.baselines.forest_coloring import ForestThreeColoring
from repro.baselines.linial import LinialColoring
from repro.baselines.mis import ColorClassMIS
from repro.decomposition import arboricity_decomposition, rake_and_compress
from repro.generators import (
    bfs_forest_parents,
    forest_union,
    random_graph_with_max_degree,
    random_tree,
)
from repro.local import (
    EnginePolicy,
    MessageMeter,
    Network,
    numpy_available,
    run_synchronous,
    run_synchronous_reference,
    run_vectorized,
)
import repro.local.vectorized as array_engine

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy is required for the vectorized backend"
)

#: (n, seed) sweep of the property tests.  n=2500 is large enough that
#: the Linial schedule has real reduction rounds (not just the trivial
#: identifier round), so both code paths of the kernel are exercised.
TREE_CASES = [(50, 1), (50, 2), (200, 3), (200, 4), (800, 5), (2500, 6)]
GRAPH_CASES = [(60, 5, 1), (200, 6, 2), (700, 4, 3)]


def _three_way(network, algorithm_factory, max_rounds=None):
    """Run all three engines; return their (result, messages) pairs."""
    outcomes = []
    for runner in (run_vectorized, run_synchronous, run_synchronous_reference):
        with MessageMeter() as meter:
            result = runner(network, algorithm_factory(), max_rounds=max_rounds)
        outcomes.append((result, meter.messages))
    return outcomes


def _colour_class_network(graph):
    """Network with a (deg+1)-colouring as node inputs, for the sweeps."""
    coloring = deg_plus_one_coloring(graph)
    num_classes = max(coloring.colours.values(), default=1)
    network = Network(
        graph,
        node_inputs=dict(coloring.colours),
        shared={"num_classes": num_classes},
    )
    return network, num_classes


def _assert_identical(outcomes):
    (vec, vec_msgs), (fast, fast_msgs), (ref, ref_msgs) = outcomes
    assert vec.rounds == fast.rounds == ref.rounds
    assert vec.messages_sent == fast.messages_sent == ref.messages_sent
    assert vec.outputs == fast.outputs == ref.outputs
    assert vec_msgs == fast_msgs == ref_msgs


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_linial_three_way_on_random_trees(n, seed):
    network = Network(random_tree(n, seed=seed))
    _assert_identical(_three_way(network, LinialColoring))


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_linial_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    network = Network(random_graph_with_max_degree(n, max_degree, seed=seed))
    _assert_identical(_three_way(network, LinialColoring))


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_forest_three_coloring_three_way_on_random_trees(n, seed):
    tree = random_tree(n, seed=seed)
    network = Network(tree, node_inputs=bfs_forest_parents(tree))
    outcomes = _three_way(network, ForestThreeColoring)
    _assert_identical(outcomes)
    assert len(set(outcomes[0][0].outputs.values())) <= 3


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_mis_three_way_on_random_trees(n, seed):
    graph = random_tree(n, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(network, ColorClassMIS, max_rounds=num_classes + 2)
    _assert_identical(outcomes)
    chosen = {node for node, joined in outcomes[0][0].outputs.items() if joined}
    assert all(not (u in chosen and v in chosen) for u, v in graph.edges)
    assert all(
        node in chosen or any(nb in chosen for nb in graph.adj[node])
        for node in graph.nodes
    )


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_mis_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    graph = random_graph_with_max_degree(n, max_degree, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(network, ColorClassMIS, max_rounds=num_classes + 2)
    _assert_identical(outcomes)


@pytest.mark.parametrize("n, seed", TREE_CASES)
def test_colour_reduction_three_way_on_random_trees(n, seed):
    graph = random_tree(n, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(
        network, ColorClassReduction, max_rounds=num_classes + 1
    )
    _assert_identical(outcomes)
    colours = outcomes[0][0].outputs
    assert all(colours[u] != colours[v] for u, v in graph.edges)
    assert all(
        colours[node] <= graph.degree(node) + 1 for node in graph.nodes
    )


@pytest.mark.parametrize("n, max_degree, seed", GRAPH_CASES)
def test_colour_reduction_three_way_on_bounded_degree_graphs(n, max_degree, seed):
    graph = random_graph_with_max_degree(n, max_degree, seed=seed)
    network, num_classes = _colour_class_network(graph)
    outcomes = _three_way(
        network, ColorClassReduction, max_rounds=num_classes + 1
    )
    _assert_identical(outcomes)


@pytest.mark.parametrize("n, k, seed", [(100, 3, 1), (400, 6, 2), (1500, 8, 3)])
def test_rake_compress_peel_property(n, k, seed):
    tree = random_tree(n, seed=seed)
    with EnginePolicy("vectorized"):
        vectorized = rake_and_compress(tree, k=k)
    with EnginePolicy("interpreted"):
        interpreted = rake_and_compress(tree, k=k)
    assert vectorized.layers == interpreted.layers
    assert vectorized.node_layer == interpreted.node_layer
    assert vectorized.rounds == interpreted.rounds


@pytest.mark.parametrize("n, a, seed", [(150, 2, 1), (400, 3, 2), (900, 4, 3)])
def test_arboricity_peel_property(n, a, seed):
    graph = forest_union(n, arboricity=a, seed=seed)
    with EnginePolicy("vectorized"):
        vectorized = arboricity_decomposition(graph, arboricity=a, k=5 * a)
    with EnginePolicy("interpreted"):
        interpreted = arboricity_decomposition(graph, arboricity=a, k=5 * a)
    assert vectorized.layers == interpreted.layers
    assert vectorized.degree_snapshots == interpreted.degree_snapshots
    assert vectorized.forests == interpreted.forests
    assert vectorized.forest_colorings == interpreted.forest_colorings
    assert vectorized.rounds == interpreted.rounds


# ----------------------------------------------------------------------
# array primitives
# ----------------------------------------------------------------------
#: Segment lengths with empty segments at the start, in the middle, at
#: the end, and everywhere.
SEGMENT_LENGTHS = [
    [0, 0, 3, 2],
    [2, 0, 0, 4, 1],
    [3, 1, 0, 0],
    [0, 0, 0, 0, 0],
]


@pytest.mark.parametrize("lengths", SEGMENT_LENGTHS)
@pytest.mark.parametrize("seed", [1, 2])
def test_segment_sum_matches_a_python_loop(lengths, seed):
    import numpy as np

    rng = random.Random(seed)
    indptr = np.cumsum([0] + lengths, dtype=np.int64)
    ints = np.asarray(
        [rng.randrange(-50, 50) for _ in range(indptr[-1])], dtype=np.int64
    )
    for values in (ints, ints > 0):
        expected = [
            int(sum(values[indptr[i]:indptr[i + 1]].tolist()))
            for i in range(len(lengths))
        ]
        assert array_engine._segment_sum(values, indptr).tolist() == expected


def test_bitwise_count_fallback_matches_numpy(monkeypatch):
    import numpy as np

    rng = random.Random(7)
    values = np.asarray(
        [0, 1, 2, 3, 255, 256, 2**62 - 1, 2**62, 2**63 - 1]
        + [rng.randrange(2**63) for _ in range(200)],
        dtype=np.int64,
    )
    expected = [bin(value).count("1") for value in values.tolist()]
    if hasattr(np, "bitwise_count"):
        assert np.bitwise_count(values).tolist() == expected
        assert array_engine._bitwise_count(values).tolist() == expected

    class NumpyWithoutBitwiseCount:
        """NumPy as numpy < 2 exposes it: no ``bitwise_count``."""

        def __getattr__(self, name):
            if name == "bitwise_count":
                raise AttributeError(name)
            return getattr(np, name)

    monkeypatch.setattr(array_engine, "np", NumpyWithoutBitwiseCount())
    fallback = array_engine._bitwise_count(values)
    assert fallback.tolist() == expected
    assert fallback.shape == values.shape
