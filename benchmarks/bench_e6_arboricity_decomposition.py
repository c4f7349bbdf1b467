"""E6 — Lemmas 13 and 14: quality of the bounded-arboricity Decomposition.

Paper claims (Algorithm 3 with ``b = 2a`` and ``k ≥ 5a``):

* Lemma 13: all nodes are marked within ``⌈10 log_{k/a} n⌉ + 1`` iterations;
* Lemma 14: the graph induced by typical edges has maximum degree at most
  ``k``; every node has at most ``b = 2a`` atypical edges towards higher
  neighbours; the star collections ``F_{i,j}`` consist of stars.

What this benchmark regenerates: the measured iteration counts, typical
degrees, atypical budgets and star checks over a (graph family × k) sweep,
plus a b-ablation.
"""

import pytest

from _harness import record_table
from repro.analysis import MeasurementTable
from repro.decomposition import arboricity_decomposition
from repro.generators import forest_union, grid_graph, planar_triangulation_like


def instances():
    return [
        ("grid 20x20", grid_graph(20, 20), 2),
        ("planar n=500", planar_triangulation_like(500, seed=1), 3),
        ("2 forests n=600", forest_union(600, 2, seed=2), 2),
        ("4 forests n=400", forest_union(400, 4, seed=3), 4),
    ]


def test_e6_report():
    table = MeasurementTable(
        "E6: bounded-arboricity decomposition quality (Algorithm 3, Lemmas 13-14)",
        [
            "instance",
            "n",
            "a",
            "k",
            "iterations",
            "Lemma 13 bound",
            "typical max degree (<= k)",
            "max atypical per node (<= 2a)",
            "star collections",
            "all stars",
        ],
    )
    for name, graph, arboricity in instances():
        for k in (5 * arboricity, 10 * arboricity, 20 * arboricity):
            decomposition = arboricity_decomposition(graph, arboricity, k)
            table.add_row(
                name,
                graph.number_of_nodes(),
                arboricity,
                k,
                decomposition.iterations,
                decomposition.theoretical_layer_bound(),
                decomposition.typical_max_degree(),
                decomposition.max_atypical_per_lower_endpoint(),
                len(decomposition.star_collections),
                decomposition.star_components_are_stars(),
            )
            assert decomposition.iterations <= decomposition.theoretical_layer_bound()
            assert decomposition.typical_max_degree() <= k
            assert decomposition.max_atypical_per_lower_endpoint() <= decomposition.b
            assert decomposition.star_components_are_stars()
    record_table("e6_arboricity_decomposition", table)


def test_e6_b_ablation():
    """Ablation of the b = 2a choice: larger b admits more atypical edges per
    node (more forests to finish sequentially), smaller b slows the peeling."""
    graph = planar_triangulation_like(400, seed=5)
    table = MeasurementTable(
        "E6 ablation: the high-degree-neighbour budget b (a=3, k=15)",
        ["b", "iterations", "atypical edges", "max atypical per node"],
    )
    for b in (4, 6, 9, 12):
        decomposition = arboricity_decomposition(graph, 3, 15, b=b)
        table.add_row(
            b,
            decomposition.iterations,
            len(decomposition.atypical_edges),
            decomposition.max_atypical_per_lower_endpoint(),
        )
        assert decomposition.max_atypical_per_lower_endpoint() <= b
    record_table("e6_b_ablation", table)


@pytest.mark.parametrize("name,maker,a", [
    ("grid", lambda: grid_graph(20, 20), 2),
    ("planar", lambda: planar_triangulation_like(400, seed=7), 3),
])
def test_e6_benchmark_decomposition(benchmark, name, maker, a):
    graph = maker()
    decomposition = benchmark(lambda: arboricity_decomposition(graph, a, 5 * a))
    assert decomposition.iterations >= 1
