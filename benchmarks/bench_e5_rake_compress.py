"""E5 — Lemmas 10 and 11: quality of the rake-and-compress decomposition.

Paper claims (for Algorithm 1 with parameter ``k``):

* Lemma 9: every node is marked within ``⌈log_k n⌉ + 1`` iterations;
* Lemma 10: the graph induced by edges with a compressed lower endpoint has
  maximum degree at most ``k``;
* Lemma 11: every connected component of the raked nodes has diameter at
  most ``4(log_k n + 1) + 2``.

What this benchmark regenerates: the measured iteration counts, induced
degrees and component diameters over a (tree family × k) sweep, next to the
paper's bounds.  This doubles as a k-ablation.
"""

import pytest

from _harness import record_table
from repro.analysis import MeasurementTable
from repro.decomposition import rake_and_compress
from repro.generators import balanced_regular_tree, caterpillar, random_tree, spider


def instances():
    return [
        ("random n=1000", random_tree(1000, seed=81)),
        ("random n=4000", random_tree(4000, seed=82)),
        ("3-regular depth 8", balanced_regular_tree(3, 8)),
        ("6-regular depth 4", balanced_regular_tree(6, 4)),
        ("caterpillar 300x3", caterpillar(300, 3)),
        ("spider 30x30", spider(30, 30)),
    ]


def test_e5_report():
    table = MeasurementTable(
        "E5: rake-and-compress decomposition quality (Algorithm 1, Lemmas 9-11)",
        [
            "instance",
            "n",
            "k",
            "iterations",
            "iteration bound",
            "compress-edge max degree (<= k)",
            "max raked diameter",
            "Lemma 11 bound",
        ],
    )
    for name, tree in instances():
        for k in (2, 4, 16):
            decomposition = rake_and_compress(tree, k)
            diameters = decomposition.raked_component_diameters()
            table.add_row(
                name,
                tree.number_of_nodes(),
                k,
                decomposition.iterations,
                decomposition.theoretical_iteration_bound,
                decomposition.compress_edge_max_degree(),
                max(diameters) if diameters else 0,
                decomposition.lemma_11_diameter_bound(),
            )
            assert decomposition.iterations <= decomposition.theoretical_iteration_bound
            assert decomposition.compress_edge_max_degree() <= k
            bound = decomposition.lemma_11_diameter_bound()
            assert all(d <= bound for d in diameters)
    record_table("e5_rake_compress", table)


def test_e5_larger_k_means_fewer_iterations():
    tree = balanced_regular_tree(3, 9)
    iterations = [rake_and_compress(tree, k).iterations for k in (2, 4, 8, 32)]
    assert iterations == sorted(iterations, reverse=True)


@pytest.mark.parametrize("k", [2, 8])
def test_e5_benchmark_rake_compress(benchmark, k):
    tree = random_tree(2000, seed=91)
    decomposition = benchmark(lambda: rake_and_compress(tree, k))
    assert decomposition.iterations >= 1
