"""Pin the single-pass verifier against the per-node verifier loop it replaced.

:func:`reference_verify` is the verifier as first written: per node it
lists the incident half-edges (sorted by ``repr``), checks they are all
labeled, then looks every label up again for the configuration.  The
single-pass :func:`~repro.problems.verify_solution` must return an equal
:class:`~repro.problems.VerificationResult` — the same violations in the
same order — on seeded faulty labelings, with and without
``require_complete``.
"""

import random

import pytest

from repro.baselines import EdgeColoringAlgorithm, MISAlgorithm
from repro.core import solve_on_bounded_arboricity, solve_on_tree
from repro.generators import random_tree
from repro.problems import verify_solution
from repro.problems.base import DUMMY
from repro.problems.mis import IN_MIS, OUT, POINTER, MaximalIndependentSetProblem
from repro.problems.verification import VerificationResult, Violation
from repro.semigraph import (
    HalfEdge,
    HalfEdgeLabeling,
    restrict_to_nodes,
    semigraph_from_graph,
)

MIS = MaximalIndependentSetProblem()


def reference_verify(problem, semigraph, labeling, require_complete=True):
    violations = []
    if require_complete:
        for half_edge in semigraph.half_edges():
            if not labeling.is_labeled(half_edge):
                violations.append(
                    Violation("unlabeled", half_edge, (), "half-edge has no label")
                )
    for node in semigraph.nodes:
        incident = semigraph.half_edges_of_node(node)
        if not all(labeling.is_labeled(h) for h in incident):
            continue
        config = labeling.node_configuration(semigraph, node)
        if not problem.node_config_ok(config):
            violations.append(
                Violation("node", node, config, "node configuration not allowed")
            )
    for edge in semigraph.edges:
        incident = semigraph.half_edges_of_edge(edge)
        if not all(labeling.is_labeled(h) for h in incident):
            continue
        config = labeling.edge_configuration(semigraph, edge)
        if not problem.edge_config_ok(config, semigraph.rank(edge)):
            violations.append(
                Violation("edge", edge, config, "edge configuration not allowed")
            )
    return VerificationResult(ok=not violations, violations=violations)


def _mis(seed):
    """A valid MIS labeling of a random tree, as a mutable dict."""
    tree = random_tree(60, seed=seed)
    result = solve_on_tree(tree, MISAlgorithm())
    return MIS, semigraph_from_graph(tree), dict(result.labeling.items())


def _relabel(labels, rng, alphabet, count):
    for half_edge in rng.sample(sorted(labels), count):
        labels[half_edge] = rng.choice(alphabet)


def unlabeled_half_edges(seed):
    rng = random.Random(seed)
    problem, semigraph, labels = _mis(seed)
    for half_edge in rng.sample(sorted(labels), 4):
        del labels[half_edge]
    return problem, semigraph, labels, "unlabeled"


def bad_node_configuration(seed):
    """Random labels (``None`` among them) on a few half-edges."""
    rng = random.Random(seed)
    problem, semigraph, labels = _mis(seed)
    _relabel(labels, rng, [IN_MIS, POINTER, OUT, None], 6)
    return problem, semigraph, labels, "node"


def bad_edge_configuration(seed):
    """Two ``M`` half-edges on one edge, both nodes still all-``M``."""
    rng = random.Random(seed)
    problem, semigraph, labels = _mis(seed)
    leaves = sorted(v for v in semigraph.nodes if semigraph.degree(v) == 1)
    leaf = rng.choice(leaves)
    (edge,) = semigraph.incident_edges(leaf)
    other = semigraph.other_endpoint(edge, leaf)
    for half_edge in semigraph.half_edges_of_node(other):
        labels[half_edge] = IN_MIS
    labels[HalfEdge(leaf, edge)] = IN_MIS
    return problem, semigraph, labels, "edge"


def mixed_type_labels(seed):
    """Edge-colouring pair labels next to the dummy label and a few bad ones."""
    rng = random.Random(seed)
    tree = random_tree(50, seed=seed)
    algorithm = EdgeColoringAlgorithm()
    result = solve_on_bounded_arboricity(tree, 1, algorithm)
    labels = dict(result.labeling.items())
    _relabel(labels, rng, [DUMMY, (1, 1), (2, 3), "x"], 5)
    for half_edge in rng.sample(sorted(labels), 2):
        del labels[half_edge]
    return algorithm.problem, semigraph_from_graph(tree), labels, "node"


def rank_one_and_rank_zero_edges(seed):
    """A sub-semi-graph whose cut edges drop to rank 1, plus rank-0 edges."""
    rng = random.Random(seed)
    problem, full, labels = _mis(seed)
    nodes = [v for v in sorted(full.nodes) if rng.random() < 0.5]
    semigraph = restrict_to_nodes(full, nodes)
    for index in range(3):
        semigraph.add_edge(("rank-0", index), ())
    assert semigraph.edges_of_rank(1) and semigraph.edges_of_rank(0)
    present = set(semigraph.half_edges())
    labels = {h: label for h, label in labels.items() if h in present}
    _relabel(labels, rng, [IN_MIS, POINTER, OUT], 4)
    for half_edge in rng.sample(sorted(labels), 2):
        del labels[half_edge]
    return problem, semigraph, labels, "unlabeled"


FAULTS = {
    fault.__name__: fault
    for fault in (unlabeled_half_edges, bad_node_configuration,
                  bad_edge_configuration, mixed_type_labels,
                  rank_one_and_rank_zero_edges)
}


@pytest.mark.parametrize("require_complete", [True, False])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verifier_matches_reference_on_faulty_labelings(fault, seed, require_complete):
    problem, semigraph, labels, kind = FAULTS[fault](seed)
    labeling = HalfEdgeLabeling(labels)
    expected = reference_verify(problem, semigraph, labeling, require_complete)
    assert verify_solution(problem, semigraph, labeling, require_complete) == expected
    if require_complete or kind != "unlabeled":
        assert kind in {v.kind for v in expected.violations}, expected.violations


@pytest.mark.parametrize("seed", range(3))
def test_verifier_matches_reference_on_valid_labelings(seed):
    problem, semigraph, labels = _mis(seed)
    labeling = HalfEdgeLabeling(labels)
    expected = reference_verify(problem, semigraph, labeling)
    assert expected.ok
    assert verify_solution(problem, semigraph, labeling) == expected
