"""Verification of half-edge labelings against a node-edge-checkable problem.

A solution is valid (Definition 6) when every node's label multiset is in
``N_Π^{deg}`` and every edge's label multiset is in ``E_Π^{rank}``.  The
verifier reports every violated constraint, which the test-suite and the
experiment harness use both to assert correctness and to produce useful
diagnostics when an algorithm is wrong.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.problems.base import NodeEdgeCheckableProblem
from repro.semigraph import HalfEdgeLabeling, SemiGraph
from repro.semigraph.labeling import canonical_multiset

#: Stands in for the label of an unlabeled half-edge (a label may be ``None``).
_UNLABELED = object()


@dataclass(frozen=True)
class Violation:
    """A single violated constraint."""

    kind: str  # "node", "edge", or "unlabeled"
    subject: Any  # the node or edge identifier
    configuration: tuple
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.subject!r}: {self.message} (labels={self.configuration!r})"


@dataclass
class VerificationResult:
    """Outcome of verifying a labeling against a problem."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """Human-readable one-line summary."""
        if self.ok:
            return "valid solution"
        return f"{len(self.violations)} violations: " + "; ".join(
            str(v) for v in self.violations[:5]
        )


def verify_solution(
    problem: NodeEdgeCheckableProblem,
    semigraph: SemiGraph,
    labeling: HalfEdgeLabeling,
    require_complete: bool = True,
) -> VerificationResult:
    """Check a half-edge labeling against ``problem`` on ``semigraph``.

    Parameters
    ----------
    require_complete:
        When true (the default), any unlabeled half-edge is reported as a
        violation.  When false, only nodes and edges all of whose incident
        half-edges are labeled are checked — useful for verifying the
        intermediate, partial outputs produced inside the transformation.
    """
    violations: list[Violation] = []

    # One pass over the half-edges collects every node's and every edge's
    # labels; a node or edge with an unlabeled half-edge is not checked.
    node_labels: dict = defaultdict(list)
    edge_labels: dict = defaultdict(list)
    incomplete_nodes: set = set()
    incomplete_edges: set = set()
    for half_edge in semigraph.half_edges():
        label = labeling.get(half_edge, _UNLABELED)
        if label is _UNLABELED:
            if require_complete:
                violations.append(
                    Violation("unlabeled", half_edge, (), "half-edge has no label")
                )
            incomplete_nodes.add(half_edge.node)
            incomplete_edges.add(half_edge.edge)
        else:
            node_labels[half_edge.node].append(label)
            edge_labels[half_edge.edge].append(label)

    for node in semigraph.nodes:
        if node in incomplete_nodes:
            continue
        config = canonical_multiset(node_labels.get(node, ()))
        if not problem.node_config_ok(config):
            violations.append(
                Violation("node", node, config, "node configuration not allowed")
            )

    for edge in semigraph.edges:
        if edge in incomplete_edges:
            continue
        config = canonical_multiset(edge_labels.get(edge, ()))
        if not problem.edge_config_ok(config, semigraph.rank(edge)):
            violations.append(
                Violation("edge", edge, config, "edge configuration not allowed")
            )

    return VerificationResult(ok=not violations, violations=violations)
