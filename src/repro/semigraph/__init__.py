"""Semi-graphs: the object model of Section 2 of the paper.

A semi-graph is a graph whose edges may have 0, 1, or 2 endpoints.  The
paper (Definition 4) phrases this as a bipartite incidence structure; this
package exposes it through the :class:`SemiGraph` class, together with
half-edges, induced sub-semi-graphs, and half-edge labelings.
"""

from repro.semigraph.semigraph import HalfEdge, SemiGraph, component_diameters
from repro.semigraph.labeling import HalfEdgeLabeling
from repro.semigraph.builders import (
    semigraph_from_graph,
    restrict_to_nodes,
    restrict_to_edges,
)

__all__ = [
    "HalfEdge",
    "SemiGraph",
    "component_diameters",
    "HalfEdgeLabeling",
    "semigraph_from_graph",
    "restrict_to_nodes",
    "restrict_to_edges",
]
