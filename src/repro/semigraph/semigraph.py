"""The semi-graph data structure (Definition 4 of the paper).

A semi-graph consists of

* a set of *nodes*,
* a set of *edges*, each incident on 0, 1 or 2 nodes (its *rank*), and
* the induced set of *half-edges*: pairs ``(node, edge)`` for every
  incidence.

A standard graph is the special case in which every edge has rank 2.
Semi-graphs arise in the paper when a problem has been partially solved:
the unsolved part of the instance keeps edges whose other endpoint has
already been handled, and those edges drop to rank 1 (or 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Iterator, Mapping

import networkx as nx

NodeId = Hashable
EdgeId = Hashable


@dataclass(frozen=True, order=True)
class HalfEdge:
    """An incidence between a node and an edge of a semi-graph."""

    node: NodeId
    edge: EdgeId

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HalfEdge(node={self.node!r}, edge={self.edge!r})"


class SemiGraph:
    """A graph whose edges may have 0, 1 or 2 endpoints.

    Parameters
    ----------
    nodes:
        Iterable of hashable node identifiers.
    edges:
        Mapping from edge identifier to a tuple of endpoint nodes.  The
        tuple may have length 0, 1 or 2; every endpoint must be a node of
        the semi-graph.  Edges with two identical endpoints (self-loops)
        are rejected, matching the paper's simple-graph setting.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Mapping[EdgeId, tuple] | None = None,
    ) -> None:
        self._nodes: set[NodeId] = set(nodes)
        self._edges: dict[EdgeId, tuple] = {}
        self._incident: dict[NodeId, set[EdgeId]] = {v: set() for v in self._nodes}
        if edges:
            for edge_id, endpoints in edges.items():
                self.add_edge(edge_id, endpoints)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (a no-op if the node already exists)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._incident[node] = set()

    def add_edge(self, edge_id: EdgeId, endpoints: Iterable[NodeId]) -> None:
        """Add an edge with the given endpoints (0, 1 or 2 of them)."""
        endpoints = tuple(endpoints)
        if edge_id in self._edges:
            raise ValueError(f"duplicate edge identifier {edge_id!r}")
        if len(endpoints) > 2:
            raise ValueError("an edge of a semi-graph has at most 2 endpoints")
        if len(endpoints) == 2 and endpoints[0] == endpoints[1]:
            raise ValueError("self-loops are not allowed in a semi-graph")
        for v in endpoints:
            if v not in self._nodes:
                raise ValueError(f"endpoint {v!r} is not a node of the semi-graph")
        self._edges[edge_id] = endpoints
        for v in endpoints:
            self._incident[v].add(edge_id)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> frozenset:
        """The node set ``V_semi(S)``."""
        return frozenset(self._nodes)

    @property
    def edges(self) -> frozenset:
        """The edge identifiers ``E_semi(S)``."""
        return frozenset(self._edges)

    def endpoints(self, edge_id: EdgeId) -> tuple:
        """The endpoints of an edge, as a tuple of length 0, 1 or 2."""
        return self._edges[edge_id]

    def rank(self, edge_id: EdgeId) -> int:
        """The rank (number of endpoints) of an edge."""
        return len(self._edges[edge_id])

    def degree(self, node: NodeId) -> int:
        """The number of half-edges incident on ``node``."""
        return len(self._incident[node])

    def incident_edges(self, node: NodeId) -> frozenset:
        """The edges incident on ``node``."""
        return frozenset(self._incident[node])

    def half_edges(self) -> Iterator[HalfEdge]:
        """Iterate over all half-edges ``H(S)``."""
        for edge_id, endpoints in self._edges.items():
            for v in endpoints:
                yield HalfEdge(v, edge_id)

    def half_edges_of_node(self, node: NodeId) -> list[HalfEdge]:
        """All half-edges incident on ``node``."""
        return [HalfEdge(node, e) for e in sorted(self._incident[node], key=repr)]

    def half_edges_of_edge(self, edge_id: EdgeId) -> list[HalfEdge]:
        """All half-edges incident on ``edge_id`` (one per endpoint)."""
        return [HalfEdge(v, edge_id) for v in self._edges[edge_id]]

    def other_endpoint(self, edge_id: EdgeId, node: NodeId) -> NodeId | None:
        """The endpoint of a rank-2 edge other than ``node`` (``None`` otherwise)."""
        endpoints = self._edges[edge_id]
        if len(endpoints) != 2:
            return None
        if endpoints[0] == node:
            return endpoints[1]
        if endpoints[1] == node:
            return endpoints[0]
        raise ValueError(f"{node!r} is not an endpoint of edge {edge_id!r}")

    def num_nodes(self) -> int:
        """The number of nodes."""
        return len(self._nodes)

    def num_edges(self) -> int:
        """The number of edges (of any rank)."""
        return len(self._edges)

    def edges_of_rank(self, rank: int) -> list[EdgeId]:
        """All edge identifiers of the given rank."""
        return [e for e, endpoints in self._edges.items() if len(endpoints) == rank]

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def neighbors(self, node: NodeId) -> set[NodeId]:
        """Neighbours of ``node`` in the underlying graph."""
        result: set[NodeId] = set()
        for e in self._incident[node]:
            other = self.other_endpoint(e, node)
            if other is not None:
                result.add(other)
        return result

    def underlying_graph(self) -> nx.Graph:
        """The underlying graph: rank-2 edges between the semi-graph's nodes.

        Parallel rank-2 edges collapse to a single graph edge, matching the
        paper's definition of the underlying graph.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        for edge_id, endpoints in self._edges.items():
            if len(endpoints) == 2:
                graph.add_edge(endpoints[0], endpoints[1], edge_id=edge_id)
        return graph

    def underlying_adjacency(self) -> dict[NodeId, set[NodeId]]:
        """The underlying graph as neighbour sets, built in one pass.

        Every node maps to the set of its neighbours over rank-2 edges, so
        parallel rank-2 edges collapse as in :meth:`underlying_graph`.
        """
        adjacency: dict[NodeId, set[NodeId]] = {v: set() for v in self._nodes}
        for endpoints in self._edges.values():
            if len(endpoints) == 2:
                u, v = endpoints
                adjacency[u].add(v)
                adjacency[v].add(u)
        return adjacency

    def underlying_degree(self) -> int:
        """The maximum degree of the underlying graph (0 for an empty graph)."""
        return max(map(len, self.underlying_adjacency().values()), default=0)

    def max_degree(self) -> int:
        """Maximum number of incident half-edges over all nodes."""
        if not self._nodes:
            return 0
        return max(self.degree(v) for v in self._nodes)

    def edge_degree(self, edge_id: EdgeId) -> int:
        """Number of edges adjacent to ``edge_id`` (sharing an endpoint)."""
        adjacent: set[EdgeId] = set()
        for v in self._edges[edge_id]:
            adjacent.update(self._incident[v])
        adjacent.discard(edge_id)
        return len(adjacent)

    def connected_components(self) -> list[set]:
        """Connected components of the underlying graph.

        Nodes joined by rank-2 edges are in the same component; isolated
        nodes form singleton components.  Rank-0/1 edges do not connect
        anything.
        """
        return [set(c) for c in nx.connected_components(self.underlying_graph())]

    def component_diameter(self, component: set) -> int:
        """Exact diameter of a connected node set of the underlying graph.

        Raises ``ValueError`` when ``component`` is not connected.
        """
        component = set(component)
        adjacency = {v: self.neighbors(v) & component for v in component}
        diameters = component_diameters(adjacency)
        if len(diameters) > 1:
            raise ValueError("the node set is not connected in the underlying graph")
        return diameters[0] if diameters else 0

    def is_connected(self) -> bool:
        """Whether the underlying graph is connected."""
        graph = self.underlying_graph()
        if graph.number_of_nodes() == 0:
            return True
        return nx.is_connected(graph)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ranks = {r: len(self.edges_of_rank(r)) for r in (0, 1, 2)}
        return (
            f"SemiGraph(nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"ranks={ranks})"
        )

    def copy(self) -> "SemiGraph":
        """A deep-enough copy (node/edge structure; identifiers are shared)."""
        return SemiGraph(self._nodes, dict(self._edges))


# ----------------------------------------------------------------------
# exact diameters by breadth-first search
# ----------------------------------------------------------------------
def _sweep(adjacency: Mapping[NodeId, Iterable[NodeId]], source: NodeId):
    """BFS from ``source``: a farthest node, its distance, and the nodes reached."""
    seen = {source}
    frontier = [source]
    distance = 0
    while True:
        reached = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        if not reached:
            return frontier[0], distance, seen
        frontier = reached
        distance += 1


def component_diameters(adjacency: Mapping[NodeId, Collection[NodeId]]) -> list[int]:
    """Exact diameter of every connected component of a simple graph.

    ``adjacency`` maps every node to the collection of its neighbours
    (symmetric, no repeats, no self-loops); components are listed in the
    order of their first node in ``adjacency``.  The BFS that finds a
    component also finds a node farthest from its start.  A tree component
    (edges = nodes − 1) then needs one more BFS from that node: the double
    sweep is exact on trees.  A component with a cycle gets a BFS from
    every node, as :func:`networkx.diameter` does.  On a forest the total
    cost is ``O(n)``; no diameter is ever approximated.
    """
    diameters: list[int] = []
    seen: set = set()
    for source in adjacency:
        if source in seen:
            continue
        farthest, _, component = _sweep(adjacency, source)
        seen |= component
        edges = sum(len(adjacency[v]) for v in component) // 2
        if edges == len(component) - 1:
            diameters.append(_sweep(adjacency, farthest)[1])
        else:
            diameters.append(max(_sweep(adjacency, v)[1] for v in component))
    return diameters
