"""Machine-speed probe: scales measured times to a reference speed.

On a shared host the same CPU-bound work runs up to about twice as slow
for minutes at a time, whatever the program does.  The benchmark therefore
times a fixed reference workload, written here and touching none of the
program's code, every half second or so among the cells of a pass, and
scales the pass's time by ``REFERENCE_PROBE_S / mean probe``: the time the
pass would have taken on a machine where the probe takes exactly
``REFERENCE_PROBE_S``.  A change to the program moves the scaled time as
much as the raw time; a slow spell of the host moves both the cells and
the probes, and cancels out.

The probe is plain Python over dicts, sets and lists (a random graph,
breadth-first search, a sort and a greedy colouring), the same kind of
work as the pipeline's networkx-based layers.
"""

from __future__ import annotations

import random
import time

#: Probe time of the reference machine; scaled times are seconds on it.
REFERENCE_PROBE_S = 0.08
#: Reference units per probe.
PROBE_UNITS = 3
_NODES = 4000


def _unit() -> int:
    rng = random.Random(12345)
    adjacency = {v: set() for v in range(_NODES)}
    for v in range(1, _NODES):
        u = rng.randrange(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
    for _ in range(_NODES):
        u, v = rng.randrange(_NODES), rng.randrange(_NODES)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    depth, frontier = {0: 0}, [0]
    while frontier:
        following = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    following.append(v)
        frontier = following
    colour = {}
    for v in sorted(adjacency, key=lambda v: (len(adjacency[v]), depth[v], v)):
        used = {colour[u] for u in adjacency[v] if u in colour}
        colour[v] = next(c for c in range(len(used) + 1) if c not in used)
    return max(colour.values())


def probe() -> float:
    """Wall seconds of one probe (``PROBE_UNITS`` reference units)."""
    start = time.perf_counter()
    for _ in range(PROBE_UNITS):
        _unit()
    return time.perf_counter() - start


def scale(probes) -> float:
    """Factor from raw to reference seconds for work timed among ``probes``.

    The mean, not the median: a unit's time, too, is the mean speed of the
    machine over the unit, slow spells included.
    """
    return REFERENCE_PROBE_S * len(probes) / sum(probes)
