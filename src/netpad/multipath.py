"""Fallback delivery over a restricted physical graph: t+1 node-disjoint
paths plus an additive (t+1)-packet secret-sharing code, for channels
whose end-to-end rates are at their limit.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gf2 import BitString
from .permutation import _seed_int

if TYPE_CHECKING:  # imported on first use: only this module needs networkx
    import networkx as nx


@dataclass(frozen=True)
class Topology:
    """Simple undirected graph on nodes 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) outside 1..{self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """Reads what to_json writes; any other document raises ValueError."""
        doc = json.loads(text)
        try:
            n, edges = doc["n"], [tuple(e) for e in doc["edges"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed topology: {exc!r}") from None
        if any(type(v) is not int for v in (n, *itertools.chain(*edges))):
            raise ValueError("topology node ids must be integers")
        return cls(n, frozenset(edges))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}, indent=2
        )

    def nodes(self, *terminals: int) -> list[int]:
        """The nodes named by an edge, plus *terminals*, ascending: a graph
        over these costs what the file holds, not what its n says."""
        return sorted({*terminals, *itertools.chain(*self.edges)})

    def graph(self, *terminals: int) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes(*terminals))
        g.add_edges_from(sorted(self.edges))
        return g


@dataclass(frozen=True)
class PathSearchResult:
    feasible: bool
    paths: tuple[tuple[int, ...], ...]  # node sequences incl. endpoints
    max_count: int  # max node-disjoint paths found
    separator: tuple[int, ...]  # a Menger certificate when infeasible


def _split_digraph(topo: Topology, s: int, dst: int) -> nx.DiGraph:
    # Unit node capacities via node splitting; endpoints unbounded.
    import networkx as nx

    g = nx.DiGraph()
    big = topo.n + 1
    for v in topo.nodes(s, dst):
        g.add_edge(("in", v), ("out", v), capacity=big if v in (s, dst) else 1)
    for u, v in sorted(topo.edges):
        g.add_edge(("out", u), ("in", v), capacity=1)
        g.add_edge(("out", v), ("in", u), capacity=1)
    return g


def disjoint_paths(topo: Topology, s: int, dst: int, count: int) -> PathSearchResult:
    """Find *count* internally-node-disjoint s-dst paths by unit-capacity
    max-flow, or report the best achievable count with a separating node
    set as witness.  The returned path list is sorted, so the selection
    is deterministic for a fixed topology."""
    if s == dst:
        raise ValueError("source and destination must differ")
    for v in (s, dst):
        if not 1 <= v <= topo.n:
            raise ValueError(f"node {v} outside 1..{topo.n}")
    if count < 1:
        raise ValueError("need a positive path count")

    import networkx as nx

    g = _split_digraph(topo, s, dst)
    flow_value, flow = nx.maximum_flow(g, ("in", s), ("out", dst))

    paths = []
    # Walk flow units out of s; each saturated out-edge starts one path.
    # The max-flow may contain circulation cycles, so erase any loops the
    # walk picks up (the excised flow is cycle flow, not path flow).
    succ = {u: {v: f for v, f in d.items() if f > 0} for u, d in flow.items()}
    for _ in range(flow_value):
        path = [s]
        node = ("out", s)
        while node != ("out", dst):
            nxt = min(v for v, f in succ[node].items() if f > 0)
            succ[node][nxt] -= 1
            node = nxt
            if node[0] == "out":
                v = node[1]
                if v in path:
                    del path[path.index(v) + 1:]
                else:
                    path.append(v)
        paths.append(tuple(path))
    paths.sort()

    if flow_value >= count:
        return PathSearchResult(feasible=True, paths=tuple(paths[:count]),
                                max_count=flow_value, separator=())
    if (min(s, dst), max(s, dst)) in topo.edges:
        # Menger needs non-adjacent terminals; certify on the graph minus
        # the direct edge (which always carries one disjoint path).
        reduced = topo.graph(s, dst)
        reduced.remove_edge(s, dst)
        if nx.has_path(reduced, s, dst):
            cut = nx.minimum_node_cut(reduced, s, dst)
        else:
            cut = set()
        separator = tuple(sorted(cut))
    else:
        graph = topo.graph(s, dst)
        if nx.has_path(graph, s, dst):
            separator = tuple(sorted(nx.minimum_node_cut(graph, s, dst)))
        else:
            separator = ()
    return PathSearchResult(feasible=False, paths=tuple(paths),
                            max_count=flow_value, separator=separator)


@dataclass(frozen=True)
class ShareSet:
    packets: tuple[BitString, ...]  # t+1 packets, XOR reconstructs


def share(x: BitString, t: int, seed) -> ShareSet:
    """Encode x into t+1 packets; every proper subset is uniform noise."""
    if t < 0:
        raise ValueError("t must be non-negative")
    rng = np.random.default_rng(_seed_int(seed))
    packets = [BitString.random(len(x), rng) for _ in range(t)]
    last = x
    for p in packets:
        last = last ^ p
    packets.append(last)
    return ShareSet(packets=tuple(packets))


def reconstruct(packets) -> BitString:
    packets = list(packets)
    if not packets:
        raise ValueError("need at least one packet")
    if len({len(p) for p in packets}) != 1:
        raise ValueError("packets must share one length")
    out = packets[0]
    for p in packets[1:]:
        out = out ^ p
    return out


@dataclass(frozen=True)
class MultipathPlan:
    s: int
    dst: int
    t: int
    message_bits: int
    paths: tuple[tuple[int, ...], ...]
    hop_costs: dict[tuple[int, int], int]  # per-channel secret bits consumed
    total_cost: int

    def to_json(self) -> str:
        return json.dumps({
            "s": self.s, "dst": self.dst, "t": self.t,
            "message_bits": self.message_bits,
            "paths": [list(p) for p in self.paths],
            "hop_costs": [
                {"i": i, "j": j, "bits": c}
                for (i, j), c in sorted(self.hop_costs.items())
            ],
            "total_cost": self.total_cost,
        }, indent=2)


def plan(topo: Topology, s: int, dst: int, t: int, message_bits: int,
         blocked_channels=()) -> MultipathPlan:
    """Route a message of *message_bits* as t+1 shares over node-disjoint
    paths; every hop is itself a one-time-pad channel, so each hop costs
    the full share length.  Channels already at their rate limit can be
    excluded up front."""
    blocked = {tuple(sorted(c)) for c in blocked_channels}
    usable = Topology(topo.n, frozenset(e for e in topo.edges if e not in blocked))
    found = disjoint_paths(usable, s, dst, t + 1)
    if not found.feasible:
        raise ValueError(
            f"only {found.max_count} node-disjoint paths available "
            f"(need {t + 1}); separator {found.separator}"
        )
    hop_costs: dict[tuple[int, int], int] = {}
    for path in found.paths:
        for u, v in zip(path, path[1:]):
            hop = (min(u, v), max(u, v))
            hop_costs[hop] = hop_costs.get(hop, 0) + message_bits
    return MultipathPlan(s=s, dst=dst, t=t, message_bits=message_bits,
                         paths=found.paths, hop_costs=hop_costs,
                         total_cost=sum(hop_costs.values()))
