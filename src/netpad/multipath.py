"""Fallback delivery over a restricted physical graph: t+1 node-disjoint
paths plus an additive (t+1)-packet secret-sharing code, for channels
whose end-to-end rates are at their limit.  The paths, or a Menger
separator when there are too few, come from one run of the package's
max-flow routine (`maxflow.FlowNetwork`) on a node-split graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .gf2 import BitString
from .maxflow import FlowNetwork
from .permutation import _seed_int


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
        if doc.keys() != {"n", "edges"}:
            raise ValueError(f"topology has unknown keys {sorted(doc.keys() - {'n', 'edges'})}")
        if any(type(v) is not int for v in (n, *itertools.chain(*edges))):
            raise ValueError("topology node ids must be integers")
        if len({frozenset(e) for e in edges}) != len(edges):
            raise ValueError("topology lists an edge twice")
        return cls(n, frozenset(edges))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}, indent=2
        )

    def nodes(self, *terminals: int) -> list[int]:
        """The nodes named by an edge, plus *terminals*, ascending: a graph
        over these costs what the file holds, not what its n says."""
        return sorted({*terminals, *itertools.chain(*self.edges)})


@dataclass(frozen=True)
class PathSearchResult:
    feasible: bool
    paths: tuple[tuple[int, ...], ...]  # node sequences incl. endpoints
    max_count: int  # max node-disjoint paths found
    separator: tuple[int, ...]  # a Menger certificate when infeasible


def disjoint_paths(topo: Topology, s: int, dst: int, count: int) -> PathSearchResult:
    """Find *count* internally-node-disjoint s-dst paths, or report the
    best achievable count with a minimum separating node set as witness.

    One `maxflow.FlowNetwork` runs on the named nodes, each but s and dst
    split into in_v -> out_v of capacity 1, with an arc out_u -> in_v per
    edge direction except the direct s-dst edge, a path of its own.  Edge
    arcs hold more than any node cut, so the nodes split by the minimum
    cut closest to s are a minimum separator (Menger).  The paths are
    sorted, so the selection is deterministic for a fixed topology."""
    if s == dst:
        raise ValueError("source and destination must differ")
    for v in (s, dst):
        if not 1 <= v <= topo.n:
            raise ValueError(f"node {v} outside 1..{topo.n}")
    if count < 1:
        raise ValueError("need a positive path count")

    nodes = topo.nodes(s, dst)
    index = {v: k for k, v in enumerate(nodes)}  # in_v = 2k, out_v = 2k + 1
    direct = (min(s, dst), max(s, dst))
    hops = [(u, v) for e in sorted(topo.edges - {direct}) for u, v in (e, e[::-1])]
    arcs = [(2 * index[u] + 1, 2 * index[v]) for u, v in hops]
    arcs += [(2 * k, 2 * k + 1) for k, v in enumerate(nodes) if v not in (s, dst)]
    value, flow, reached = FlowNetwork(2 * len(nodes), arcs).max_flow(
        [len(nodes)] * len(hops) + [1] * (len(arcs) - len(hops)),
        2 * index[s] + 1, 2 * index[dst])

    # Walk flow units out of s, to the smallest next node first.  The flow
    # may contain circulation cycles, so erase any loops the walk picks up
    # (the excised flow is cycle flow, not path flow).
    succ = {v: {} for v in nodes}
    for (u, v), f in zip(hops, flow):
        if f:
            succ[u][v] = f
    paths = [(s, dst)] if direct in topo.edges else []
    for _ in range(value):
        path, u = [s], s
        while u != dst:
            v = min(w for w, f in succ[u].items() if f > 0)
            succ[u][v] -= 1
            u = v
            if u in path:
                del path[path.index(u) + 1:]
            else:
                path.append(u)
        paths.append(tuple(path))
    paths.sort()

    if len(paths) >= count:
        return PathSearchResult(feasible=True, paths=tuple(paths[:count]),
                                max_count=len(paths), separator=())
    separator = tuple(v for k, v in enumerate(nodes)
                      if reached[2 * k] and not reached[2 * k + 1])
    return PathSearchResult(feasible=False, paths=tuple(paths),
                            max_count=len(paths), separator=separator)


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
    if message_bits < 1:
        raise ValueError(f"message_bits={message_bits} must be positive")
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
