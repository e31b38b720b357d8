"""Independent oracles used across the test suite.

Everything here is deliberately naive and shares no code with the
library: pure-Python elimination, a per-index slot map, the random
scheme's dense u x n holdings table, the NPKS seal, tuple predicates for
group membership, pool scans over per-node storage locations,
brute-force graph/subset enumeration, the key sampler's earlier int64
loop and the group-flow checker's earlier Fraction arithmetic.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np


def py_rank(dense) -> int:
    """GF(2) row rank by textbook elimination over Python ints."""
    rows = [sum(int(bit) << pos for pos, bit in enumerate(row)) for row in dense]
    rank = 0
    for col in range(max((len(row) for row in dense), default=0)):
        mask = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def reference_sample_indices(n_rows: int, n_cols: int, d: int, seed,
                             rounds: list | None = None) -> np.ndarray:
    """The key sampler as first written: int64 draws, and every round
    re-gathers its rows and marks repeats in a fresh array.  The library's
    gf2.sample_indices must return exactly these rows for every input.
    Each round's redraw count is appended to *rounds*, if given."""
    rng = np.random.default_rng(seed)
    if d == 0 or n_rows == 0:
        return np.zeros((n_rows, d), dtype=np.int64)
    if 2 * d >= n_cols:
        keys = rng.random((n_rows, n_cols))
        idx = np.argpartition(keys, d - 1, axis=1)[:, :d].astype(np.int64)
        idx.sort(axis=1)
        return idx
    idx = rng.integers(0, n_cols, size=(n_rows, d), dtype=np.int64)
    idx.sort(axis=1)
    rows = np.arange(n_rows)
    while True:
        sub = idx[rows]
        repeat = np.zeros(sub.shape, dtype=bool)
        repeat[:, 1:] = sub[:, 1:] == sub[:, :-1]
        hit = repeat.any(axis=1)
        if not hit.any():
            return idx
        rows, sub, repeat = rows[hit], sub[hit], repeat[hit]
        if rounds is not None:
            rounds.append(int(repeat.sum()))
        sub[repeat] = rng.integers(0, n_cols, size=int(repeat.sum()), dtype=np.int64)
        sub.sort(axis=1)
        idx[rows] = sub


def slot_map(row: list[int], u: int) -> list[int]:
    """[F(1, node), ..., F(u, node)] for a node whose slots 1..l hold the
    0-based pool indices in row, built by listing: each held index gets its
    slot, and the others, in ascending order, get l + 1, l + 2, ..., u."""
    image = [0] * u
    for slot, k in enumerate(row, start=1):
        image[k] = slot
    rest = iter(range(len(row) + 1, u + 1))
    return [slot or next(rest) for slot in image]


def reseal(raw: bytes) -> bytes:
    """An NPKS file's bytes with its trailing 32-byte sha256 seal
    recomputed, so that an edited field reaches the loader's own check."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


def dense_random_holdings(table: np.ndarray, u: int):
    """The random scheme's holdings as first built, from a u x n boolean
    table whose row k marks the nodes whose slot-table rows hold pool
    index k: each held index (ascending), its holder count and every held
    index's holders (1-based, ascending within an index), flat."""
    n = table.shape[0]
    holds = np.zeros((u, n), dtype=bool)
    holds[table, np.arange(n)[:, None]] = True
    bits, nodes = np.nonzero(holds)
    counts = np.bincount(bits, minlength=u)
    held = np.flatnonzero(counts)
    return held, counts[held], nodes + 1


def holding_oracle(node_sets, nodes) -> list[bool]:
    """Which node-set tuples contain every one of nodes."""
    return [all(node in nodes_of for node in nodes) for nodes_of in node_sets]


def touching_oracle(node_sets, nodes) -> list[bool]:
    """Which node-set tuples contain any of nodes."""
    return [any(node in nodes_of for node in nodes) for nodes_of in node_sets]


def holders_by_index(ks) -> dict[int, set[int]]:
    """Pool index -> set of holder nodes, scanned from each node's storage
    locations.  Those follow from the groups, so the random scheme's
    membership rule is checked on its own by a full-pool permutation scan
    in test_predistribution."""
    holders: dict[int, set[int]] = {k: set() for k in range(ks.u)}
    for node in range(1, ks.n + 1):
        for k in ks.locations(node):
            holders[k].add(node)
    return holders


def pair_index_sets(ks) -> dict[tuple[int, int], frozenset[int]]:
    """Channel -> pool indices held by both endpoints, via pool scan."""
    holders = holders_by_index(ks)
    sets: dict[tuple[int, int], set[int]] = {
        pair: set() for pair in itertools.combinations(range(1, ks.n + 1), 2)
    }
    for k, nodes in holders.items():
        for pair in itertools.combinations(sorted(nodes), 2):
            sets[pair].add(k)
    return {pair: frozenset(idx) for pair, idx in sets.items()}


def hacked_index_set(ks, hacked) -> frozenset[int]:
    holders = holders_by_index(ks)
    hset = set(hacked)
    return frozenset(k for k, nodes in holders.items() if nodes & hset)


def union_size_oracle(ks, channels, hacked) -> int:
    """|union of u_ij over channels, minus hacked bits| by pool scan."""
    pair_sets = pair_index_sets(ks)
    bad = hacked_index_set(ks, hacked)
    union: set[int] = set()
    for i, j in channels:
        union |= pair_sets[(min(i, j), max(i, j))]
    return len(union - bad)


def achievable_oracle(ks, profile, t) -> tuple[bool, list]:
    """Brute-force double enumeration of the strict-inequality criterion.

    Returns (achievable, violations) where each violation is
    (hacked, channels, rate_sum, bound) with exact Fractions.
    """
    pair_sets = pair_index_sets(ks)
    positive = sorted((p, r) for p, r in profile.rates.items() if r > 0)
    violations = []
    for size in range(t + 1):
        for hacked in itertools.combinations(range(1, ks.n + 1), size):
            bad = hacked_index_set(ks, hacked)
            pairs = [(p, r) for p, r in positive
                     if p[0] not in hacked and p[1] not in hacked]
            for k in range(1, len(pairs) + 1):
                for chosen in itertools.combinations(pairs, k):
                    rate_sum = sum((r for _, r in chosen), Fraction(0))
                    union: set[int] = set()
                    for p, _ in chosen:
                        union |= pair_sets[p]
                    bound = Fraction(len(union - bad), ks.l)
                    if rate_sum >= bound:
                        violations.append(
                            (hacked, tuple(p for p, _ in chosen), rate_sum, bound)
                        )
    return (not violations, violations)


def feasibility_oracle(ks, profile, t):
    """The group-flow checker as first written, in Fractions throughout.

    For every hacked set (by size, then in lexicographic order), each
    positive unhacked rate is split over the unhacked groups holding both
    its endpoints in proportion to |G| / |nodes of G|, inflated by
    1 + 2^-20, and each group's total is checked against |G| / l.
    Returns (status, witness, assignments): status "achievable" or
    "undecided", witness (hacked, channels, rate_sum, bound) or None, and
    one (hacked, {(group, channel): x}) per hacked set when achievable.
    """
    groups = ks.groups  # node set -> its pool indices, in record order
    sizes = {g: len(idx) for g, idx in groups.items()}
    den = math.lcm(*map(len, sizes))
    scaled = {g: size * (den // len(g)) for g, size in sizes.items()}
    share = {g: Fraction(s, den) for g, s in scaled.items()}
    boost = (1 + Fraction(1, 2**20)) * den
    positive = [(p, r) for p, r in profile.rates.items() if r > 0]
    assignments = []
    for size in range(t + 1):
        for hacked in itertools.combinations(range(1, ks.n + 1), size):
            hset = set(hacked)
            values, per_group_q = {}, {}
            for (i, j), r in positive:
                if i in hset or j in hset:
                    continue
                covering = [g for g in groups if i in g and j in g and hset.isdisjoint(g)]
                if not covering:
                    return "undecided", (hacked, ((i, j),), r, Fraction(0)), []
                q = boost * r / sum(scaled[g] for g in covering)
                for g in covering:
                    values[(g, (i, j))] = share[g] * q
                    per_group_q[g] = per_group_q.get(g, 0) + q
            for g, q_sum in per_group_q.items():
                if q_sum > Fraction(len(g), ks.l):
                    channels = tuple(sorted(p for h, p in values if h == g))
                    return ("undecided",
                            (hacked, channels, share[g] * q_sum, Fraction(sizes[g], ks.l)), [])
            assignments.append((hacked, values))
    return "achievable", None, assignments


def menger_max_paths(topo, s, dst) -> int:
    """Max internally-node-disjoint s-dst paths by Menger's theorem:
    count the direct edge separately, then find the minimum vertex cut
    of the remaining graph by subset enumeration."""
    edges = set(topo.edges)
    direct = (min(s, dst), max(s, dst)) in edges
    if direct:
        edges.discard((min(s, dst), max(s, dst)))
    adj: dict[int, set[int]] = {v: set() for v in range(1, topo.n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected(removed: set[int]) -> bool:
        if s in removed or dst in removed:
            return False
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in adj[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    if not connected(set()):
        return int(direct)
    internal = [v for v in range(1, topo.n + 1) if v not in (s, dst)]
    for cut_size in range(len(internal) + 1):
        for cut in itertools.combinations(internal, cut_size):
            if not connected(set(cut)):
                return int(direct) + cut_size
    return int(direct) + len(internal)


def paths_are_disjoint(paths, s, dst) -> bool:
    """Every path runs s..dst and no internal node repeats across paths."""
    seen: set[int] = set()
    for path in paths:
        if path[0] != s or path[-1] != dst:
            return False
        internal = set(path[1:-1])
        if len(internal) != len(path) - 2 or internal & seen:
            return False
        seen |= internal
    return True
