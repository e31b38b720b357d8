"""Key pre-distribution: global secret pool generation, per-node
assignment under each scheme, and common-bit / group queries.

Node ids are 1-based; pool-bit indices are 0-based; storage slots are
1..l.  A random part gives each node a uniform ordered l-subset of its
pool range, one numpy ``choice`` per node (``PermutationFamily.table``),
so its keygen and load cost O(n*l) time and 8*n*l bytes.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .gf2 import BitString
from .permutation import PermutationFamily, _seed_int

MAX_RETRIES = 5000  # stub shuffles random_regular_groups tries
KINDS = ("pairwise", "same", "combinational", "sampled_combinational", "random", "hybrid")


@dataclass(frozen=True)
class SchemeSpec:
    """Declarative description of a pre-distribution scheme."""

    kind: str
    a: int | None = None
    m: int | None = None
    p: Fraction | None = None
    lam: Fraction | None = None
    parts: tuple["SchemeSpec", "SchemeSpec"] | None = None

    def validate(self, n: int) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind in ("combinational", "sampled_combinational"):
            if self.a is None or not 2 <= self.a <= n:
                raise ValueError(f"group size a={self.a} must satisfy 2 <= a <= n={n}")
        if self.kind == "sampled_combinational":
            if self.m is None or self.m < 1:
                raise ValueError("sampled scheme needs a group count m >= 1")
            if (self.a * self.m) % n != 0:
                raise ValueError(f"a*m = {self.a * self.m} must be divisible by n = {n}")
            if self.m > comb(n, self.a):
                raise ValueError(f"m = {self.m} exceeds C({n},{self.a}) distinct groups")
        if self.kind == "random":
            if self.p is None or not 0 < self.p <= 1:
                raise ValueError(f"distribution probability p={self.p} must be in (0, 1]")
        if self.kind == "hybrid":
            if self.lam is None or not 0 <= self.lam <= 1:
                raise ValueError(f"hybrid fraction lambda={self.lam} must be in [0, 1]")
            if self.parts is None or len(self.parts) != 2:
                raise ValueError("hybrid scheme needs exactly two child schemes")
            for part in self.parts:
                if part.kind == "hybrid":
                    raise ValueError("hybrid children must be non-hybrid")
                part.validate(n)

    @property
    def effective_a(self) -> int:
        """Group size for the combinational family (pairwise = 2)."""
        if self.kind == "pairwise":
            return 2
        if self.kind in ("combinational", "sampled_combinational"):
            return self.a
        raise ValueError(f"scheme {self.kind!r} has no group-size parameter")

    def is_symmetric(self) -> bool:
        if self.kind == "sampled_combinational":
            return False
        if self.kind == "hybrid":
            return all(part.is_symmetric() for part in self.parts)
        return True

    def canonical(self) -> str:
        if self.kind == "pairwise":
            return "pairwise"
        if self.kind == "same":
            return "same"
        if self.kind == "combinational":
            return f"comb:a={self.a}"
        if self.kind == "sampled_combinational":
            return f"sampled:a={self.a},m={self.m}"
        if self.kind == "random":
            return f"random:p={self.p}"
        return (
            f"hybrid:lambda={self.lam},"
            f"({self.parts[0].canonical()}),({self.parts[1].canonical()})"
        )

    @classmethod
    def parse(cls, text: str) -> "SchemeSpec":
        text = text.strip()
        if text == "pairwise":
            return cls("pairwise")
        if text == "same":
            return cls("same")
        if text.startswith("comb:"):
            return cls("combinational", a=int(_param(text[5:], "a")))
        if text.startswith("sampled:"):
            a, _, m = text[8:].partition(",")
            return cls("sampled_combinational", a=int(_param(a, "a")), m=int(_param(m, "m")))
        if text.startswith("random:"):
            return cls("random", p=parse_fraction(_param(text[7:], "p")))
        if text.startswith("hybrid:"):
            match = re.fullmatch(r"lambda=([^,]+),\((.*)\),\((.*)\)", text[7:])
            if not match:
                raise ValueError(f"malformed hybrid scheme {text!r}")
            return cls(
                "hybrid",
                lam=parse_fraction(match.group(1)),
                parts=(cls.parse(match.group(2)), cls.parse(match.group(3))),
            )
        raise ValueError(f"unrecognized scheme {text!r}")


def _param(text: str, name: str) -> str:
    key, _, value = text.partition("=")
    if key != name or not value:
        raise ValueError(f"expected {name}=<value>, got {text!r}")
    return value


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator a ValueError like any bad literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def pool_index_array(indices, u: int) -> np.ndarray:
    """indices as an int64 array; ValueError unless each is an integer in 0..u-1."""
    idx = np.asarray(indices)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= u):
        raise ValueError(f"pool indices must be integers in 0..{u - 1}")
    return idx.astype(np.int64, copy=False)


def _mixed(ids: np.ndarray) -> np.ndarray:
    """Each id times an odd 64-bit constant, folded by one xorshift, as
    uint64 lanes that wrap."""
    x = ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return x ^ (x >> 29)


def first_copies(set_sizes: np.ndarray, set_nodes: np.ndarray) -> np.ndarray:
    """For each node set (set_sizes[k] ids of set_nodes, in record order),
    the first record that lists the same ids.  Sets are matched by the
    wrapping sum of their mixed ids plus their length, and each set is
    then compared id by id with its match; only if two different sets
    collide are the sets compared as tuples.  Work and memory are bounded
    by the number of ids, not by the largest node id."""
    ends = np.cumsum(set_sizes)
    starts = ends - set_sizes
    sums = np.concatenate([np.zeros(1, np.uint64), np.cumsum(_mixed(set_nodes))])
    keys = sums[ends] - sums[starts] + set_sizes.astype(np.uint64)
    order = np.argsort(keys, kind="stable")  # each run of equal keys starts at its first record
    new = np.ones(order.size, dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    if new.all():  # no two sets match
        return np.arange(order.size)
    first = np.empty(order.size, dtype=np.int64)
    first[order] = order[new][np.cumsum(new) - 1]
    if np.array_equal(set_sizes[first], set_sizes):
        mate = np.arange(set_nodes.size) + np.repeat(starts[first] - starts, set_sizes)
        if np.array_equal(set_nodes[mate], set_nodes):
            return first
    listed, seen = set_nodes.tolist(), {}
    return np.array([seen.setdefault(tuple(listed[a:b]), k) for k, (a, b)
                     in enumerate(zip(starts.tolist(), ends.tolist()))], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """The groups as flat arrays.  Record k's node set is the set_sizes[k]
    ids of set_nodes that set_of maps to k, ascending; indices lists the
    pool indices the groups cover in ascending order and group_ids,
    aligned with it, each one's record.  holding and touching answer
    membership with one bincount over set_of, as a boolean mask over the
    records, and mask[group_ids] selects their bits.  groups() is the one
    tuple view of the arrays, built on each call.  Equal indexes give the
    same node sets the same indices, in any record order."""

    set_sizes: np.ndarray  # int64: the node count of each set, in record order
    set_nodes: np.ndarray  # int64: every set's node ids, ascending within a set
    indices: np.ndarray  # int64, ascending
    group_ids: np.ndarray

    @classmethod
    def of(cls, node_sets, indices, group_ids) -> "GroupIndex":
        """The index of node_sets, a sequence of ascending node tuples."""
        sizes = np.fromiter(map(len, node_sets), np.int64, len(node_sets))
        nodes = np.fromiter(itertools.chain.from_iterable(node_sets), np.int64, int(sizes.sum()))
        return cls(sizes, nodes, np.asarray(indices, np.int64), np.asarray(group_ids, np.int64))

    count = property(lambda self: self.set_sizes.size)
    set_of = cached_property(lambda self: np.repeat(np.arange(self.count), self.set_sizes))
    sizes = cached_property(lambda self: np.bincount(self.group_ids, minlength=self.count))

    def __eq__(self, other) -> bool:
        return self.groups() == other.groups()

    def _found(self, nodes) -> tuple[np.ndarray, int]:
        """How many of the distinct nodes each set holds, and their number."""
        nodes = set(nodes)
        hit = np.zeros(self.set_nodes.size, dtype=bool)
        for node in nodes:
            hit |= self.set_nodes == node
        return np.bincount(self.set_of[hit], minlength=self.count), len(nodes)

    def holding(self, *nodes) -> np.ndarray:
        """Which groups contain every one of nodes."""
        found, wanted = self._found(nodes)
        return found == wanted

    def touching(self, nodes) -> np.ndarray:
        """Which groups contain any of nodes."""
        return self._found(nodes)[0] > 0

    def indices_of(self, chosen: np.ndarray) -> np.ndarray:
        """The pool indices of the groups chosen (a mask over the records), ascending."""
        return self.indices[chosen[self.group_ids]]

    # The indices group by group in record order, ascending in each.
    table = cached_property(lambda self: self.indices[np.argsort(self.group_ids, kind="stable")])

    def groups(self) -> dict[tuple[int, ...], list[int]]:
        """Node set -> its pool indices, ascending, in record order."""
        nodes, set_ends = self.set_nodes.tolist(), np.cumsum(self.set_sizes).tolist()
        listed, ends = self.table.tolist(), np.cumsum(self.sizes).tolist()
        return {tuple(nodes[a:b]): listed[c:d] for a, b, c, d
                in zip([0] + set_ends, set_ends, [0] + ends, ends)}


@dataclass
class KeyStore:
    """Global pool of secret bits plus per-node assignments and groups.

    index records the groups: each holds the pool bits given to exactly
    the nodes of its sorted node tuple, and they partition the assigned
    bits.  ``groups`` (node tuple -> indices) is derived from the index
    when first read; writing to it does not change the store, and index
    must not be replaced after that (build a new store instead).
    ``parts`` is derived from scheme, n, l and seed when first read.
    """

    n: int
    l: int
    scheme: SchemeSpec
    seed: int
    pool: BitString
    index: GroupIndex

    @property
    def u(self) -> int:
        return len(self.pool)

    groups = cached_property(lambda self: self.index.groups())
    parts = cached_property(lambda self: parts(self.scheme, self.n, self.l, self.seed))

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} outside 1..{self.n}")

    def node_bits(self, i: int) -> list[int]:
        """Pool indices held by node i, ascending."""
        self._check_node(i)
        return self.index.indices_of(self.index.holding(i)).tolist()

    def common_indices(self, i: int, j: int) -> np.ndarray:
        """Pool indices held by both i and j, ascending, read by one group mask."""
        self._check_node(i)
        self._check_node(j)
        if i == j:
            raise ValueError("common_bits needs two distinct nodes")
        return self.index.indices_of(self.index.holding(i, j))

    def common_bits(self, i: int, j: int) -> list[int]:
        """Pool indices held by both i and j, ascending."""
        return self.common_indices(i, j).tolist()

    def common_values(self, i: int, j: int) -> np.ndarray:
        """The bit values of common_bits(i, j)."""
        return self.pool.bits[self.common_indices(i, j)]

    def hacked_mask(self, hacked) -> np.ndarray:
        """Which pool bits the eavesdropper knows, as a bool over 0..u-1."""
        hacked = set(hacked)
        for h in hacked:
            self._check_node(h)
        mask = np.zeros(self.u, dtype=bool)
        mask[self.index.indices_of(self.index.touching(hacked))] = True
        return mask

    def hacked_bits(self, hacked) -> list[int]:
        """Pool indices known to the eavesdropper, ascending."""
        return np.flatnonzero(self.hacked_mask(hacked)).tolist()

    def unhacked_common_indices(self, channels, hacked) -> list[int]:
        """Pool indices in the union of u_ij over channels, minus u_h."""
        hacked = set(hacked)
        channels = [tuple(sorted(c)) for c in channels]
        for i, j in channels:
            self._check_node(i)
            self._check_node(j)
            if i in hacked or j in hacked:
                raise ValueError(f"channel ({i},{j}) touches a hacked node")
        chosen = np.zeros(self.index.count, dtype=bool)
        for i, j in channels:
            chosen |= self.index.holding(i, j)
        return self.index.indices_of(chosen & ~self.index.touching(hacked)).tolist()

    def unhacked_union_size(self, channels, hacked) -> int:
        """|union of u_ij over channels, minus u_h| from group metadata."""
        return len(self.unhacked_common_indices(channels, hacked))

    def bit_values(self, indices) -> BitString:
        return BitString(self.pool.bits[pool_index_array(indices, self.u)])

    def slots(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """The pool indices node holds, ascending, and the storage slot
        (1..l) of each, as int64 arrays.  Each part's slots follow the
        earlier parts' l: a random part's slot table row, 1, 2, ... in
        index order in any other."""
        held, slots, offset = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], 0
        self._check_node(node)
        for part in self.parts:
            if part.perm is None:
                mine = self.index.indices_of(self.index.holding(node))
                lo, hi = np.searchsorted(mine, [part.start, part.start + part.u])
                part_held, order = mine[lo:hi], np.arange(hi - lo)
            else:
                part_held = part.perm.table[node - 1] + part.start
                order = np.argsort(part_held)
            held.append(part_held[order])
            slots.append(order + 1 + offset)
            offset += part.l
        return np.concatenate(held), np.concatenate(slots)

    def locations(self, node: int) -> dict[int, int]:
        """Pool index -> storage slot of each bit node holds (see slots)."""
        held, slots = self.slots(node)
        return dict(zip(held.tolist(), slots.tolist()))


def generate(spec: SchemeSpec, n: int, l: int, seed, strict: bool = False) -> KeyStore:
    """Run the key pre-distribution phase: draw each part's groups and pool bits, and join them."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if l < 1:
        raise ValueError("per-node budget must be at least one bit")
    spec.validate(n)
    seed = _seed_int(seed)
    layout = parts(spec, n, l, seed)
    check_widths(n, l, sum(part.u for part in layout))  # before any allocation
    tables, pools, records = [], [], 0
    for part in layout:
        index = (random_groups(part.perm) if part.perm
                 else _sequential_groups(part.scheme, n, part.l, part.seed, strict))
        tables.append((index.set_sizes, index.set_nodes, index.indices + part.start,
                       index.group_ids + records))
        records += index.count
        pools.append(BitString.random(part.u, np.random.default_rng([part.seed, 1])).bits)
    if len(tables) > 1:  # a node set that two parts use is one group
        index = _merged(*map(np.concatenate, zip(*tables)))
    ks = KeyStore(n, l, spec, seed, BitString(np.concatenate(pools)), index)
    ks.parts = layout  # keeps each random part's slot table
    return ks


def check_widths(n: int, l: int, u: int) -> None:
    """Refuse a store that NPKS cannot hold."""
    if n >= 2**32 or u > 2**32 or l >= 2**32:
        raise ValueError(f"NPKS holds n, l < 2^32 and u <= 2^32, not n={n}, l={l}, u={u}")


def _merged(set_sizes, set_nodes, indices, group_ids) -> GroupIndex:
    """The index of these records, where a record that repeats an earlier
    record's node set joins its group."""
    first = first_copies(set_sizes, set_nodes)
    kept = first == np.arange(first.size)
    return GroupIndex(set_sizes[kept], set_nodes[np.repeat(kept, set_sizes)], indices,
                      (np.cumsum(kept) - 1)[first][group_ids])


def _sequential_groups(spec: SchemeSpec, n: int, l: int, seed: int, strict: bool) -> GroupIndex:
    """A sequential scheme's groups over its pool indices 0..u-1."""
    _, quota = _layout(spec, n)
    group_size, remainder = divmod(l, quota)
    if strict and remainder:
        raise ValueError(
            f"strict mode: per-node quota {quota} does not divide budget l={l}"
        )
    if not group_size:
        node_sets = []
    elif spec.kind == "same":
        node_sets = [tuple(range(1, n + 1))]
    elif spec.kind == "sampled_combinational":
        node_sets = random_regular_groups(n, spec.a, spec.m, [seed, 0])
    else:
        node_sets = list(itertools.combinations(range(1, n + 1), spec.effective_a))
    group_ids = np.repeat(np.arange(len(node_sets)), group_size)
    return GroupIndex.of(node_sets, np.arange(group_ids.size), group_ids)


Part = namedtuple("Part", "scheme l seed start u perm")


def parts(spec: SchemeSpec, n: int, l: int, seed) -> list[Part]:
    """A store's non-hybrid parts in pool order: budget l, seed, first pool
    index, pool size u and, for a random part with u >= 1, its slot table.
    A hybrid's are its children with l >= 1, the k-th seeded [seed, 2 + k]."""
    if spec.kind == "random":
        u = round(Fraction(l) / spec.p)
        return [Part(spec, l, seed, 0, u, PermutationFamily(u, n, l, [seed, 0]) if u else None)]
    if spec.kind != "hybrid":
        count, quota = _layout(spec, n)
        return [Part(spec, l, seed, 0, l // quota * count, None)]
    l1, found = int(spec.lam * l), []
    for k, (child, budget) in enumerate(zip(spec.parts, (l1, l - l1))):
        if budget >= 1:
            (part,) = parts(child, n, budget, _seed_int([seed, 2 + k]))
            found.append(part._replace(start=sum(p.u for p in found)))
    return found


def _layout(spec: SchemeSpec, n: int) -> tuple[int, int]:
    """(node sets, node sets per node) of a sequential scheme."""
    if spec.kind == "same":
        return 1, 1
    if spec.kind == "sampled_combinational":
        return spec.m, spec.a * spec.m // n
    a = spec.effective_a
    return comb(n, a), comb(n - 1, a - 1)


def pool_size(spec: SchemeSpec, n: int, l: int) -> int:
    """The pool size u that generate(spec, n, l, seed) draws, for any seed."""
    return sum(part.u for part in parts(spec, n, l, 0))


def random_holdings(perm: PermutationFamily) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each held bit of the random scheme (ascending), its holder count and
    every held bit's holders (1-based, ascending within a bit), flat: one sort of
    the n*l keys bit*n + node - 1, which fit 64 bits as u <= 2^32, n < 2^32."""
    keys = perm.table.astype(np.uint64) * perm.n + np.arange(perm.n, dtype=np.uint64)[:, None]
    bits, nodes = np.divmod(np.sort(keys.ravel()), perm.n)
    starts = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))  # each held bit's first key
    return (bits[starts].astype(np.int64), np.diff(np.append(starts, bits.size)),
            nodes.astype(np.int64) + 1)


def random_groups(perm: PermutationFamily) -> GroupIndex:
    """The random scheme's groups: each bit's nonempty holder set, in order of first index."""
    held, counts, holders = random_holdings(perm)
    return _merged(counts, holders, held, np.arange(held.size))


def random_regular_groups(n: int, a: int, m: int, seed):
    """m distinct node-sets of size a with every node in exactly a*m/n sets.

    Regular bipartite design built by stub shuffling, the construction
    used for regular LDPC parity-check matrices; retries until the random
    partition has no repeated node inside a group and no repeated group.
    """
    SchemeSpec("sampled_combinational", a=a, m=m).validate(n)
    degree = a * m // n
    stubs = np.repeat(np.arange(1, n + 1), degree)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        shuffled = rng.permutation(stubs).tolist()
        chunks = [tuple(sorted(shuffled[i * a:(i + 1) * a])) for i in range(m)]
        if any(len(set(c)) != a for c in chunks):
            continue
        if len(set(chunks)) != m:
            continue
        return sorted(chunks)
    raise ValueError(
        f"no regular group design found for n={n}, a={a}, m={m} "
        f"after {MAX_RETRIES} retries"
    )
