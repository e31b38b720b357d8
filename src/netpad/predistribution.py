"""Key pre-distribution: global secret pool generation, per-node
assignment under each scheme, and common-bit / group queries.

Node ids are 1-based; pool-bit indices are 0-based.  Storage locations
within a node's l slots are 1-based to match the permutation domain.
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


@dataclass(frozen=True, eq=False)
class GroupIndex:
    """The groups as arrays: the node sets in record order, the pool
    indices they cover in ascending order and, aligned with those, each
    one's record number.  A selection of groups is a boolean mask over
    node_sets, and mask[group_ids] selects their bits.  Equal indexes
    give the same node sets the same indices, in any record order."""

    node_sets: list[tuple[int, ...]]
    indices: np.ndarray  # int64, ascending
    group_ids: np.ndarray

    def __eq__(self, other) -> bool:
        position = {nodes: k for k, nodes in enumerate(self.node_sets)}
        remap = np.array([position.get(nodes, -1) for nodes in other.node_sets], dtype=np.int64)
        return (position.keys() == set(other.node_sets)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.group_ids, remap[other.group_ids]))

    sizes = cached_property(lambda self: np.bincount(self.group_ids, minlength=len(self.node_sets)))
    size_of = cached_property(lambda self: dict(zip(self.node_sets, self.sizes.tolist())))

    def chosen(self, keep) -> np.ndarray:
        """Which groups have a node set that passes keep."""
        return np.fromiter(map(keep, self.node_sets), bool, len(self.node_sets))

    def select(self, keep) -> np.ndarray:
        """Which indices lie in a group whose node set passes keep."""
        return self.chosen(keep)[self.group_ids]

    def within(self, start: int, stop: int) -> "GroupIndex":
        """The groups cut to pool indices start..stop-1 and shifted down by
        start, in record order, without the groups left empty."""
        lo, hi = np.searchsorted(self.indices, [start, stop])
        kept = np.bincount(self.group_ids[lo:hi], minlength=len(self.node_sets)) > 0
        return GroupIndex(list(itertools.compress(self.node_sets, kept)),
                          self.indices[lo:hi] - start, (np.cumsum(kept) - 1)[self.group_ids[lo:hi]])

    def pick(self, keep) -> list[int]:
        return self.indices[self.select(keep)].tolist()

    # The indices group by group in record order, ascending in each.
    table = cached_property(lambda self: self.indices[np.argsort(self.group_ids, kind="stable")])

    def groups(self) -> dict[tuple[int, ...], list[int]]:
        """Node set -> its pool indices, ascending, in record order."""
        listed = self.table.tolist()
        ends = np.cumsum(self.sizes).tolist()
        return {nodes: listed[a:b] for nodes, a, b in zip(self.node_sets, [0] + ends, ends)}


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
        return self.index.pick(lambda nodes: i in nodes)

    def _common(self, i: int, j: int) -> np.ndarray:
        self._check_node(i)
        self._check_node(j)
        if i == j:
            raise ValueError("common_bits needs two distinct nodes")
        return self.index.select(lambda nodes: i in nodes and j in nodes)

    def common_bits(self, i: int, j: int) -> list[int]:
        """Pool indices held by both i and j, ascending."""
        return self.index.indices[self._common(i, j)].tolist()

    def common_values(self, i: int, j: int) -> np.ndarray:
        """The bit values of common_bits(i, j), read by one group mask."""
        return self.pool.bits[self.index.indices[self._common(i, j)]]

    def hacked_bits(self, hacked) -> list[int]:
        """Pool indices known to the eavesdropper, ascending."""
        hacked = set(hacked)
        for h in hacked:
            self._check_node(h)
        return self.index.pick(lambda nodes: not hacked.isdisjoint(nodes))

    def unhacked_common_indices(self, channels, hacked) -> list[int]:
        """Pool indices in the union of u_ij over channels, minus u_h."""
        hacked = set(hacked)
        channels = [tuple(sorted(c)) for c in channels]
        for i, j in channels:
            self._check_node(i)
            self._check_node(j)
            if i in hacked or j in hacked:
                raise ValueError(f"channel ({i},{j}) touches a hacked node")
        return self.index.pick(lambda nodes: hacked.isdisjoint(nodes) and any(
            i in nodes and j in nodes for i, j in channels))

    def unhacked_union_size(self, channels, hacked) -> int:
        """|union of u_ij over channels, minus u_h| from group metadata."""
        return len(self.unhacked_common_indices(channels, hacked))

    def bit_values(self, indices) -> BitString:
        return BitString(self.pool.bits[pool_index_array(indices, self.u)])

    def slots(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """The pool indices node holds, ascending, and the storage slot
        (1..l) of each, as int64 arrays.  Each part's slots follow the
        earlier parts' l: F(k+1, node) in a random part (found by
        inverting its l slots), 1, 2, ... in index order in any other."""
        held, slots, offset = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], 0
        self._check_node(node)
        for part in self.parts:
            if part.perm is None:
                mine = self.index.indices[self.index.select(lambda nodes: node in nodes)]
                lo, hi = np.searchsorted(mine, [part.start, part.start + part.u])
                part_held, order = mine[lo:hi], np.arange(hi - lo)
            else:
                part_held = part.perm.invert_all(node, part.l) - 1 + part.start
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
    # Node sets in order of first appearance; indices past earlier parts' pools.
    position, indices, group_ids, pools = {}, [], [], []
    for part in (layout := parts(spec, n, l, seed)):
        index = (random_groups(part.perm, part.l) if part.perm
                 else _sequential_groups(part.scheme, n, part.l, part.seed, strict))
        remap = [position.setdefault(nodes, len(position)) for nodes in index.node_sets]
        indices.append(index.indices + part.start)
        group_ids.append(np.array(remap, dtype=np.int64)[index.group_ids])
        pools.append(BitString.random(part.u, np.random.default_rng([part.seed, 1])).bits)
    ks = KeyStore(n, l, spec, seed, BitString(np.concatenate(pools)),
                  GroupIndex(list(position), np.concatenate(indices), np.concatenate(group_ids)))
    ks.parts = layout  # keeps each random part's family and its round keys
    return ks


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
    return GroupIndex(node_sets, np.arange(group_ids.size), group_ids)


Part = namedtuple("Part", "scheme l seed start u perm")


def parts(spec: SchemeSpec, n: int, l: int, seed) -> list[Part]:
    """A store's non-hybrid parts in pool order: budget l, seed, first pool
    index, pool size u and, for a random part with u >= 1, its permutation.
    A hybrid's are its children with l >= 1, the k-th seeded [seed, 2 + k]."""
    if spec.kind == "random":
        u = round(Fraction(l) / spec.p)
        return [Part(spec, l, seed, 0, u, PermutationFamily(u, n, [seed, 0]) if u else None)]
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


def random_groups(perm: PermutationFamily, l: int) -> GroupIndex:
    """The random scheme's groups: bit k is held by node i iff
    F(k+1, i) <= l, so node i holds exactly the l bits F^-1(s, i) - 1 for
    s = 1..l.  Each nonempty holder set is a group, in order of first
    index."""
    holds = np.zeros((perm.u, perm.n), dtype=bool)
    holds[perm.invert_all(np.arange(1, perm.n + 1), l) - 1, np.arange(perm.n)[:, None]] = True
    held = np.flatnonzero(holds.any(axis=1))  # a bit no node holds is in no group
    keys = np.packbits(holds[held], axis=1, bitorder="little")  # one bytes value per holder set
    _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rows, nodes = np.nonzero(holds[held[first[order]]])
    listed, ends = (nodes + 1).tolist(), np.cumsum(np.bincount(rows, minlength=order.size)).tolist()
    node_sets = [tuple(listed[a:b]) for a, b in zip([0] + ends, ends)]
    return GroupIndex(node_sets, held, np.argsort(order)[inverse])


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
