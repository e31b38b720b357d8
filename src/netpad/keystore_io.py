"""Binary keystore persistence.

Layout (little-endian), NPKS version 2:
  magic "NPKS", version u16, flags u8 (0 = full store, 1 = node view)
  [node id u32 when flags = 1]
  header: n u32, l u64, u u64, scheme canonical text (u16 len + utf8),
          seed u64 (0 in a node view), RNG algorithm id (u16 len + utf8)
  group table: count u32; per group: node-set length u16, node ids u32,
          bit count u64; then every group's pool indices (ascending within
          a group, groups in record order) as one u32 table
  full store: pool bits packed little-endian within bytes
  node view: the storage slot (u32) of each held bit in ascending
          pool-index order, then the held bit values packed the same way
  seal: 32-byte blake2b digest of everything before it

A view's held pool indices are not stored: they are the sorted union of
its groups.  Both store types keep their groups as a GroupIndex: the
writers read the u32 table from it and the loaders build it from that
table, so no ``groups`` dict is built unless something reads it.  A
full store records no storage locations: they follow from the scheme's
parts (``KeyStore.locations``).  The writers refuse u > 2^32 and l >= 2^32.

The loaders read the magic and version first, so that a file of another
version (1 had variable-length tables and no seal) is named as such,
then check the seal before any other field.  The digest detects
corruption and truncation; it is not a MAC, since anyone who can write
the file can re-seal it.  Then they raise ValueError (CLI exit 3) on
group node ids not strictly ascending in 1..n, a repeated node set, a
group with no pool index, a pool index >= u, repeated in a group or in
two groups, a view node outside 1..n or missing from one of its groups,
slots repeated or outside 1..l, and trailing bytes.  A full store's
header must agree with its file (u with the scheme's pool size, n with
the nodes its groups name) before the groups in each random part's pool
range are checked against its permutation.  A node view stores seed 0:
the pool is drawn from the seed, so a view that carried it would give
one hacked node every node's bits.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .gf2 import RNG_ALGORITHM, BitString
from .predistribution import (GroupIndex, KeyStore, SchemeSpec, pool_index_array, pool_size,
                              random_groups)

MAGIC = b"NPKS"
VERSION = 2
SEAL_BYTES = 32

_struct = lru_cache(maxsize=64)(struct.Struct)


def _seal(data) -> bytes:
    return hashlib.blake2b(data, digest_size=SEAL_BYTES).digest()


def _u32(values) -> bytes:
    """values (ints) as a little-endian u32 table."""
    table = np.asarray(values, dtype=np.int64)
    if table.size and (table.min() < 0 or table.max() >= 2**32):
        raise ValueError("NPKS tables hold values in 0..2^32-1")
    return table.astype("<u4").tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated keystore file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        """The next values, read in place with a compiled little-endian struct."""
        st = _struct("<" + fmt)
        if self.pos + st.size > len(self.data):
            raise ValueError("truncated keystore file")
        self.pos += st.size
        return st.unpack_from(self.data, self.pos - st.size)

    def u32(self, count: int) -> np.ndarray:
        """The next count u32 values, read in place."""
        remaining = len(self.data) - self.pos
        if 4 * count > remaining:
            raise ValueError(f"table of {count} entries overruns the "
                             f"{remaining} bytes left in the keystore file")
        table = np.frombuffer(self.data, dtype="<u4", count=count, offset=self.pos)
        self.pos += 4 * count
        return table

    def text(self) -> str:
        (length,) = self.unpack("H")
        return self.read(length).decode("utf-8")

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} bytes follow the end "
                             f"of the keystore")


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<H", len(raw))
    out += raw


def _write_header(out: bytearray, ks: KeyStore, seed: int) -> None:
    if ks.u > 2**32 or ks.l >= 2**32:
        raise ValueError(f"NPKS holds u <= 2^32 and l < 2^32, not u={ks.u}, l={ks.l}")
    out += struct.pack("<IQQ", ks.n, ks.l, ks.u)
    _write_text(out, ks.scheme.canonical())
    out += struct.pack("<Q", seed)
    _write_text(out, RNG_ALGORITHM)


def _write_groups(out: bytearray, index: GroupIndex, keep) -> None:
    """The groups whose node set passes keep, in record order."""
    kept = index.chosen(keep)
    out += struct.pack("<I", np.count_nonzero(kept))
    for nodes, size in zip(itertools.compress(index.node_sets, kept), index.sizes[kept].tolist()):
        out += struct.pack(f"<H{len(nodes)}IQ", len(nodes), *nodes, size)
    out += _u32(index.table[np.repeat(kept, index.sizes)])


def _write_sealed(out: bytearray, path) -> None:
    out += _seal(out)
    Path(path).write_bytes(out)


def _read_groups(rd: _Reader, n: int, u: int) -> GroupIndex:
    """The group table as a GroupIndex: its flat u32 table sorted, with
    each index's group id carried along by the same permutation."""
    (count,) = rd.unpack("I")
    node_sets, sizes = [], []
    for _ in range(count):
        (set_len,) = rd.unpack("H")
        nodes = rd.unpack(f"{set_len}I")
        if not nodes or nodes != tuple(sorted(set(nodes))) or nodes[0] < 1 or nodes[-1] > n:
            raise ValueError(f"group {nodes} is not an ascending set of nodes in 1..{n}")
        node_sets.append(nodes)
        sizes.append(rd.unpack("Q")[0])
    if len(set(node_sets)) != count:
        raise ValueError("a node set appears twice in the group table")
    if 0 in sizes:
        raise ValueError("a group holds no pool index")
    flat = rd.u32(sum(sizes))
    group_of = np.repeat(np.arange(count), sizes)
    if not np.all((flat[1:] > flat[:-1]) | (group_of[1:] != group_of[:-1])):
        raise ValueError("a group's pool indices are not strictly ascending")
    order = np.argsort(flat)
    ordered = flat[order]
    if ordered.size and ordered[-1] >= u:
        raise ValueError(f"pool index {int(ordered[-1])} outside 0..{u - 1}")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("a pool index lies in two groups")
    return GroupIndex(node_sets, ordered.astype(np.int64), group_of[order])


def save(ks: KeyStore, path) -> None:
    out = bytearray(MAGIC + struct.pack("<HB", VERSION, 0))
    _write_header(out, ks, ks.seed)
    _write_groups(out, ks.index, lambda nodes: True)
    out += ks.pool.to_bytes()
    _write_sealed(out, path)


@dataclass(eq=False)
class NodeView:
    """What a deployed node carries: its group memberships, as a GroupIndex
    over its ascending held pool indices, and each held index's storage
    location and bit value.  ``groups`` is derived from the index, as on
    a KeyStore, only when something reads it."""

    node: int
    n: int
    l: int
    scheme: SchemeSpec
    u: int
    index: GroupIndex
    held_slots: np.ndarray  # storage location of each held index
    held_bits: np.ndarray  # bit value of each held index
    held = property(lambda self: self.index.indices)  # held pool indices, ascending
    groups = cached_property(lambda self: self.index.groups())

    @cached_property
    def locations(self) -> dict[int, int]:
        """Pool index -> storage location."""
        return dict(zip(self.held.tolist(), self.held_slots.tolist()))

    @cached_property
    def values(self) -> dict[int, int]:
        """Pool index -> bit value."""
        return dict(zip(self.held.tolist(), self.held_bits.tolist()))

    def _common(self, i: int, j: int) -> np.ndarray:
        if self.node not in (i, j):
            raise ValueError(f"node view {self.node} is not an endpoint of ({i},{j})")
        return self.index.select(lambda nodes: i in nodes and j in nodes)

    def common_bits(self, i: int, j: int) -> list[int]:
        return self.held[self._common(i, j)].tolist()

    def common_values(self, i: int, j: int) -> np.ndarray:
        """The bit values of common_bits(i, j), read by one group mask."""
        return self.held_bits[self._common(i, j)]

    def bit_values(self, indices) -> BitString:
        idx = pool_index_array(indices, self.u)
        at = np.minimum(np.searchsorted(self.held, idx), self.held.size - 1)
        known = self.held[at] == idx if self.held.size else np.zeros(idx.shape, dtype=bool)
        if not known.all():
            raise ValueError(f"node {self.node} does not hold pool index "
                             f"{int(idx[~known][0])}")
        return BitString(self.held_bits[at])


def save_node_view(ks: KeyStore, node: int, path) -> None:
    out = bytearray(MAGIC + struct.pack("<HBI", VERSION, 1, node))
    _write_header(out, ks, 0)
    _write_groups(out, ks.index, lambda nodes: node in nodes)
    held, slots = ks.slots(node)
    out += _u32(slots)
    out += ks.pool[held].to_bytes()
    _write_sealed(out, path)


def _open(path, flags: int) -> _Reader:
    """A reader past the preamble of a sealed file of the given kind."""
    data = Path(path).read_bytes()
    rd = _Reader(data[:-SEAL_BYTES])
    if rd.read(4) != MAGIC:
        raise ValueError("not a keystore file (bad magic)")
    (version,) = rd.unpack("H")
    if version != VERSION:
        raise ValueError(f"unsupported keystore version {version}")
    if _seal(rd.data) != data[-SEAL_BYTES:]:
        raise ValueError("keystore checksum does not match: the file is corrupt or truncated")
    if rd.unpack("B")[0] != flags:
        raise ValueError("file is a full keystore, use load" if flags
                         else "file is a node view, use load_node_view")
    return rd


def _read_header(rd: _Reader):
    n, l, u = rd.unpack("IQQ")
    scheme = SchemeSpec.parse(rd.text())
    scheme.validate(n)
    (seed,) = rd.unpack("Q")
    rng_id = rd.text()
    if rng_id != RNG_ALGORITHM:
        raise ValueError(f"keystore was produced with RNG {rng_id!r}, "
                         f"this build uses {RNG_ALGORITHM!r}")
    return n, l, u, scheme, seed


def load(path) -> KeyStore:
    rd = _open(path, 0)
    n, l, u, scheme, seed = _read_header(rd)
    index = _read_groups(rd, n, u)
    # Checking a random part against its permutation costs O(u + n*l), so
    # first check u against the header and n against the nodes the file
    # lists (every node of a store with bits holds some): the cost is then
    # bounded by the file.
    if u and len(set().union(*index.node_sets)) != n:
        raise ValueError(f"keystore lists bits for fewer than its {n} nodes")
    if pool_size(scheme, n, l) != u:
        raise ValueError(f"keystore has u={u} pool bits, its header "
                         f"gives {pool_size(scheme, n, l)}")
    pool = BitString.from_bytes(rd.read(-(-u // 8)), u)
    rd.finish()
    ks = KeyStore(n=n, l=l, scheme=scheme, seed=seed, pool=pool, index=index)
    for _, part_l, _, start, part_u, perm in ks.parts:
        if perm and random_groups(perm, part_l) != index.within(start, start + part_u):
            raise ValueError("random keystore's groups do not follow its permutation")
    return ks


def load_node_view(path) -> NodeView:
    rd = _open(path, 1)
    (node,) = rd.unpack("I")
    n, l, u, scheme, _ = _read_header(rd)
    if not 1 <= node <= n:
        raise ValueError(f"node view names node {node} outside 1..{n}")
    index = _read_groups(rd, n, u)
    if any(node not in nodes for nodes in index.node_sets):
        raise ValueError(f"node view {node} lists a group it is not in")
    held = index.indices
    slots = rd.u32(held.size)
    ordered = np.sort(slots)
    if slots.size and (ordered[0] < 1 or ordered[-1] > l or np.any(ordered[1:] == ordered[:-1])):
        raise ValueError(f"node view's storage locations are not distinct in 1..{l}")
    bits = BitString.from_bytes(rd.read(-(-held.size // 8)), held.size).bits
    rd.finish()
    return NodeView(node=node, n=n, l=l, scheme=scheme, u=u, index=index,
                    held_slots=slots, held_bits=bits)
