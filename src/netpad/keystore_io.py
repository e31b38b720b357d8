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

The group records are encoded and decoded as arrays of u16 words; only
finding each record from its length is a loop.  Both store types keep
their groups as a GroupIndex, which the writers read and the loaders
build, so no ``groups`` dict is built unless something reads it.  A
view's held pool indices are its groups' sorted union, and a full
store's storage locations follow from the scheme's parts
(``KeyStore.locations``).  The writers refuse u > 2^32 and l >= 2^32.

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
    out += struct.pack("<H", len(raw)) + raw


def _write_header(out: bytearray, ks: KeyStore, seed: int) -> None:
    if ks.u > 2**32 or ks.l >= 2**32:
        raise ValueError(f"NPKS holds u <= 2^32 and l < 2^32, not u={ks.u}, l={ks.l}")
    out += struct.pack("<IQQ", ks.n, ks.l, ks.u)
    _write_text(out, ks.scheme.canonical())
    out += struct.pack("<Q", seed)
    _write_text(out, RNG_ALGORITHM)


def _id_words(lens: np.ndarray) -> np.ndarray:
    """Which u16 words of a group table hold node ids: a record of k ids is
    its length (1 word), the ids (2k words) and its bit count (4 words)."""
    runs = np.full((lens.size, 3), 4)
    runs[:, 0], runs[:, 1] = 1, 2 * lens
    return np.repeat(np.arange(runs.size) % 3 == 1, runs.ravel())


def _write_groups(out: bytearray, index: GroupIndex, keep) -> None:
    """The groups whose node set passes keep, in record order, laid out
    as one array of u16 words."""
    kept = index.chosen(keep)
    node_sets = list(itertools.compress(index.node_sets, kept))
    lens = np.fromiter(map(len, node_sets), np.int64, len(node_sets))
    if lens.size and lens.max() > 0xFFFF:
        raise ValueError("NPKS node sets hold at most 65535 nodes")
    is_id = _id_words(lens)
    words = np.empty(is_id.size, dtype="<u2")
    words[is_id] = np.fromiter(itertools.chain.from_iterable(node_sets), "<u4").view("<u2")
    sizes = index.sizes[kept].astype("<u8").view("<u2").reshape(-1, 4)
    words[~is_id] = np.column_stack([lens, sizes]).ravel()
    out += struct.pack("<I", lens.size) + words.tobytes()
    out += _u32(index.table[np.repeat(kept, index.sizes)])


def _write_sealed(out: bytearray, path) -> None:
    out += _seal(out)
    Path(path).write_bytes(out)


def _read_groups(rd: _Reader, n: int, u: int, member: int | None = None) -> GroupIndex:
    """The group table as a GroupIndex: its flat u32 table sorted, with
    each index's group id carried along by the same permutation.  Only
    finding the records is a loop; a view's member must be in each."""
    (count,) = rd.unpack("I")
    data, start, end = rd.data, rd.pos, len(rd.data)
    lens, at = [], start
    for _ in range(count):  # a record takes at least 10 bytes: the file bounds the loop
        if at + 10 > end:
            raise ValueError("truncated keystore file")
        lens.append(data[at] | data[at + 1] << 8)
        at += 10 + 4 * lens[-1]
    words = np.frombuffer(rd.read(at - start), dtype="<u2")
    lens = np.array(lens, dtype=np.int64)
    is_id = _id_words(lens)
    ids = words[is_id].view("<u4").astype(np.int64)
    sizes = np.ascontiguousarray(words[~is_id].reshape(-1, 5)[:, 1:]).view("<u8").ravel()
    record = np.repeat(np.arange(count), lens)
    bad_id = (ids < 1) | (ids > n)
    bad_id[1:] |= (ids[1:] <= ids[:-1]) & (record[1:] == record[:-1])
    listed, ends = ids.tolist(), np.cumsum(lens).tolist()
    node_sets = [tuple(listed[a:b]) for a, b in zip([0] + ends, ends)]
    bad = (lens == 0) | (np.bincount(record[bad_id], minlength=count) > 0)
    if bad.any():
        raise ValueError(f"group {node_sets[bad.argmax()]} is not an ascending set "
                         f"of nodes in 1..{n}")
    if len(set(node_sets)) != count:
        raise ValueError("a node set appears twice in the group table")
    if not sizes.all():
        raise ValueError("a group holds no pool index")
    if member is not None and np.count_nonzero(ids == member) != count:
        raise ValueError(f"node view {member} lists a group it is not in")
    flat = rd.u32(sum(sizes.tolist()))
    group_of = np.repeat(np.arange(count), sizes.astype(np.int64))
    rises = flat[1:] > flat[:-1]
    # Sequential schemes write their groups in pool order: no sort needed.
    order = slice(None) if rises.all() else np.argsort(flat)
    rises[np.cumsum(sizes)[:-1] - 1] = True  # each group starts afresh
    if not rises.all():
        raise ValueError("a group's pool indices are not strictly ascending")
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
    index = _read_groups(rd, n, u, member=node)
    held = index.indices
    slots = rd.u32(held.size)
    ordered = np.sort(slots)
    if slots.size and (ordered[0] < 1 or ordered[-1] > l or np.any(ordered[1:] == ordered[:-1])):
        raise ValueError(f"node view's storage locations are not distinct in 1..{l}")
    bits = BitString.from_bytes(rd.read(-(-held.size // 8)), held.size).bits
    rd.finish()
    return NodeView(node=node, n=n, l=l, scheme=scheme, u=u, index=index,
                    held_slots=slots, held_bits=bits)
