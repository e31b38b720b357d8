"""Binary keystore persistence.

Layout (little-endian), NPKS version 4:
  magic "NPKS", version u16, flags u8 (0 = full store, 1 = node view)
  [node id u32 when flags = 1]
  header: n u32, l u64, u u64, scheme canonical text (u16 len + utf8),
          seed u64 (0 in a node view), pool source u8 (0: the pool is
          drawn from the recorded seed), RNG algorithm id (u16 len + utf8)
  group table: count u32, then four tables in record order: each node
          set's length (u16), every set's node ids (u32, ascending within
          a set), each group's bit count (u64) and every group's pool
          indices (u32, ascending within a group)
  full store: pool bits packed little-endian within bytes
  node view: the storage slot (u32) of each held bit in ascending
          pool-index order, then the held bit values packed the same way
  seal: 32-byte sha256 digest of everything before it

Each table is bounds-checked against the bytes left, then read in place
with one ``np.frombuffer``, so no allocation is sized from a field
before the file is known to hold it.  Both store types keep their groups
as a GroupIndex, whose flat arrays are what the tables hold: the writers
read it and the loaders build it, so no ``groups`` dict is built unless
something reads it.  A view's held pool indices are its groups' sorted
union, and a full store's storage locations follow from the scheme's
parts (``KeyStore.locations``).  The writers refuse u > 2^32, n or
l >= 2^32, a view's node outside 1..n and node sets of more than 65535
nodes.

The loaders read the magic and version first, so that a file of another
version (1 had variable-length tables and no seal, 2 a blake2b seal and
one record per group, 3 Feistel slots and no pool source) is named as
such, then check the seal before any other field.  The digest detects
corruption and truncation; it is not a MAC, since anyone who can write
the file can re-seal it.  Then they raise ValueError (CLI exit 3) on a
pool source other than 0, group node ids not strictly ascending in
1..n, a repeated node set, a group with no pool index, a pool index
>= u, repeated in a group or in two groups, a view node outside 1..n or
missing from one of its groups, slots repeated or outside 1..l, a set
padding bit, and trailing bytes.  A full store's header must agree with
its file (u with the scheme's pool size, n with the nodes its groups
name) before the groups in each random part's pool range are checked
against its slot table, drawn again from the seed, by holdings: the
range's indices, their holder counts and all their holders, read from
the file's groups, must equal ``random_holdings``, the table's.  Since
no node set repeats and no index lies in two groups, equal holdings mean
equal groups.  The check costs O(n * l) time and memory.  A node view
stores seed 0: the pool is drawn from the seed, so a view that carried
it would give one hacked node every node's bits.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .gf2 import RNG_ALGORITHM, BitString
from .predistribution import (GroupIndex, KeyStore, SchemeSpec, check_widths, first_copies,
                              pool_index_array, pool_size, random_holdings)

MAGIC = b"NPKS"
VERSION = 4
SEAL_BYTES = 32

_struct = lru_cache(maxsize=64)(struct.Struct)


def _seal(data) -> bytes:
    return hashlib.sha256(data).digest()


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

    def table(self, dtype: str, count: int) -> np.ndarray:
        """The next count values of dtype, read in place."""
        width, remaining = np.dtype(dtype).itemsize, len(self.data) - self.pos
        if width * count > remaining:
            raise ValueError(f"table of {count} entries overruns the "
                             f"{remaining} bytes left in the keystore file")
        table = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += width * count
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


def _preamble(ks: KeyStore, node: int | None = None) -> bytearray:
    """The magic, version, flags and header of a full store, or of node's
    view (node id after the flags, seed 0), each field checked first."""
    check_widths(ks.n, ks.l, ks.u)
    if node is None:
        out = bytearray(MAGIC + struct.pack("<HB", VERSION, 0))
    else:
        ks._check_node(node)
        out = bytearray(MAGIC + struct.pack("<HBI", VERSION, 1, node))
    out += struct.pack("<IQQ", ks.n, ks.l, ks.u)
    _write_text(out, ks.scheme.canonical())
    out += struct.pack("<QB", ks.seed if node is None else 0, 0)  # pool source 0: the seed
    _write_text(out, RNG_ALGORITHM)
    return out


def _write_groups(out: bytearray, index: GroupIndex, kept: np.ndarray) -> None:
    """The groups that kept marks, in record order, as the four tables."""
    lens = index.set_sizes[kept]
    if lens.size and lens.max() > 0xFFFF:
        raise ValueError("NPKS node sets hold at most 65535 nodes")
    out += struct.pack("<I", lens.size) + lens.astype("<u2").tobytes()
    out += _u32(index.set_nodes[kept[index.set_of]])
    out += index.sizes[kept].astype("<u8").tobytes()
    out += _u32(index.table[np.repeat(kept, index.sizes)])


def _write_sealed(out: bytearray, path) -> None:
    out += _seal(out)
    Path(path).write_bytes(out)


def _check_sets(lens: np.ndarray, ids: np.ndarray, n: int) -> None:
    """ValueError naming the first node set that is empty or not strictly
    ascending in 1..n."""
    if lens.all():
        rises = ids[1:] > ids[:-1]
        rises[np.cumsum(lens)[:-1] - 1] = True  # each set starts afresh
        if rises.all() and ids.min(initial=1) >= 1 and ids.max(initial=1) <= n:
            return
    record = np.repeat(np.arange(lens.size), lens)
    bad_id = (ids < 1) | (ids > n)
    bad_id[1:] |= (ids[1:] <= ids[:-1]) & (record[1:] == record[:-1])
    k = int(((lens == 0) | (np.bincount(record[bad_id], minlength=lens.size) > 0)).argmax())
    start = int(lens[:k].sum())
    raise ValueError(f"group {tuple(ids[start:start + lens[k]].tolist())} is not an "
                     f"ascending set of nodes in 1..{n}")


def _read_groups(rd: _Reader, n: int, u: int, member: int | None = None) -> GroupIndex:
    """The group table as a GroupIndex: its pool-index table sorted, with
    each index's group id carried along by the same permutation.  A
    view's member must be in each group."""
    (count,) = rd.unpack("I")
    lens = rd.table("<u2", count).astype(np.int64)
    ids = rd.table("<u4", int(lens.sum())).astype(np.int64)
    sizes = rd.table("<u8", count)
    _check_sets(lens, ids, n)
    if np.any(first_copies(lens, ids) != np.arange(count)):
        raise ValueError("a node set appears twice in the group table")
    if not sizes.all():
        raise ValueError("a group holds no pool index")
    if member is not None and np.count_nonzero(ids == member) != count:
        raise ValueError(f"node view {member} lists a group it is not in")
    flat = rd.table("<u4", sum(sizes.tolist()))
    sizes = sizes.astype(np.int64)
    group_of = np.repeat(np.arange(count), sizes)
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
    return GroupIndex(lens, ids, ordered.astype(np.int64), group_of[order])


def save(ks: KeyStore, path) -> None:
    out = _preamble(ks)
    _write_groups(out, ks.index, np.ones(ks.index.count, dtype=bool))
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
        return self.index.holding(i, j)[self.index.group_ids]

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
    out = _preamble(ks, node)
    _write_groups(out, ks.index, ks.index.holding(node))
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
    seed, source = rd.unpack("QB")
    if source:
        raise ValueError(f"keystore pool source {source} is not 0 (drawn from the recorded seed)")
    rng_id = rd.text()
    if rng_id != RNG_ALGORITHM:
        raise ValueError(f"keystore was produced with RNG {rng_id!r}, "
                         f"this build uses {RNG_ALGORITHM!r}")
    return n, l, u, scheme, seed


def load(path) -> KeyStore:
    rd = _open(path, 0)
    n, l, u, scheme, seed = _read_header(rd)
    index = _read_groups(rd, n, u)
    # A random part's check draws and sorts n*l slots, so first check u
    # against the header and n against the nodes the file lists (every node
    # of a store with bits holds some): the cost is then bounded by the file.
    named = np.sort(index.set_nodes)
    if u and np.count_nonzero(named[1:] != named[:-1]) + (named.size > 0) != n:
        raise ValueError(f"keystore lists bits for fewer than its {n} nodes")
    if pool_size(scheme, n, l) != u:
        raise ValueError(f"keystore has u={u} pool bits, its header "
                         f"gives {pool_size(scheme, n, l)}")
    pool = BitString.from_bytes(rd.read(-(-u // 8)), u)
    rd.finish()
    ks = KeyStore(n=n, l=l, scheme=scheme, seed=seed, pool=pool, index=index)
    for _, _, _, start, part_u, perm in ks.parts:
        if perm is None:
            continue
        held, counts, holders = random_holdings(perm)
        ends = np.cumsum(index.set_sizes)  # each set's end in set_nodes
        lo, hi = np.searchsorted(index.indices, [start, start + part_u])
        sets = index.group_ids[lo:hi]  # the record of each of the range's bits
        # Only once the counts agree, gather the file's holders: n*l nodes.
        if not (np.array_equal(index.indices[lo:hi] - start, held)
                and np.array_equal(index.set_sizes[sets], counts)
                and np.array_equal(index.set_nodes[np.arange(holders.size) + np.repeat(
                    ends[sets] - np.cumsum(counts), counts)], holders)):
            raise ValueError("random keystore's groups do not follow its permutation, the "
                             "slot table drawn from its seed: the file may come from another "
                             "numpy release")
    return ks


def load_node_view(path) -> NodeView:
    rd = _open(path, 1)
    (node,) = rd.unpack("I")
    n, l, u, scheme, _ = _read_header(rd)
    if not 1 <= node <= n:
        raise ValueError(f"node view names node {node} outside 1..{n}")
    index = _read_groups(rd, n, u, member=node)
    held = index.indices
    slots = rd.table("<u4", held.size)
    # Sequential schemes write their slots ascending: no sort needed.
    ordered = slots if np.all(slots[1:] > slots[:-1]) else np.sort(slots)
    if slots.size and (ordered[0] < 1 or ordered[-1] > l or np.any(ordered[1:] == ordered[:-1])):
        raise ValueError(f"node view's storage locations are not distinct in 1..{l}")
    bits = BitString.from_bytes(rd.read(-(-held.size // 8)), held.size).bits
    rd.finish()
    return NodeView(node=node, n=n, l=l, scheme=scheme, u=u, index=index,
                    held_slots=slots, held_bits=bits)
