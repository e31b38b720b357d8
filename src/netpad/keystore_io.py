"""Binary keystore persistence.

Layout (little-endian):
  magic "NPKS", version u16, flags u8 (0 = full store, 1 = node view)
  [node id u32 when flags = 1]
  header: n u32, l u64, u u64, scheme canonical text (u16 len + utf8),
          seed u64 (0 in a node view), RNG algorithm id (u16 len + utf8)
  group table: count u32; per group: node-set length u16, node ids u32,
          bit count u64, pool-index list as delta-encoded varints
  full store: pool bits packed little-endian within bytes
  node view: held-bit table (count u64; per bit in ascending pool-index
          order: pool index varint, storage location varint), then the
          held bit values packed little-endian in the same order

A full store records no storage locations: they follow from the scheme
(``KeyStore.locations``).  The loaders raise ValueError (CLI exit 3) on
group node ids not strictly ascending in 1..n, a repeated node set, a
pool index >= u or in two groups, a view node outside 1..n or missing
from one of its groups, a held table other than the union of the view's
groups, locations repeated or outside 1..l, and trailing bytes.  A full
store's header must agree with its file (u with the scheme's pool size, n
with the nodes its groups name) before a random store's groups are
checked against its permutation or a hybrid store is rebuilt and
compared.  A node view stores seed 0: the pool is drawn from the seed, so
a view that carried it would give one hacked node every node's bits.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .gf2 import RNG_ALGORITHM, BitString
from .predistribution import (KeyStore, SchemeSpec, generate, pool_size, random_groups,
                              select_bits)

MAGIC = b"NPKS"
_ENDING_BYTES = bytes(range(0x80))  # a byte with its high bit clear ends a varint
VERSION = 1


def _leb128(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The unsigned LEB128 encodings of values (non-negative int64),
    concatenated in one vectorized pass, and the end offset of each."""
    if np.any(values < 0):
        raise ValueError("varints are unsigned")
    rest = values.astype(np.uint64)
    sizes = np.ones(rest.size, dtype=np.int64)
    high = rest >> np.uint64(7)
    while high.any():
        sizes += high != 0
        high >>= np.uint64(7)
    ends, total = np.cumsum(sizes), int(sizes.sum())
    # Byte j of every value at once; a value with fewer bytes writes its
    # byte j to a spare slot past the end.
    out = np.empty(total + 1, dtype=np.uint8)
    at = ends - sizes
    for j in range(int(sizes.max(initial=1))):
        byte = (rest & np.uint64(0x7F)).astype(np.uint8)
        byte[sizes > j + 1] |= 0x80
        out[np.where(sizes > j, at, total)] = byte
        at += 1
        rest >>= np.uint64(7)
    return out[:total].tobytes(), ends


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        # Offsets of the bytes that can end a varint (high bit clear),
        # found once per file, and a cursor: (offset, ends before it).
        self._ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) < 0x80)
        self._cursor = (0, 0)

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated keystore file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.read(struct.calcsize("<" + fmt)))

    def varint_span(self, count: int) -> tuple[int, int]:
        """Move past *count* LEB128 varints and return the byte span they
        fill, at most 9*count bytes (a varint holds at most 63 bits).  The
        cursor moves over the bytes since the last span (a group header)
        and then count varint ends."""
        remaining = len(self.data) - self.pos
        if count > remaining:
            raise ValueError(f"table of {count} varints overruns the "
                             f"{remaining} bytes left in the keystore file")
        start = self.pos
        if count:
            offset, before = self._cursor
            gap = self.data[offset:start]
            last = before + len(gap) - len(gap.translate(None, _ENDING_BYTES)) + count - 1
            if last >= self._ends.size or self._ends[last] - start >= 9 * count:
                raise ValueError("truncated keystore file or a varint longer than 9 bytes")
            self.pos = int(self._ends[last]) + 1
            self._cursor = (self.pos, last + 1)
        return start, self.pos

    def varints(self, spans) -> np.ndarray:
        """Decode the varints that fill the given byte spans, all in one
        vectorized pass."""
        raw = np.frombuffer(self.data, dtype=np.uint8)
        stream = np.concatenate([raw[a:b] for a, b in spans] or [raw[:0]])
        ends = np.flatnonzero(stream < 0x80)
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        if np.any(ends - starts >= 9):
            raise ValueError("keystore varint longer than 9 bytes")
        if not ends.size:
            return np.zeros(0, dtype=np.uint64)
        shifts = 7 * (np.arange(stream.size) - np.repeat(starts, ends - starts + 1))
        payload = (stream & 0x7F).astype(np.uint64) << shifts.astype(np.uint64)
        return np.bitwise_or.reduceat(payload, starts)

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
    out += struct.pack("<IQQ", ks.n, ks.l, ks.u)
    _write_text(out, ks.scheme.canonical())
    out += struct.pack("<Q", seed)
    _write_text(out, RNG_ALGORITHM)


def _write_groups(out: bytearray, groups) -> None:
    """The group table, with every group's delta varints encoded in one pass."""
    sizes = [len(indices) for indices in groups.values()]
    bounds = np.cumsum([0] + sizes)
    flat = np.fromiter(itertools.chain.from_iterable(groups.values()), dtype=np.int64,
                       count=bounds[-1])
    # Each group's deltas restart from 0.
    firsts = bounds[:-1][np.array(sizes, dtype=bool)]
    deltas = np.diff(flat, prepend=0)
    deltas[firsts] = flat[firsts]
    encoded, ends = _leb128(deltas)
    cuts = np.concatenate(([0], ends))[bounds].tolist()
    out += struct.pack("<I", len(groups))
    for g, (nodes, size) in enumerate(zip(groups, sizes)):
        out += struct.pack(f"<H{len(nodes)}IQ", len(nodes), *nodes, size)
        out += encoded[cuts[g]:cuts[g + 1]]


def _read_groups(rd: _Reader, n: int, u: int):
    """The group table as a dict, and all its pool indices in ascending order."""
    (count,) = rd.unpack("I")
    node_sets, spans, sizes = [], [], []
    for _ in range(count):
        (set_len,) = rd.unpack("H")
        nodes = rd.unpack(f"{set_len}I")
        if not nodes or nodes != tuple(sorted(set(nodes))) or nodes[0] < 1 or nodes[-1] > n:
            raise ValueError(f"group {nodes} is not an ascending set of nodes in 1..{n}")
        node_sets.append(nodes)
        (bit_count,) = rd.unpack("Q")
        spans.append(rd.varint_span(bit_count))
        sizes.append(bit_count)
    if len(set(node_sets)) != count:
        raise ValueError("a node set appears twice in the group table")
    # Each group's deltas restart from 0: a running sum over the whole
    # table, less its value before the group, gives the group's indices.
    sums = np.concatenate((np.zeros(1, dtype=np.uint64),
                           np.cumsum(rd.varints(spans), dtype=np.uint64)))
    bounds = np.cumsum([0] + sizes)
    flat = sums[1:] - np.repeat(sums[bounds[:-1]], sizes)
    # Within a group the indices rise strictly; a delta that wraps past
    # 2^64 shows up as a fall.
    group_of = np.repeat(np.arange(count), sizes)
    if not np.all((flat[1:] > flat[:-1]) | (group_of[1:] != group_of[:-1])):
        raise ValueError("a group's pool indices are not strictly ascending")
    ordered = np.sort(flat)
    if ordered.size and ordered[-1] >= u:
        raise ValueError(f"pool index {int(ordered[-1])} outside 0..{u - 1}")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("a pool index lies in two groups")
    listed = flat.tolist()
    groups = {nodes: listed[a:b] for nodes, a, b in zip(node_sets, bounds[:-1], bounds[1:])}
    return groups, ordered


def save(ks: KeyStore, path) -> None:
    out = bytearray(MAGIC + struct.pack("<HB", VERSION, 0))
    _write_header(out, ks, ks.seed)
    _write_groups(out, ks.groups)
    out += ks.pool.to_bytes()
    Path(path).write_bytes(bytes(out))


@dataclass(eq=False)
class NodeView:
    """What a deployed node carries: its group memberships and, for each
    held pool index, its storage location and bit value."""

    node: int
    n: int
    l: int
    scheme: SchemeSpec
    u: int
    groups: dict[tuple[int, ...], list[int]]
    held: np.ndarray  # held pool indices, ascending
    held_slots: np.ndarray  # storage location of each held index
    held_bits: np.ndarray  # bit value of each held index

    @cached_property
    def locations(self) -> dict[int, int]:
        """Pool index -> storage location."""
        return dict(zip(self.held.tolist(), self.held_slots.tolist()))

    @cached_property
    def values(self) -> dict[int, int]:
        """Pool index -> bit value."""
        return dict(zip(self.held.tolist(), self.held_bits.tolist()))

    def common_bits(self, i: int, j: int) -> list[int]:
        if self.node not in (i, j):
            raise ValueError(f"node view {self.node} is not an endpoint of ({i},{j})")
        return select_bits(self.groups, lambda nodes: i in nodes and j in nodes)

    def bit_values(self, indices) -> BitString:
        idx = np.asarray(indices, dtype=np.int64)
        known = np.isin(idx, self.held)
        if not known.all():
            raise ValueError(f"node {self.node} does not hold pool index "
                             f"{int(idx[~known][0])}")
        return BitString(self.held_bits[np.searchsorted(self.held, idx)])


def save_node_view(ks: KeyStore, node: int, path) -> None:
    out = bytearray(MAGIC + struct.pack("<HBI", VERSION, 1, node))
    _write_header(out, ks, 0)
    _write_groups(out, {nodes: idx for nodes, idx in ks.groups.items() if node in nodes})
    held, slots = ks.slots(node)
    table = np.empty(2 * held.size, dtype=np.int64)  # pool index, location, ...
    table[0::2], table[1::2] = held, slots
    out += struct.pack("<Q", held.size)
    out += _leb128(table)[0]
    out += ks.pool[held].to_bytes()
    Path(path).write_bytes(bytes(out))


def _read_preamble(rd: _Reader, flags: int) -> None:
    if rd.read(4) != MAGIC:
        raise ValueError("not a keystore file (bad magic)")
    version, got = rd.unpack("HB")
    if version != VERSION:
        raise ValueError(f"unsupported keystore version {version}")
    if got != flags:
        raise ValueError("file is a full keystore, use load" if flags
                         else "file is a node view, use load_node_view")


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
    rd = _Reader(Path(path).read_bytes())
    _read_preamble(rd, 0)
    n, l, u, scheme, seed = _read_header(rd)
    groups, _ = _read_groups(rd, n, u)
    # Checking a random store, or rebuilding a hybrid one, from its header
    # costs O(u + n*l), so first check u against the header and n against
    # the nodes the file lists (every node of a store with bits holds
    # some): the cost is then bounded by the file.
    if u and len(set().union(*groups)) != n:
        raise ValueError(f"keystore lists bits for fewer than its {n} nodes")
    if pool_size(scheme, n, l) != u:
        raise ValueError(f"keystore has u={u} pool bits, its header "
                         f"gives {pool_size(scheme, n, l)}")
    pool = BitString.from_bytes(rd.read(-(-u // 8)), u)
    rd.finish()
    if scheme.kind == "hybrid":
        # A hybrid's storage locations depend on its parts; rebuild the
        # store deterministically from the header and check it matches.
        rebuilt = generate(scheme, n, l, seed)
        if rebuilt.groups != groups or rebuilt.pool != pool:
            raise ValueError("hybrid keystore content does not match its header")
        return rebuilt
    ks = KeyStore(n=n, l=l, scheme=scheme, seed=seed, pool=pool, groups=groups)
    if scheme.kind == "random" and random_groups(ks.perm, l) != groups:
        raise ValueError("random keystore's groups do not follow its permutation")
    return ks


def load_node_view(path) -> NodeView:
    rd = _Reader(Path(path).read_bytes())
    _read_preamble(rd, 1)
    (node,) = rd.unpack("I")
    n, l, u, scheme, _ = _read_header(rd)
    if not 1 <= node <= n:
        raise ValueError(f"node view names node {node} outside 1..{n}")
    groups, indices = _read_groups(rd, n, u)
    if any(node not in nodes for nodes in groups):
        raise ValueError(f"node view {node} lists a group it is not in")
    (count,) = rd.unpack("Q")
    table = rd.varints([rd.varint_span(2 * count)])  # pool index, location, ...
    held, slots = table[0::2], table[1::2]
    if not np.array_equal(held, indices):
        raise ValueError("node view's held table is not the union of its groups")
    ordered = np.sort(slots)
    if slots.size and (ordered[0] < 1 or ordered[-1] > l or np.any(ordered[1:] == ordered[:-1])):
        raise ValueError(f"node view's storage locations are not distinct in 1..{l}")
    bits = BitString.from_bytes(rd.read(-(-count // 8)), count).bits
    rd.finish()
    return NodeView(node=node, n=n, l=l, scheme=scheme, u=u, groups=groups,
                    held=held.astype(np.int64), held_slots=slots, held_bits=bits)
