"""Binary keystore persistence.

Layout (little-endian):
  magic "NPKS", version u16, flags u8 (0 = full store, 1 = node view)
  [node id u32 when flags = 1]
  header: n u32, l u64, u u64, scheme canonical text (u16 len + utf8),
          seed u64, RNG algorithm id (u16 len + utf8)
  group table: count u32; per group: node-set length u16, node ids u32,
          bit count u64, pool-index list as delta-encoded varints
  full store: pool bits packed little-endian within bytes
  node view: held-bit table (count u64; per bit: pool index varint,
          storage location varint), then the held bit values packed
          little-endian in ascending pool-index order
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gf2 import RNG_ALGORITHM, BitString
from .permutation import PermutationFamily
from .predistribution import KeyStore, SchemeSpec, _sequential_locations, generate

MAGIC = b"NPKS"
VERSION = 1


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


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
        return struct.unpack("<" + fmt, self.read(struct.calcsize("<" + fmt)))

    def varint_span(self, count: int) -> tuple[int, int]:
        """Move past *count* LEB128 varints and return the byte span they
        fill, scanning at most 9*count bytes (a varint holds at most 63
        bits)."""
        remaining = len(self.data) - self.pos
        if count > remaining:
            raise ValueError(f"table of {count} varints overruns the "
                             f"{remaining} bytes left in the keystore file")
        start = self.pos
        if count:
            window = np.frombuffer(self.data, dtype=np.uint8,
                                   count=min(9 * count, remaining), offset=start)
            last_bytes = np.flatnonzero(window < 0x80)
            if last_bytes.size < count:
                raise ValueError("truncated keystore file or a varint longer than 9 bytes")
            self.pos = start + int(last_bytes[count - 1]) + 1
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


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += struct.pack("<H", len(raw))
    out += raw


def _write_header(out: bytearray, ks: KeyStore) -> None:
    out += struct.pack("<IQQ", ks.n, ks.l, ks.u)
    _write_text(out, ks.scheme.canonical())
    out += struct.pack("<Q", ks.seed)
    _write_text(out, RNG_ALGORITHM)


def _write_groups(out: bytearray, groups) -> None:
    out += struct.pack("<I", len(groups))
    for nodes, indices in groups.items():
        out += struct.pack("<H", len(nodes))
        out += struct.pack(f"<{len(nodes)}I", *nodes)
        out += struct.pack("<Q", len(indices))
        prev = 0
        for first, idx in zip([True] + [False] * len(indices), indices):
            _write_varint(out, idx if first else idx - prev)
            prev = idx
    return


def _read_groups(rd: _Reader) -> dict[tuple[int, ...], list[int]]:
    (count,) = rd.unpack("I")
    node_sets, spans, sizes = [], [], []
    for _ in range(count):
        (set_len,) = rd.unpack("H")
        node_sets.append(tuple(rd.unpack(f"{set_len}I")))
        (bit_count,) = rd.unpack("Q")
        spans.append(rd.varint_span(bit_count))
        sizes.append(bit_count)
    # Each group's deltas restart from 0: a running sum over the whole
    # table, less its value before the group, gives the group's indices.
    sums = np.concatenate((np.zeros(1, dtype=np.uint64),
                           np.cumsum(rd.varints(spans), dtype=np.uint64)))
    bounds = np.cumsum([0] + sizes)
    flat = (sums[1:] - np.repeat(sums[bounds[:-1]], sizes)).tolist()
    return {nodes: flat[a:b] for nodes, a, b in zip(node_sets, bounds[:-1], bounds[1:])}


def _pack_pool(bits: np.ndarray) -> bytes:
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_pool(raw: bytes, n_bits: int) -> BitString:
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little",
                        count=n_bits)
    return BitString(arr)


def save(ks: KeyStore, path) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HB", VERSION, 0)
    _write_header(out, ks)
    _write_groups(out, ks.groups)
    out += _pack_pool(ks.pool.bits)
    Path(path).write_bytes(bytes(out))


@dataclass
class NodeView:
    """What a deployed node carries: its bits and group memberships."""

    node: int
    n: int
    l: int
    scheme: SchemeSpec
    seed: int
    u: int
    groups: dict[tuple[int, ...], list[int]]
    locations: dict[int, int]  # pool index -> storage location
    values: dict[int, int]  # pool index -> bit value

    def common_bits(self, i: int, j: int) -> list[int]:
        if self.node not in (i, j):
            raise ValueError(f"node view {self.node} is not an endpoint of ({i},{j})")
        out: list[int] = []
        for nodes, idx in self.groups.items():
            if i in nodes and j in nodes:
                out.extend(idx)
        return sorted(out)

    def bit_values(self, indices) -> BitString:
        return BitString(np.array([self.values[k] for k in indices], dtype=np.uint8))


def save_node_view(ks: KeyStore, node: int, path) -> None:
    ks._check_node(node)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HB", VERSION, 1)
    out += struct.pack("<I", node)
    _write_header(out, ks)
    own_groups = {nodes: idx for nodes, idx in ks.groups.items() if node in nodes}
    _write_groups(out, own_groups)
    held = sorted(ks.locations[node])
    out += struct.pack("<Q", len(held))
    for k in held:
        _write_varint(out, k)
        _write_varint(out, ks.locations[node][k])
    values = ks.pool.bits[np.asarray(held, dtype=np.int64)] if held else np.zeros(0, np.uint8)
    out += _pack_pool(values)
    Path(path).write_bytes(bytes(out))


def _read_preamble(rd: _Reader):
    if rd.read(4) != MAGIC:
        raise ValueError("not a keystore file (bad magic)")
    version, flags = rd.unpack("HB")
    if version != VERSION:
        raise ValueError(f"unsupported keystore version {version}")
    return flags


def _read_header(rd: _Reader):
    n, l, u = rd.unpack("IQQ")
    scheme = SchemeSpec.parse(rd.text())
    (seed,) = rd.unpack("Q")
    rng_id = rd.text()
    if rng_id != RNG_ALGORITHM:
        raise ValueError(f"keystore was produced with RNG {rng_id!r}, "
                         f"this build uses {RNG_ALGORITHM!r}")
    return n, l, u, scheme, seed


def load(path) -> KeyStore:
    rd = _Reader(Path(path).read_bytes())
    flags = _read_preamble(rd)
    if flags != 0:
        raise ValueError("file is a node view, use load_node_view")
    n, l, u, scheme, seed = _read_header(rd)
    groups = _read_groups(rd)
    pool = _unpack_pool(rd.read(-(-u // 8)), u)
    perm = None
    if scheme.kind == "random":
        perm = PermutationFamily(u, n, [seed, 0])
        locations = {i: {} for i in range(1, n + 1)}
        for nodes, idx in groups.items():
            for i in nodes:
                for k in idx:
                    locations[i][k] = perm.permute(k + 1, i)
    elif scheme.kind == "hybrid":
        # Hybrid locations depend on the part boundary; rebuild the store
        # deterministically from the header and check it matches the file.
        rebuilt = generate(scheme, n, l, seed)
        if rebuilt.groups != groups or rebuilt.pool != pool:
            raise ValueError("hybrid keystore content does not match its header")
        return rebuilt
    else:
        locations = _sequential_locations(n, groups)
    return KeyStore(n=n, l=l, scheme=scheme, seed=seed, pool=pool,
                    groups=groups, locations=locations, perm=perm)


def load_node_view(path) -> NodeView:
    rd = _Reader(Path(path).read_bytes())
    flags = _read_preamble(rd)
    if flags != 1:
        raise ValueError("file is a full keystore, use load")
    (node,) = rd.unpack("I")
    n, l, u, scheme, seed = _read_header(rd)
    groups = _read_groups(rd)
    (count,) = rd.unpack("Q")
    table = rd.varints([rd.varint_span(2 * count)])  # pool index, location, ...
    locations = dict(zip(table[0::2].tolist(), table[1::2].tolist()))
    held = sorted(locations)
    values_bits = _unpack_pool(rd.read(-(-count // 8)), count)
    values = dict(zip(held, values_bits.bits.tolist()))
    return NodeView(node=node, n=n, l=l, scheme=scheme, seed=seed, u=u,
                    groups=groups, locations=locations, values=values)
