import hashlib
import itertools
import struct

import numpy as np
import pytest

from netpad import amplify, keystore_io
from netpad.gf2 import BitString
from netpad.predistribution import SchemeSpec, generate

from helpers import write_varint

SCHEMES = [
    ("pairwise", 4, 9),
    ("same", 4, 6),
    ("comb:a=3", 4, 12),
    ("sampled:a=3,m=4", 4, 9),
    ("random:p=1/2", 4, 10),
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 12),
]


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_full_store_roundtrip(text, n, l, tmp_path):
    ks = generate(SchemeSpec.parse(text), n, l, seed=23)
    path = tmp_path / "store.npks"
    keystore_io.save(ks, path)
    loaded = keystore_io.load(path)
    assert loaded.n == ks.n and loaded.l == ks.l and loaded.u == ks.u
    assert loaded.seed == ks.seed
    assert loaded.scheme.canonical() == ks.scheme.canonical()
    assert loaded.groups == ks.groups
    assert loaded.pool == ks.pool
    for node in range(1, n + 1):
        assert loaded.locations(node) == ks.locations(node)


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_node_view_roundtrip(text, n, l, tmp_path):
    ks = generate(SchemeSpec.parse(text), n, l, seed=23)
    path = tmp_path / "node.npks"
    keystore_io.save_node_view(ks, 2, path)
    view = keystore_io.load_node_view(path)
    assert view.node == 2
    assert view.n == ks.n and view.l == ks.l and view.u == ks.u
    assert sorted(view.locations) == ks.node_bits(2)
    assert view.locations == ks.locations(2)
    for k, bit in view.values.items():
        assert bit == ks.pool[k]
    for j in (1, 3, 4):
        assert view.common_bits(2, j) == ks.common_bits(2, j)


def test_node_view_rejects_foreign_channels():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    view_path = None
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        view_path = pathlib.Path(d) / "v.npks"
        keystore_io.save_node_view(ks, 1, view_path)
        view = keystore_io.load_node_view(view_path)
    with pytest.raises(ValueError):
        view.common_bits(2, 3)


def test_encrypt_with_store_decrypt_with_view(tmp_path):
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 300, seed=4)
    keystore_io.save_node_view(ks, 1, tmp_path / "n1.npks")
    keystore_io.save_node_view(ks, 2, tmp_path / "n2.npks")
    v1 = keystore_io.load_node_view(tmp_path / "n1.npks")
    v2 = keystore_io.load_node_view(tmp_path / "n2.npks")

    rng = np.random.default_rng(0)
    msg = BitString.random(40, rng)
    ct = amplify.encrypt(v1, amplify.ChannelCipherState(1, 2, d=16), msg, seed=7)
    out = amplify.decrypt(v2, amplify.ChannelCipherState(1, 2, d=16), ct)
    assert out == msg


def test_wrong_loader_raises(tmp_path):
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    keystore_io.save(ks, tmp_path / "full.npks")
    keystore_io.save_node_view(ks, 1, tmp_path / "view.npks")
    with pytest.raises(ValueError):
        keystore_io.load(tmp_path / "view.npks")
    with pytest.raises(ValueError):
        keystore_io.load_node_view(tmp_path / "full.npks")


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.npks"
    path.write_bytes(b"XXXX" + b"\x00" * 10)
    with pytest.raises(ValueError):
        keystore_io.load(path)
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    good = tmp_path / "good.npks"
    keystore_io.save(ks, good)
    truncated = tmp_path / "trunc.npks"
    truncated.write_bytes(good.read_bytes()[:30])
    with pytest.raises(ValueError):
        keystore_io.load(truncated)


def test_hybrid_load_verifies_content(tmp_path):
    ks = generate(SchemeSpec.parse("hybrid:lambda=1/2,(pairwise),(comb:a=3)"),
                  4, 12, seed=9)
    path = tmp_path / "hybrid.npks"
    keystore_io.save(ks, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # corrupt the packed pool tail
    (tmp_path / "bad.npks").write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        keystore_io.load(tmp_path / "bad.npks")


def test_varint_decoder_matches_the_writer():
    values = [0, 1, 127, 128, 300, 2**21, 2**56 - 1, 2**63 - 1]
    values += np.random.default_rng(1).integers(0, 2**63, 200).tolist()
    out = bytearray(b"xy")
    for v in values:
        write_varint(out, v)
    rd = keystore_io._Reader(bytes(out) + b"tail")
    rd.pos = 2
    split = 3
    spans = [rd.varint_span(split), rd.varint_span(len(values) - split)]
    assert rd.varints(spans).tolist() == values
    assert rd.read(4) == b"tail"


def test_leb128_writer_matches_the_per_value_writer():
    values = [0, 127, 128, 2**63 - 1] + np.random.default_rng(2).integers(0, 2**63, 5000).tolist()
    out, ends = bytearray(), []
    for v in values:
        write_varint(out, v)
        ends.append(len(out))
    encoded, got_ends = keystore_io._leb128(np.array(values, dtype=np.int64))
    assert encoded == bytes(out)
    assert got_ends.tolist() == ends
    assert keystore_io._leb128(np.zeros(0, dtype=np.int64))[0] == b""
    with pytest.raises(ValueError, match="unsigned"):
        keystore_io._leb128(np.array([3, -1]))


def test_varint_tables_are_bounded():
    with pytest.raises(ValueError, match="overruns"):
        keystore_io._Reader(b"\x01\x02").varint_span(3)
    with pytest.raises(ValueError, match="9 bytes"):
        keystore_io._Reader(b"\x80" * 9 + b"\x01").varint_span(1)  # a 10-byte varint
    rd = keystore_io._Reader(b"\x00" + b"\x80" * 9 + b"\x01")
    with pytest.raises(ValueError, match="9 bytes"):
        rd.varints([rd.varint_span(2)])


def test_huge_group_count_raises_value_error(tmp_path):
    # Node 1's first group is (1, 2, 3) with 420 bits; a count of 2^40
    # must be refused before anything is allocated.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=3)
    path = tmp_path / "n1.npks"
    keystore_io.save_node_view(ks, 1, path)
    raw = bytearray(path.read_bytes())
    at = raw.index(struct.pack("<3IQ", 1, 2, 3, 420)) + 12
    raw[at:at + 8] = struct.pack("<Q", 2**40)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="overruns"):
        keystore_io.load_node_view(path)


# NPKS version 1 bytes frozen from an earlier build (seed 5, n=4): the
# comb:a=3 l=6 full store and node 2's view, and node 2's view of the
# random:p=1/2 l=4 store.  Storage locations are not stored in a full
# store, so these pin that the slot rule still gives the old ones.  The
# views were written when a view still carried the store's seed.
FROZEN = {
    "comb_full": (
        "4e504b5301000004000000060000000000000008000000000000000800636f6d623a613d33"
        "05000000000000000b006e756d70792d706367363404000000030001000000020000000300"
        "000002000000000000000001030001000000020000000400000002000000000000000201"
        "030001000000030000000400000002000000000000000401030002000000030000000400"
        "00000200000000000000060197"),
    "comb_view": (
        "4e504b530100010200000004000000060000000000000008000000000000000800636f6d62"
        "3a613d3305000000000000000b006e756d70792d706367363403000000030001000000020000"
        "000300000002000000000000000001030001000000020000000400000002000000000000"
        "000201030002000000030000000400000002000000000000000601060000000000000000"
        "010102020303040605070627"),
    "random_view": (
        "4e504b530100010200000004000000040000000000000008000000000000000c0072616e64"
        "6f6d3a703d312f3205000000000000000b006e756d70792d7063673634040000000300010000"
        "00020000000400000001000000000000000003000200000003000000040000000100000000"
        "000000030100020000000100000000000000040200010000000200000001000000000000"
        "00060400000000000000000403010402060305"),
}


def test_frozen_files_load_with_the_same_locations(tmp_path):
    comb = generate(SchemeSpec.parse("comb:a=3"), 4, 6, seed=5)
    rand = generate(SchemeSpec.parse("random:p=1/2"), 4, 4, seed=5)
    for name, hexed in FROZEN.items():
        (tmp_path / name).write_bytes(bytes.fromhex(hexed))
    full = keystore_io.load(tmp_path / "comb_full")
    assert full.groups == comb.groups and full.pool == comb.pool
    assert full.locations(2) == {0: 1, 1: 2, 2: 3, 3: 4, 6: 5, 7: 6}
    assert keystore_io.load_node_view(tmp_path / "comb_view").locations == full.locations(2)
    view = keystore_io.load_node_view(tmp_path / "random_view")
    assert view.locations == rand.locations(2) == {0: 4, 3: 1, 4: 2, 6: 3}
    assert view.values == {k: rand.pool[k] for k in view.locations}
    # The writers still produce these bytes.
    keystore_io.save(comb, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == bytes.fromhex(FROZEN["comb_full"])
    keystore_io.save_node_view(rand, 2, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == _seedless(bytes.fromhex(FROZEN["random_view"]))


def _seedless(view: bytes) -> bytes:
    """A node view's bytes with its seed field zeroed: it follows the
    preamble (11 bytes), n, l, u (20 bytes) and the scheme text."""
    (text_len,) = struct.unpack_from("<H", view, 31)
    return _edit(view, 33 + text_len, bytes(8))


def test_node_view_does_not_carry_the_seed(tmp_path):
    # A view that stored the seed would let one hacked node regenerate
    # the whole pool, every other channel's bits included.
    ks = generate(SchemeSpec.parse("comb:a=3"), 5, 600, seed=123456789)
    keystore_io.save_node_view(ks, 5, tmp_path / "v.npks")
    raw = (tmp_path / "v.npks").read_bytes()
    assert raw == _seedless(raw)
    view = keystore_io.load_node_view(tmp_path / "v.npks")
    assert not hasattr(view, "seed")
    assert generate(view.scheme, view.n, view.l, 0).pool != ks.pool


# sha256 of the bytes `save` writes and of the concatenated bytes of every
# `save_node_view` (nodes 1..n in order), at seed 17, taken from the
# per-value writers before the vectorized ones replaced them; the view
# digests are of those bytes with each view's seed field zeroed.
FROZEN_DIGESTS = {
    ("pairwise", 6, 300): (
        "2ae50f3ada3b48fd38919e9a8be1c1fa12b4777cbc02bbc20b7b7e2c8d1b7b4d",
        "4f9bd05ba79161ff86858071bfeeeec2cdc7bd6a5f6353596b61f2f293944ba3"),
    ("same", 6, 300): (
        "415c142d49bb6e3ccaca8357640f9726fba2d408f3dc68fd495d271d40b86d84",
        "a9c8c5488a127a8d18331ea415fec5bf3990cc41d5deb1e419f691b896b65374"),
    ("comb:a=3", 6, 300): (
        "aae14b2f683743108704bf0e69765a299a71b8a4c678f88b75b698b05c51dd63",
        "ed95f9553b401932746e5310e91557bfb806e4b16bb94148a55b9c060466b5e6"),
    ("sampled:a=3,m=4", 6, 300): (
        "df59bf9cee5a79b98b19d08cdda6c9285ad0ddfa567fe0cede7e8d0c7c12950a",
        "4a51818567d41b04c12e02182a129de2fac8184c28ce2663f28f6ca566f379ef"),
    ("random:p=1/2", 6, 300): (
        "d3d39a5411e28ac904fdcdd8171fcdda7af7c4e828fcc1a45956d26a1e538bc0",
        "c848dca49b641c5967905e5ccda58013d43550071c5dd6b957c3cc5985ddd229"),
    ("random:p=1/3", 6, 300): (
        "f1b5ef6bc4f2e30a452cd6d16f32d4e37b737316a8c476964dcd6debdf3767e9",
        "9b220b77eb3d9f4de32b3c44d85aa9800589f7167f135b1a6766485cab3f3c26"),
    ("hybrid:lambda=1/2,(random:p=1/2),(comb:a=3)", 6, 300): (
        "700479047761a32d76f4c43bde05db2ab5b85b299f9e52b135b2d88eac104bab",
        "67a0608f4a51d4456fa99ee54b15db2a1f742bfedcc342059c380709489d9db7"),
    # u = 40000: group starts need 3-byte varints.
    ("comb:a=3", 4, 30000): (
        "4c66940d3bd9ed9ce551e1520f7f0ac5f571602b5d13fb67e2eb75b69d5dd682",
        "eeb465b654d1a61893a261d7ce20566acbd2accfee0f75783f962186efd94662"),
}


@pytest.mark.parametrize("text,n,l", FROZEN_DIGESTS)
def test_writers_match_frozen_digests(text, n, l, tmp_path):
    ks = generate(SchemeSpec.parse(text), n, l, seed=17)
    path = tmp_path / "ks.npks"
    keystore_io.save(ks, path)
    full = hashlib.sha256(path.read_bytes()).hexdigest()
    views = hashlib.sha256()
    for node in range(1, n + 1):
        keystore_io.save_node_view(ks, node, path)
        views.update(path.read_bytes())
    assert (full, views.hexdigest()) == FROZEN_DIGESTS[(text, n, l)]


def _hybrid_file(tmp_path, text: str) -> bytearray:
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=9)
    keystore_io.save(ks, tmp_path / "hybrid.npks")
    return bytearray((tmp_path / "hybrid.npks").read_bytes())


@pytest.mark.parametrize("text,field,value,message", [
    # The 312-byte file whose l of 2,000,000 took 0.7 s and 316 MB to refuse.
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", "Q", 2_000_000, "pool bits"),
    # u does not depend on n here; 2^31 nodes would not fit in memory.
    ("hybrid:lambda=1,(random:p=1/2),(pairwise)", "I", 2**31, "fewer than"),
])
def test_hybrid_header_is_checked_before_regenerating(text, field, value, message,
                                                      tmp_path, monkeypatch):
    raw = _hybrid_file(tmp_path, text)
    at = 7 if field == "I" else 11  # n u32 and l u64 follow magic, version, flags
    raw[at:at + struct.calcsize(field)] = struct.pack("<" + field, value)
    (tmp_path / "bad.npks").write_bytes(bytes(raw))

    def regenerate(*args, **kwargs):
        pytest.fail("load called generate before checking the header")
    monkeypatch.setattr(keystore_io, "generate", regenerate)
    with pytest.raises(ValueError, match=message):
        keystore_io.load(tmp_path / "bad.npks")


def test_random_store_groups_must_follow_the_permutation(tmp_path):
    # Moving one bit between two groups keeps the table well formed, but
    # node_bits would then disagree with the slots F gives.
    ks = generate(SchemeSpec.parse("random:p=1/2"), 4, 10, seed=11)
    (a, idx_a), (b, idx_b) = list(ks.groups.items())[:2]
    ks.groups[a], ks.groups[b] = idx_a[1:], sorted(idx_b + idx_a[:1])
    keystore_io.save(ks, tmp_path / "moved.npks")
    with pytest.raises(ValueError, match="permutation"):
        keystore_io.load(tmp_path / "moved.npks")


def _comb_files(tmp_path):
    """comb:a=3 n=4 l=12 (u=16): groups (1,2,3) (1,2,4) (1,3,4) (2,3,4) of
    four bits each, as a full store and as node 2's view."""
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 12, seed=3)
    keystore_io.save(ks, tmp_path / "full.npks")
    keystore_io.save_node_view(ks, 2, tmp_path / "view.npks")
    return ks, (tmp_path / "full.npks").read_bytes(), (tmp_path / "view.npks").read_bytes()


def _group_at(raw: bytes, nodes) -> int:
    """Offset of the node-set record of a group in a saved file."""
    return raw.index(struct.pack(f"<H{len(nodes)}I", len(nodes), *nodes))


def _edit(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new):]


@pytest.mark.parametrize("case", [
    "full trailing bytes", "view trailing bytes", "node id beyond n",
    "node ids not ascending", "node set repeats", "index beyond u",
    "index in two groups", "index repeats in a group", "view node beyond n",
    "view node missing from a group",
])
def test_loaders_reject_malformed_tables(case, tmp_path):
    _, full, view = _comb_files(tmp_path)
    first = _group_at(full, (1, 2, 3))
    second = _group_at(full, (1, 2, 4))
    varints = first + 2 + 12 + 8  # group (1,2,3)'s indices: 0, +1, +1, +1
    mutated, loader = {
        "full trailing bytes": (full + b"junk", keystore_io.load),
        "view trailing bytes": (view + b"junk", keystore_io.load_node_view),
        "node id beyond n": (_edit(full, first + 10, struct.pack("<I", 9)), keystore_io.load),
        "node ids not ascending": (_edit(full, first + 2, struct.pack("<I", 3)),
                                   keystore_io.load),
        "node set repeats": (_edit(full, second + 10, struct.pack("<I", 3)), keystore_io.load),
        "index beyond u": (_edit(full, varints, bytes([100])), keystore_io.load),
        "index in two groups": (_edit(full, second + 22, bytes([0])), keystore_io.load),
        "index repeats in a group": (_edit(full, varints + 2, bytes([0])), keystore_io.load),
        "view node beyond n": (_edit(view, 7, struct.pack("<I", 7)),
                               keystore_io.load_node_view),
        "view node missing from a group": (_edit(view, 7, struct.pack("<I", 1)),
                                           keystore_io.load_node_view),
    }[case]
    path = tmp_path / "bad.npks"
    path.write_bytes(mutated)
    with pytest.raises(ValueError):
        loader(path)


@pytest.mark.parametrize("case", ["missing index", "foreign index", "repeated slot",
                                  "slot 0", "slot beyond l"])
def test_view_loader_checks_the_held_table(case, tmp_path, monkeypatch):
    ks, _, _ = _comb_files(tmp_path)
    good = ks.locations(2)
    held = list(good)
    bad = {
        "missing index": {k: good[k] for k in held[:-1]},
        "foreign index": {**good, 8: 12},  # bit 8 is in group (1,3,4)
        "repeated slot": {k: 1 for k in held},
        "slot 0": {**good, held[0]: 0},
        "slot beyond l": {**good, held[0]: 13},
    }[case]
    monkeypatch.setattr(ks, "slots", lambda node: (np.array(list(bad)),
                                                   np.array(list(bad.values()))))
    keystore_io.save_node_view(ks, 2, tmp_path / "bad.npks")
    with pytest.raises(ValueError):
        keystore_io.load_node_view(tmp_path / "bad.npks")


# 0x01 makes small changes that keep most of the structure (node 3 -> 2,
# index 4 -> 5); 0x80 flips varint continuation bits and high count bits.
FUZZ_XOR = (0x01, 0x80)


@pytest.mark.parametrize("text,l", [
    ("pairwise", 6), ("comb:a=3", 12), ("sampled:a=3,m=4", 9), ("random:p=1/2", 10),
    ("hybrid:lambda=1/2,(random:p=1/2),(comb:a=3)", 12),
])
@pytest.mark.parametrize("as_view", [False, True], ids=["full", "view"])
def test_mutated_files_raise_value_error_or_load(text, l, as_view, tmp_path):
    """Every truncation of a saved file raises ValueError, and every
    one-byte XOR either loads or raises ValueError: no other exception
    reaches the CLI."""
    ks = generate(SchemeSpec.parse(text), 4, l, seed=11)
    path = tmp_path / "ks.npks"
    if as_view:
        keystore_io.save_node_view(ks, 2, path)
        loader = keystore_io.load_node_view
    else:
        keystore_io.save(ks, path)
        loader = keystore_io.load
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            loader(path)
    for at, x in itertools.product(range(len(raw)), FUZZ_XOR):
        path.write_bytes(_edit(raw, at, bytes([raw[at] ^ x])))
        try:
            loader(path)
        except ValueError:
            pass


def test_node_view_bit_values_match_the_store(tmp_path):
    ks, _, _ = _comb_files(tmp_path)
    view = keystore_io.load_node_view(tmp_path / "view.npks")
    for j in (1, 3, 4):
        common = view.common_bits(2, j)
        assert view.bit_values(common) == ks.bit_values(ks.common_bits(2, j))
    assert len(view.bit_values([])) == 0
    with pytest.raises(ValueError, match="does not hold"):
        view.bit_values([0, 8])  # bit 8 is in group (1,3,4)
