import struct

import numpy as np
import pytest

from netpad import amplify, keystore_io
from netpad.gf2 import BitString
from netpad.predistribution import SchemeSpec, generate

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
    assert loaded.locations == ks.locations


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_node_view_roundtrip(text, n, l, tmp_path):
    ks = generate(SchemeSpec.parse(text), n, l, seed=23)
    path = tmp_path / "node.npks"
    keystore_io.save_node_view(ks, 2, path)
    view = keystore_io.load_node_view(path)
    assert view.node == 2
    assert view.n == ks.n and view.l == ks.l and view.u == ks.u
    assert sorted(view.locations) == ks.node_bits(2)
    assert view.locations == ks.locations[2]
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
        keystore_io._write_varint(out, v)
    rd = keystore_io._Reader(bytes(out) + b"tail")
    rd.pos = 2
    split = 3
    spans = [rd.varint_span(split), rd.varint_span(len(values) - split)]
    assert rd.varints(spans).tolist() == values
    assert rd.read(4) == b"tail"


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
