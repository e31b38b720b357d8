import dataclasses
import hashlib
import itertools
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from netpad import amplify, keystore_io, predistribution
from netpad.adversary import Transcript, build_security_matrix, conditional_mi
from netpad.cli import main
from netpad.gf2 import BitString
from netpad.predistribution import GroupIndex, SchemeSpec, generate
from netpad.secure_check import RateProfile, check_exact, check_feasibility

from helpers import holding_oracle, reseal, touching_oracle

SCHEMES = [
    ("pairwise", 4, 9),
    ("same", 4, 6),
    ("comb:a=3", 4, 12),
    ("sampled:a=3,m=4", 4, 9),
    ("random:p=1/2", 4, 10),
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 12),
]

# keystore_io.load's refusal of random groups that its slot table does not give.
REFUSAL = ("random keystore's groups do not follow its permutation, the slot table drawn "
           "from its seed: the file may come from another numpy release")


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


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_common_values_are_the_common_bits_values(text, n, l, tmp_path):
    ks = generate(SchemeSpec.parse(text), n, l, seed=29)
    for node in range(1, n + 1):
        keystore_io.save_node_view(ks, node, tmp_path / f"v{node}.npks")
    views = [keystore_io.load_node_view(tmp_path / f"v{node}.npks") for node in range(1, n + 1)]
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for store in (ks, views[i - 1], views[j - 1]):
            values = store.common_values(i, j)
            assert values.dtype == np.uint8
            assert np.array_equal(values, store.bit_values(store.common_bits(i, j)).bits)
    assert all("groups" not in view.__dict__ for view in views)
    assert [view.groups for view in views] == [
        {g: idx for g, idx in ks.groups.items() if node in g} for node in range(1, n + 1)]


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_library_paths_never_build_store_groups(text, n, l, tmp_path):
    # The index is a store's record: keygen, NPKS I/O, the checkers,
    # encryption and the adversary read it and leave groups unbuilt.
    ks = generate(SchemeSpec.parse(text), n, l, seed=31)
    keystore_io.save(ks, tmp_path / "full.npks")
    for node in range(1, n + 1):
        keystore_io.save_node_view(ks, node, tmp_path / f"v{node}.npks")
    loaded = keystore_io.load(tmp_path / "full.npks")
    profile = RateProfile.uniform(n, Fraction(1, 100))
    for store in (ks, loaded):
        check_exact(store, profile, 1)
        check_feasibility(store, profile, 1)
        state = amplify.ChannelCipherState(1, 2, d=2)
        ct = amplify.encrypt(store, state, BitString.from01("10"), seed=1)
        build_security_matrix(store, Transcript(ciphertexts=(ct,), hacked=(n,), d=2))
        conditional_mi(store, 2, 1)
    for store in (ks, loaded):
        assert "groups" not in store.__dict__


# Both parts of this hybrid use all four triples of n = 4.
SHARED_SETS = "hybrid:lambda=1/2,(comb:a=3),(sampled:a=3,m=4)"


@pytest.mark.parametrize("text,n,l", SCHEMES + [(SHARED_SETS, 4, 18)])
def test_membership_queries_match_a_tuple_oracle(text, n, l, tmp_path):
    # holding and touching, for every set of nodes, on a generated and a
    # loaded full store and on every loaded view.
    ks = generate(SchemeSpec.parse(text), n, l, seed=41)
    keystore_io.save(ks, tmp_path / "full.npks")
    indexes = [ks.index, keystore_io.load(tmp_path / "full.npks").index]
    for node in range(1, n + 1):
        keystore_io.save_node_view(ks, node, tmp_path / "view.npks")
        indexes.append(keystore_io.load_node_view(tmp_path / "view.npks").index)
    for index in indexes:
        node_sets = list(index.groups())
        assert node_sets and len(set(node_sets)) == len(node_sets)
        for size in range(n + 1):
            for nodes in itertools.combinations(range(1, n + 1), size):
                assert index.holding(*nodes).tolist() == holding_oracle(node_sets, nodes)
                assert index.touching(nodes).tolist() == touching_oracle(node_sets, nodes)
    if text == SHARED_SETS:
        # Each part gives each triple 3 bits; the store holds each triple once.
        assert list(ks.index.groups()) == list(itertools.combinations(range(1, 5), 3))
        assert ks.index.sizes.tolist() == [6] * 4


def test_node_ids_up_to_u32_cost_memory_bounded_by_the_file(tmp_path):
    # A view whose header says n = 2^32-1 and whose last set names node
    # 2^32-1 loads, and a copy of that set in another record is refused,
    # without allocating anything sized by n.
    _, _, view = _comb_files(tmp_path)
    ids = _tables(view)["ids"]  # node 2's sets: (1,2,3), (1,2,4), (2,3,4)
    top = struct.pack("<I", 2**32 - 1)
    big = _edit(_edit(view, 11, top), ids + 32, top)  # n, then the 4 of (2,3,4)
    twice = _edit(big, ids + 12, struct.pack("<2I", 2, 3) + top)
    for raw, message in ((big, None), (twice, "appears twice")):
        (tmp_path / "big.npks").write_bytes(reseal(raw))
        tracemalloc.start()
        try:
            if message is None:
                loaded = keystore_io.load_node_view(tmp_path / "big.npks")
            else:
                with pytest.raises(ValueError, match=message):
                    keystore_io.load_node_view(tmp_path / "big.npks")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert loaded.n == 2**32 - 1 and list(loaded.index.groups())[-1] == (2, 3, 2**32 - 1)


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


HYBRID_ORDERS = ["hybrid:lambda=1/2,(random:p=1/2),(comb:a=3)",
                 "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"]


@pytest.mark.parametrize("text", HYBRID_ORDERS)
def test_hybrid_random_part_must_follow_the_permutation(text, tmp_path):
    # One bit moves between two groups inside the random part's pool
    # range, which starts past the comb part's pool in the second order.
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=9)
    (part,) = [part for part in ks.parts if part.perm]
    assert (part.start > 0) == text.startswith("hybrid:lambda=1/2,(comb")
    in_part = np.flatnonzero((ks.index.indices >= part.start)
                             & (ks.index.indices < part.start + part.u))
    group_ids = ks.index.group_ids.copy()
    at = next(k for k in in_part if ks.index.sizes[group_ids[k]] > 1)
    group_ids[at] = next(g for g in group_ids[in_part] if g != group_ids[at])
    ks = dataclasses.replace(ks, index=dataclasses.replace(ks.index, group_ids=group_ids))
    keystore_io.save(ks, tmp_path / "moved.npks")
    with pytest.raises(ValueError, match="permutation"):
        keystore_io.load(tmp_path / "moved.npks")


def test_resealed_hybrid_pool_edit_loads(tmp_path):
    # The seal detects corruption, it is not a MAC: a hybrid, like every
    # other store, takes its pool bits from its file.
    ks = generate(SchemeSpec.parse("hybrid:lambda=1/2,(pairwise),(comb:a=3)"), 4, 12, seed=9)
    path = tmp_path / "hybrid.npks"
    keystore_io.save(ks, path)
    raw = bytearray(path.read_bytes())
    raw[-33] ^= 0x01  # the first bit of the packed pool's last byte, before the seal
    path.write_bytes(reseal(bytes(raw)))
    loaded = keystore_io.load(path)
    flipped = ks.pool.bits.copy()
    flipped[(ks.u - 1) // 8 * 8] ^= 1
    assert np.array_equal(loaded.pool.bits, flipped) and loaded.index == ks.index


@pytest.mark.parametrize("text", [text for text, _, _ in SCHEMES if text.startswith("hybrid")]
                         + HYBRID_ORDERS)
@pytest.mark.parametrize("seed", [9, [3, 9]])
def test_hybrid_load_never_generates(text, seed, tmp_path, monkeypatch):
    # A seed sequence folds to a 63-bit store seed; each part's seed is
    # derived from the stored value as it is.
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=seed)
    assert 0 <= ks.seed < 2**63
    keystore_io.save(ks, tmp_path / "hybrid.npks")

    def fail(*args, **kwargs):
        pytest.fail("load called generate")
    monkeypatch.setattr(predistribution, "generate", fail)
    loaded = keystore_io.load(tmp_path / "hybrid.npks")
    assert loaded.seed == ks.seed and loaded.index == ks.index and loaded.pool == ks.pool
    for node in range(1, 5):
        assert loaded.locations(node) == ks.locations(node)


@pytest.mark.parametrize("text", ["comb:a=3", "random:p=1/2"])
def test_loaders_refuse_a_group_with_no_pool_index(text, tmp_path):
    # No writer emits an empty group, and a random part's check cuts the
    # index to its pool range, which drops empty groups.
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=3)
    node_sets = list(ks.index.groups())
    extra = next(nodes for size in range(1, 5)
                 for nodes in itertools.combinations(range(1, 5), size)
                 if 2 in nodes and nodes not in node_sets)
    ks = dataclasses.replace(ks, index=GroupIndex.of(
        node_sets + [extra], ks.index.indices, ks.index.group_ids))
    keystore_io.save(ks, tmp_path / "full.npks")
    keystore_io.save_node_view(ks, 2, tmp_path / "view.npks")
    with pytest.raises(ValueError, match="a group holds no pool index"):
        keystore_io.load(tmp_path / "full.npks")
    with pytest.raises(ValueError, match="a group holds no pool index"):
        keystore_io.load_node_view(tmp_path / "view.npks")


def test_huge_group_count_raises_value_error(tmp_path):
    # Node 1's first group is (1, 2, 3) with 420 bits; a count of 2^40
    # must be refused before anything is allocated.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=3)
    path = tmp_path / "n1.npks"
    keystore_io.save_node_view(ks, 1, path)
    raw = bytearray(path.read_bytes())
    at = _tables(bytes(raw))["sizes"]
    raw[at:at + 8] = struct.pack("<Q", 2**40)
    path.write_bytes(reseal(bytes(raw)))
    with pytest.raises(ValueError, match="overruns"):
        keystore_io.load_node_view(path)


# NPKS version 4 bytes (seed 5, n=4): the comb:a=3 l=6 full store and
# node 2's view, and node 2's view of the random:p=1/2 l=4 store.  Storage
# locations are not stored in a full store, so these pin that the slot
# rule still gives a comb store the slots that version 1 files gave.
FROZEN = {
    "comb_full": (
        "4e504b5304000004000000060000000000000008000000000000000800636f6d623a613d33"
        "0500000000000000000b006e756d70792d7063673634040000000300030003000300010000"
        "00020000000300000001000000020000000400000001000000030000000400000002000000"
        "03000000040000000200000000000000020000000000000002000000000000000200000000"
        "00000000000000010000000200000003000000040000000500000006000000070000009797"
        "b21ad236ec757770d8ec145fe81d38b8ce9231a2614001f450555602acc0bf"),
    "comb_view": (
        "4e504b530400010200000004000000060000000000000008000000000000000800636f6d62"
        "3a613d330000000000000000000b006e756d70792d70636736340300000003000300030001"
        "00000002000000030000000100000002000000040000000200000003000000040000000200"
        "00000000000002000000000000000200000000000000000000000100000002000000030000"
        "000600000007000000010000000200000003000000040000000500000006000000276144b1"
        "fc9dd11c0f85331cd86cd11369268997ae8dcfba91d0e1f04c97ea0597"),
    "random_view": (
        "4e504b530400010200000004000000040000000000000008000000000000000c0072616e64"
        "6f6d3a703d312f320000000000000000000b006e756d70792d706367363403000000030002"
        "00020001000000020000000300000002000000040000000200000003000000010000000000"
        "00000200000000000000010000000000000000000000010000000200000005000000010000"
        "0002000000030000000400000007dd090c4878d5a813e58f4e37c00d30a14959b3743ed74c"
        "87636b4d5a17e6cced"),
}

# Version 3 bytes of the same three files and of the random:p=1/2 l=4
# full store, whose groups followed a Feistel permutation: the version 4
# holdings check would refuse it, but the version is refused first.
FROZEN_V3 = {
    "comb_full": (
        "4e504b5303000004000000060000000000000008000000000000000800636f6d623a613d33"
        "05000000000000000b006e756d70792d706367363404000000030003000300030001000000"
        "02000000030000000100000002000000040000000100000003000000040000000200000003"
        "00000004000000020000000000000002000000000000000200000000000000020000000000"
        "00000000000001000000020000000300000004000000050000000600000007000000971a66"
        "5f4e8c623523e186ee783475e433e3cfec91fefe9660e9fd54062c766005"),
    "comb_view": (
        "4e504b530300010200000004000000060000000000000008000000000000000800636f6d62"
        "3a613d3300000000000000000b006e756d70792d7063673634030000000300030003000100"
        "00000200000003000000010000000200000004000000020000000300000004000000020000"
        "00000000000200000000000000020000000000000000000000010000000200000003000000"
        "060000000700000001000000020000000300000004000000050000000600000027beb37b6f"
        "5a7e8c9471b35a72b1e413bb9ba68fdaf0579d05a6bf98e22b5d69de"),
    "random_view": (
        "4e504b530300010200000004000000040000000000000008000000000000000c0072616e64"
        "6f6d3a703d312f3200000000000000000b006e756d70792d70636736340400000003000300"
        "01000200010000000200000004000000020000000300000004000000020000000100000002"
        "00000001000000000000000100000000000000010000000000000001000000000000000000"
        "000003000000040000000600000004000000010000000200000003000000053e5428ea2257"
        "a92a1556af70dce209446f5b764cfa8e94c987dbe9228984f2ed"),
    "random_full": (
        "4e504b5303000004000000040000000000000008000000000000000c0072616e646f6d3a70"
        "3d312f3205000000000000000b006e756d70792d7063673634070000000300020003000300"
        "01000100020001000000020000000400000001000000040000000100000003000000040000"
        "00020000000300000004000000020000000300000001000000020000000100000000000000"
        "01000000000000000100000000000000010000000000000001000000000000000200000000"
        "00000001000000000000000000000001000000020000000300000004000000050000000700"
        "00000600000097b722b4462607ed0a0725dcfb261e4d17793675bcf6f52c4e7b2c82bf5104"
        "84c9"),
}

# The same three files as version 2 wrote them (one record per group, a
# blake2b seal).  Later loaders refuse them.
FROZEN_V2 = {
    "comb_full": (
        "4e504b5302000004000000060000000000000008000000000000000800636f6d623a613d33"
        "05000000000000000b006e756d70792d706367363404000000030001000000020000000300"
        "00000200000000000000030001000000020000000400000002000000000000000300010000"
        "00030000000400000002000000000000000300020000000300000004000000020000000000"
        "00000000000001000000020000000300000004000000050000000600000007000000975646"
        "1b8fd1b90fac84c86bc40a59b6b923fd526d3a8d6673a9b1266befb93934"),
    "comb_view": (
        "4e504b530200010200000004000000060000000000000008000000000000000800636f6d62"
        "3a613d3300000000000000000b006e756d70792d7063673634030000000300010000000200"
        "00000300000002000000000000000300010000000200000004000000020000000000000003"
        "00020000000300000004000000020000000000000000000000010000000200000003000000"
        "06000000070000000100000002000000030000000400000005000000060000002755c55422"
        "1c9ae1788f47bb5d80c7662e76f7de83208ade25ca4eb622dfdf909a"),
    "random_view": (
        "4e504b530200010200000004000000040000000000000008000000000000000c0072616e64"
        "6f6d3a703d312f3200000000000000000b006e756d70792d70636736340400000003000100"
        "00000200000004000000010000000000000003000200000003000000040000000100000000"
        "00000001000200000001000000000000000200010000000200000001000000000000000000"
        "000003000000040000000600000004000000010000000200000003000000056fad325a575a"
        "c84de2a3880f4a384dddc79d63499bc258d967c2533589351e0a"),
}

# The same three files as version 1 wrote them (LEB128 tables, no seal;
# the views still carried the store's seed).  Version 2 loaders refuse them.
FROZEN_V1 = {
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
    assert view.locations == rand.locations(2) == {0: 1, 1: 2, 2: 3, 5: 4}
    assert view.values == {k: rand.pool[k] for k in view.locations}
    # The writers still produce these bytes.
    keystore_io.save(comb, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == bytes.fromhex(FROZEN["comb_full"])
    keystore_io.save_node_view(comb, 2, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == bytes.fromhex(FROZEN["comb_view"])
    keystore_io.save_node_view(rand, 2, tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == bytes.fromhex(FROZEN["random_view"])


def _refused(frozen: dict, version: int, tmp_path) -> None:
    message = f"unsupported keystore version {version}"
    for name, hexed in frozen.items():
        path = tmp_path / f"{name}.npks"
        path.write_bytes(bytes.fromhex(hexed))
        for loader in (keystore_io.load, keystore_io.load_node_view):
            with pytest.raises(ValueError, match=message):
                loader(path)
    res = CliRunner().invoke(main, ["decrypt", "--keystore", str(tmp_path / "comb_view.npks"),
                                    "--in", str(tmp_path / "missing.npct"),
                                    "--out", str(tmp_path / "out.bin")])
    assert res.exit_code == 3 and message in res.output
    assert not (tmp_path / "out.bin").exists()


def test_version_1_files_are_refused(tmp_path):
    _refused(FROZEN_V1, 1, tmp_path)


def test_version_2_files_are_refused(tmp_path):
    _refused(FROZEN_V2, 2, tmp_path)


def test_version_3_files_are_refused(tmp_path):
    _refused(FROZEN_V3, 3, tmp_path)
    # The random store, relabelled version 4 with a pool source byte,
    # reaches the holdings check, which refuses its Feistel groups.
    raw = bytearray(bytes.fromhex(FROZEN_V3["random_full"]))
    raw[4:6] = struct.pack("<H", 4)
    (text_len,) = struct.unpack_from("<H", raw, 27)
    raw[29 + text_len + 8:29 + text_len + 8] = bytes(1)
    (tmp_path / "relabelled.npks").write_bytes(reseal(bytes(raw)))
    with pytest.raises(ValueError) as refused:
        keystore_io.load(tmp_path / "relabelled.npks")
    assert str(refused.value) == REFUSAL


@pytest.mark.parametrize("node", [None, 2])
def test_loaders_refuse_a_pool_source_other_than_the_seed(node, tmp_path):
    ks = generate(SchemeSpec.parse("random:p=1/2"), 4, 10, seed=3)
    path = tmp_path / "ks.npks"
    if node is None:
        keystore_io.save(ks, path)
    else:
        keystore_io.save_node_view(ks, node, path)
    raw = path.read_bytes()
    at = 7 + 4 * raw[6] + 20  # past the preamble, a view's node id and n, l, u
    at += 2 + struct.unpack_from("<H", raw, at)[0] + 8  # the scheme text and the seed
    assert raw[at] == 0
    path.write_bytes(reseal(_edit(raw, at, bytes([1]))))
    with pytest.raises(ValueError, match="pool source 1 is not 0"):
        (keystore_io.load if node is None else keystore_io.load_node_view)(path)


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
# `save_node_view` (nodes 1..n in order), at seed 17, in NPKS version 4.
# The random and hybrid stores pin numpy's Generator.choice stream, which
# NEP 19 leaves free to change between numpy releases.
FROZEN_DIGESTS = {
    ("pairwise", 6, 300): (
        "407f16312e5c383651ae52301deb458ac1a4ee72db1b60b8432e28dad53ec49c",
        "f87240946f33e96786b25813aa3b6ce458746cf8ea1d73c747d873fe90bb2e0d"),
    ("same", 6, 300): (
        "aa4095a177b6809bb96d6ab4e0e645aafc76a8734fa68262fc9401a948250a3a",
        "05132adec3ccbbc5d2b60c771411c79a5b73c55b643fa85307841311ed6d6658"),
    ("comb:a=3", 6, 300): (
        "37ca2042506405aa226c26b871d25f071164f89c49066d1d5f6847640675ff5a",
        "d5e13c484eff8512977ca68f50f0fbc4a04c3fa8fffb8ebea16fbe5d83419cf7"),
    ("sampled:a=3,m=4", 6, 300): (
        "78408d756c2d813aa7a2a44c5d186ea2adb59c6e7eba3920cf55e389403c0561",
        "9b9264c9da59aae4838ae266436e64f86507636d0dbbd90ddbf4ef04018e09df"),
    ("random:p=1/2", 6, 300): (
        "630b7ddf27a2105827fe91c09f6d03fee86fc3954db62ef8906cdadbde09750f",
        "f00f116d445575b06cfdfbecd55cf36e8004c41db1e74363d956ae7b90ef2f2c"),
    ("random:p=1/3", 6, 300): (
        "aa030ab19fa4fc3ff920be6b9c2ff26bad810cc69bd7416ae6e0b4fce6999c77",
        "681770a2bc4586486376207d90ae99ac40413652783461f0a4ea91310c57f1ba"),
    ("hybrid:lambda=1/2,(random:p=1/2),(comb:a=3)", 6, 300): (
        "2e56ff2e6c3b755f988c7ab813f825d6be4dffde0480f59176a8ecb675bf7e63",
        "9651e15eb7ba0417063f693735582f605e8c08256e3b1a295d3f594454484751"),
    # u = 40000: pool indices past 2^16.
    ("comb:a=3", 4, 30000): (
        "945f3a21058d65a25de50cfdbb080a8645690fa4f13fb783358f61529d624aba",
        "82ac502aea4b2dbd2eebf17162e812c7ba5463c0e5ea8348ba9a93b905dd444b"),
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
    (tmp_path / "bad.npks").write_bytes(reseal(bytes(raw)))

    def regenerate(*args, **kwargs):
        pytest.fail("load called generate before checking the header")
    monkeypatch.setattr(predistribution, "generate", regenerate)
    with pytest.raises(ValueError, match=message):
        keystore_io.load(tmp_path / "bad.npks")


def test_random_store_groups_must_follow_the_permutation(tmp_path):
    # Moving one bit between two groups keeps the table well formed, but
    # node_bits would then disagree with the slots F gives.  The bit moves
    # in the index, the store's record: group 0's lowest index joins group 1.
    ks = generate(SchemeSpec.parse("random:p=1/2"), 4, 10, seed=11)
    group_ids = ks.index.group_ids.copy()
    assert np.count_nonzero(group_ids == 0) > 1
    group_ids[np.flatnonzero(group_ids == 0)[0]] = 1
    ks = dataclasses.replace(ks, index=dataclasses.replace(ks.index, group_ids=group_ids))
    keystore_io.save(ks, tmp_path / "moved.npks")
    assert ks.groups != generate(ks.scheme, 4, 10, seed=11).groups
    with pytest.raises(ValueError, match="permutation"):
        keystore_io.load(tmp_path / "moved.npks")


@pytest.mark.parametrize("text", ["random:p=1/2", "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
def test_every_move_within_a_random_range_is_refused(text, tmp_path):
    # Each pool index of the random part's range, moved to any other group
    # (unless that empties its own), breaks the permutation's holdings.  In
    # the hybrid some node sets hold bits of both parts, so one group's
    # indices span both ranges, and a move can empty its share of the
    # random range while the group lives on.
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=9)
    (part,) = [part for part in ks.parts if part.perm]
    index, path = ks.index, tmp_path / "moved.npks"
    keystore_io.save(ks, path)
    loaded = keystore_io.load(path)
    assert loaded.index == index and loaded.pool == ks.pool
    in_part = (index.indices >= part.start) & (index.indices < part.start + part.u)
    share = np.bincount(index.group_ids[in_part], minlength=index.count)
    spans = (share > 0) & (share < index.sizes)  # groups with bits of both parts
    assert spans.any() == (part.start > 0)
    moves = emptied = 0
    for at in np.flatnonzero(in_part):
        source = index.group_ids[at]
        if index.sizes[source] == 1:
            continue  # the move would leave a group with no pool index
        emptied += spans[source] and share[source] == 1
        for target in set(range(index.count)) - {source}:
            group_ids = index.group_ids.copy()
            group_ids[at] = target
            keystore_io.save(dataclasses.replace(
                ks, index=dataclasses.replace(index, group_ids=group_ids)), path)
            with pytest.raises(ValueError) as refused:
                keystore_io.load(path)
            assert str(refused.value) == REFUSAL
            moves += 1
    assert moves > 0 and (emptied > 0) == (part.start > 0)


def test_random_store_with_bits_no_node_holds_loads(tmp_path):
    # At p = 1/8 and n = 4 a bit is held by no node with probability
    # (7/8)^4, so about 59% of the pool lies in no group.
    ks = generate(SchemeSpec.parse("random:p=1/8"), 4, 20, seed=5)
    assert 0 < ks.index.indices.size < ks.u
    keystore_io.save(ks, tmp_path / "sparse.npks")
    loaded = keystore_io.load(tmp_path / "sparse.npks")
    assert loaded.index == ks.index and loaded.pool == ks.pool
    assert all(loaded.locations(i) == ks.locations(i) for i in range(1, 5))


@pytest.mark.parametrize("text,n,l", SCHEMES)
def test_load_accepts_groups_in_any_record_order(text, n, l, tmp_path):
    # The random parts' checks compare node sets and their indices, not
    # the order of the records, and the loaded groups keep the file's order.
    ks = generate(SchemeSpec.parse(text), n, l, seed=37)
    rebuilt = generate(ks.scheme, n, l, seed=37)
    last = ks.index.count - 1
    ks = dataclasses.replace(ks, index=GroupIndex.of(
        list(ks.index.groups())[::-1], ks.index.indices, last - ks.index.group_ids))
    keystore_io.save(ks, tmp_path / "reversed.npks")
    loaded = keystore_io.load(tmp_path / "reversed.npks")
    assert loaded.index == ks.index == rebuilt.index and loaded.pool == ks.pool
    assert list(loaded.groups.items()) == list(ks.groups.items())
    assert list(ks.groups) == list(rebuilt.index.groups())[::-1]


def _comb_files(tmp_path):
    """comb:a=3 n=4 l=12 (u=16): groups (1,2,3) (1,2,4) (1,3,4) (2,3,4) of
    four bits each, as a full store and as node 2's view."""
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 12, seed=3)
    keystore_io.save(ks, tmp_path / "full.npks")
    keystore_io.save_node_view(ks, 2, tmp_path / "view.npks")
    return ks, (tmp_path / "full.npks").read_bytes(), (tmp_path / "view.npks").read_bytes()


def _tables(raw: bytes) -> dict[str, int]:
    """Offsets of a saved file's group count and of its four tables, read
    past the preamble (and a view's node id) and the header."""
    at = 7 + 4 * raw[6] + 20  # n, l, u
    at += 2 + struct.unpack_from("<H", raw, at)[0] + 9  # the scheme text, seed, pool source
    at += 2 + struct.unpack_from("<H", raw, at)[0]  # the RNG id
    (count,) = struct.unpack_from("<I", raw, at)
    ids = at + 4 + 2 * count
    sizes = ids + 4 * sum(struct.unpack_from(f"<{count}H", raw, at + 4))
    return {"count": at, "lens": at + 4, "ids": ids, "sizes": sizes, "indices": sizes + 8 * count}


def _edit(raw: bytes, at: int, new: bytes) -> bytes:
    return raw[:at] + new + raw[at + len(new):]


@pytest.mark.parametrize("case", [
    "full trailing bytes", "view trailing bytes", "node id beyond n",
    "node ids not ascending", "node set repeats", "index beyond u",
    "index in two groups", "index repeats in a group", "view node beyond n",
    "view node missing from a group",
])
def test_loaders_reject_malformed_tables(case, tmp_path):
    """Each edit is resealed, so it reaches the check it is written for."""
    _, full, view = _comb_files(tmp_path)
    # The node ids list (1,2,3) then (1,2,4); (1,2,3) holds pool indices
    # 0..3, then (1,2,4) 4..7.
    first, indices = _tables(full)["ids"], _tables(full)["indices"]
    second = first + 12
    u32 = lambda value: struct.pack("<I", value)
    mutated, loader, message = {
        "full trailing bytes": (full[:-32] + b"junk" + full[-32:], keystore_io.load,
                                "4 bytes follow the end"),
        "view trailing bytes": (view[:-32] + b"junk" + view[-32:], keystore_io.load_node_view,
                                "4 bytes follow the end"),
        "node id beyond n": (_edit(full, first + 8, u32(9)), keystore_io.load,
                             r"group \(1, 2, 9\) is not an ascending set"),
        "node ids not ascending": (_edit(full, first, u32(3)), keystore_io.load,
                                   r"group \(3, 2, 3\) is not an ascending set"),
        "node set repeats": (_edit(full, second + 8, u32(3)), keystore_io.load,
                             "appears twice"),
        "index beyond u": (_edit(full, indices + 12, u32(100)), keystore_io.load,
                           "pool index 100 outside 0..15"),
        "index in two groups": (_edit(full, indices + 16, u32(0)), keystore_io.load,
                                "in two groups"),
        "index repeats in a group": (_edit(full, indices + 8, u32(1)), keystore_io.load,
                                     "not strictly ascending"),
        "view node beyond n": (_edit(view, 7, u32(7)), keystore_io.load_node_view,
                               "node 7 outside 1..4"),
        "view node missing from a group": (_edit(view, 7, u32(1)), keystore_io.load_node_view,
                                           "lists a group it is not in"),
    }[case]
    path = tmp_path / "bad.npks"
    path.write_bytes(reseal(mutated))
    with pytest.raises(ValueError, match=message):
        loader(path)


@pytest.mark.parametrize("case", ["missing index", "foreign index", "repeated slot",
                                  "slot 0", "slot beyond l"])
def test_view_loader_checks_the_held_table(case, tmp_path, monkeypatch):
    # A view stores no held indices, only one slot per bit of its groups,
    # so a slot table of another length misaligns the rest of the file.
    ks, _, _ = _comb_files(tmp_path)
    good = ks.locations(2)
    held = list(good)
    bad, message = {
        "missing index": ({k: good[k] for k in held[:-1]}, "overruns"),
        "foreign index": ({**good, 8: 12}, "follow the end"),  # bit 8 is in group (1,3,4)
        "repeated slot": ({k: 1 for k in held}, "not distinct"),
        "slot 0": ({**good, held[0]: 0}, "not distinct"),
        "slot beyond l": ({**good, held[0]: 13}, "not distinct"),
    }[case]
    monkeypatch.setattr(ks, "slots", lambda node: (np.array(list(bad)),
                                                   np.array(list(bad.values()))))
    keystore_io.save_node_view(ks, 2, tmp_path / "bad.npks")
    with pytest.raises(ValueError, match=message):
        keystore_io.load_node_view(tmp_path / "bad.npks")


def test_writers_refuse_values_past_u32(tmp_path, monkeypatch):
    ks, _, _ = _comb_files(tmp_path)
    held, slots = ks.slots(2)
    slots[-1] = 2**32
    monkeypatch.setattr(ks, "slots", lambda node: (held, slots))
    with pytest.raises(ValueError, match="0..2\\^32-1"):
        keystore_io.save_node_view(ks, 2, tmp_path / "bad.npks")
    ks.l = 2**32
    for write in (keystore_io.save, lambda ks, path: keystore_io.save_node_view(ks, 1, path)):
        with pytest.raises(ValueError, match="l < 2\\^32"):
            write(ks, tmp_path / "bad.npks")


def test_writers_refuse_n_and_nodes_past_their_fields(tmp_path):
    # n and a view's node id are u32 fields: a node outside 1..n, or a store
    # built by hand with n = 2^32, is a ValueError before anything is written.
    ks, _, _ = _comb_files(tmp_path)
    for node in (-1, 0, 5, 2**32):
        with pytest.raises(ValueError, match=f"node {node} outside 1..4"):
            keystore_io.save_node_view(ks, node, tmp_path / "bad.npks")
    ks.n = 2**32
    for write in (keystore_io.save, lambda ks, path: keystore_io.save_node_view(ks, 2**32, path)):
        with pytest.raises(ValueError, match="n, l < 2\\^32"):
            write(ks, tmp_path / "bad.npks")
    assert not (tmp_path / "bad.npks").exists()


def test_writers_refuse_a_node_set_past_u16(tmp_path):
    # A set length is a u16, so one group of 65536 nodes has no record.
    ks = generate(SchemeSpec.parse("same"), 2**16, 1, seed=1)
    with pytest.raises(ValueError, match="at most 65535 nodes"):
        keystore_io.save(ks, tmp_path / "bad.npks")


def test_unsealed_edit_fails_the_checksum(tmp_path):
    _, full, view = _comb_files(tmp_path)
    for raw, loader in ((full, keystore_io.load), (view, keystore_io.load_node_view)):
        # The byte before the seal holds pool (or view) bit values.
        (tmp_path / "bad.npks").write_bytes(_edit(raw, len(raw) - 33, bytes([raw[-33] ^ 1])))
        with pytest.raises(ValueError, match="checksum does not match"):
            loader(tmp_path / "bad.npks")


# 0x01 makes small changes that keep most of the structure (node 3 -> 2,
# index 4 -> 5), 0x80 flips high bits of counts and table entries, 0xFF
# flips a whole byte.
FUZZ_XOR = (0x01, 0x80, 0xFF)


def _saved(text: str, l: int, as_view: bool, path):
    """A seed-11 n=4 store saved to path, full or as node 2's view; its loader."""
    ks = generate(SchemeSpec.parse(text), 4, l, seed=11)
    if as_view:
        keystore_io.save_node_view(ks, 2, path)
        return keystore_io.load_node_view
    keystore_io.save(ks, path)
    return keystore_io.load


@pytest.mark.parametrize("text,l", [
    ("pairwise", 6), ("comb:a=3", 12), ("sampled:a=3,m=4", 9), ("random:p=1/2", 10),
    ("hybrid:lambda=1/2,(random:p=1/2),(comb:a=3)", 12),
])
@pytest.mark.parametrize("as_view", [False, True], ids=["full", "view"])
def test_mutated_files_raise_value_error_or_load(text, l, as_view, tmp_path):
    """Every truncation of a saved file, and every one-byte XOR of it,
    raises ValueError: the seal covers every byte, pool and bit values
    included, and no other exception reaches the CLI."""
    path = tmp_path / "ks.npks"
    loader = _saved(text, l, as_view, path)
    raw = path.read_bytes()
    loader(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            loader(path)
    for at, x in itertools.product(range(len(raw)), FUZZ_XOR):
        path.write_bytes(_edit(raw, at, bytes([raw[at] ^ x])))
        with pytest.raises(ValueError):
            loader(path)


def _resealed_edits_load_or_raise_value_error(text, l, as_view, path):
    """Every one-byte XOR of a saved file, resealed so that it reaches the
    loader's own checks, loads or raises ValueError."""
    loader = _saved(text, l, as_view, path)
    raw = path.read_bytes()
    for at, x in itertools.product(range(len(raw) - 32), FUZZ_XOR):
        path.write_bytes(reseal(_edit(raw, at, bytes([raw[at] ^ x]))))
        try:
            loader(path)
        except ValueError:
            pass


@pytest.mark.parametrize("text,l", [
    ("pairwise", 6), ("comb:a=3", 12), ("sampled:a=3,m=4", 9), ("random:p=1/2", 10),
])
@pytest.mark.parametrize("as_view", [False, True], ids=["full", "view"])
def test_resealed_edits_load_or_raise_value_error(text, l, as_view, tmp_path):
    _resealed_edits_load_or_raise_value_error(text, l, as_view, tmp_path / "ks.npks")


@pytest.mark.parametrize("as_view", [False, True], ids=["full", "view"])
def test_resealed_hybrid_edits_load_or_raise_value_error(as_view, tmp_path):
    _resealed_edits_load_or_raise_value_error(HYBRID_ORDERS[0], 12, as_view,
                                              tmp_path / "ks.npks")


@pytest.mark.parametrize("field", ["group count", "set length", "length sum", "bit count"])
@pytest.mark.parametrize("as_view", [False, True], ids=["full", "view"])
def test_max_value_table_fields_raise_before_allocating(field, as_view, tmp_path):
    """A resealed group count of 2^32-1, set length of 0xFFFF, set lengths
    that each fit in the file but whose sum does not, or bit count of
    2^64-1 is refused before anything is sized from it."""
    _, full, view = _comb_files(tmp_path)
    raw = view if as_view else full
    tables = _tables(raw)
    count = struct.unpack_from("<I", raw, tables["count"])[0]
    fits = (len(raw) - tables["ids"]) // (4 * count) + 1
    assert 4 * fits < len(raw) - tables["ids"] < 4 * fits * count
    at, new = {"group count": (tables["count"], struct.pack("<I", 2**32 - 1)),
               "set length": (tables["lens"], struct.pack("<H", 0xFFFF)),
               "length sum": (tables["lens"], struct.pack(f"<{count}H", *[fits] * count)),
               "bit count": (tables["sizes"], struct.pack("<Q", 2**64 - 1))}[field]
    path = tmp_path / "bad.npks"
    path.write_bytes(reseal(_edit(raw, at, new)))
    loader = keystore_io.load_node_view if as_view else keystore_io.load
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overruns"):
            loader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_node_view_bit_values_match_the_store(tmp_path):
    ks, _, _ = _comb_files(tmp_path)
    view = keystore_io.load_node_view(tmp_path / "view.npks")
    for j in (1, 3, 4):
        common = view.common_bits(2, j)
        assert view.bit_values(common) == ks.bit_values(ks.common_bits(2, j))
    assert len(view.bit_values([])) == 0
    with pytest.raises(ValueError, match="does not hold"):
        view.bit_values([0, 8])  # bit 8 is in group (1,3,4)


@pytest.mark.parametrize("indices", [[-1], [16], [2**40], [0.5], [True], ["0"]])
def test_bit_values_refuse_indices_outside_the_pool(indices, tmp_path):
    # u = 16: a negative index must not wrap to the end of the pool, and a
    # non-integer must not be truncated to an index.
    ks, _, _ = _comb_files(tmp_path)
    view = keystore_io.load_node_view(tmp_path / "view.npks")
    for store in (ks, view):
        with pytest.raises(ValueError):
            store.bit_values(indices)


def test_bit_values_take_index_arrays(tmp_path):
    ks, _, _ = _comb_files(tmp_path)
    view = keystore_io.load_node_view(tmp_path / "view.npks")
    held = np.array(ks.node_bits(2), dtype=np.int64)
    assert ks.bit_values(held) == view.bit_values(held) == ks.bit_values(held.tolist())
    assert ks.bit_values(np.arange(ks.u, dtype=np.uint32)) == ks.pool
    with pytest.raises(ValueError, match="does not hold pool index 8"):
        view.bit_values(np.array([0, 8]))
