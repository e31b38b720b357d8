import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from netpad import keystore_io, predistribution
from netpad.gf2 import BitString
from netpad.permutation import PermutationFamily
from netpad.predistribution import (
    GroupIndex,
    KeyStore,
    SchemeSpec,
    first_copies,
    generate,
    pool_size,
    random_holdings,
    random_regular_groups,
)

from helpers import dense_random_holdings, holders_by_index, pair_index_sets, union_size_oracle

GRID = [
    ("pairwise", 4, 9),
    ("pairwise", 6, 10),
    ("same", 4, 7),
    ("comb:a=3", 4, 12),
    ("comb:a=3", 5, 12),
    ("comb:a=4", 6, 20),
    ("sampled:a=3,m=4", 4, 9),
    ("random:p=1/2", 4, 10),
    ("random:p=1/4", 5, 8),
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 12),
]


# ---------------------------------------------------------------------------
# scheme specs


@pytest.mark.parametrize("text", [
    "pairwise", "same", "comb:a=3", "sampled:a=3,m=4", "random:p=1/2",
    "hybrid:lambda=1/2,(pairwise),(comb:a=25)",
])
def test_parse_canonical_roundtrip(text):
    assert SchemeSpec.parse(text).canonical() == text


@pytest.mark.parametrize("text", [
    "nonsense", "comb:b=3", "hybrid:lambda=1/2,(pairwise)", "random:q=1/2",
    "sampled:b=3,m=4", "sampled:a=3", "random:p=1/0", "hybrid:lambda=1/0,(pairwise),(same)",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        SchemeSpec.parse(text)


def test_validate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SchemeSpec.parse("comb:a=5").validate(4)
    with pytest.raises(ValueError):
        SchemeSpec.parse("random:p=0").validate(4)
    with pytest.raises(ValueError):
        SchemeSpec.parse("sampled:a=3,m=4").validate(5)  # a*m not divisible by n
    with pytest.raises(ValueError):
        SchemeSpec.parse(
            "hybrid:lambda=1/2,(hybrid:lambda=1/2,(pairwise),(same)),(same)"
        ).validate(4)


def test_symmetry_flags():
    assert SchemeSpec.parse("pairwise").is_symmetric()
    assert SchemeSpec.parse("random:p=1/2").is_symmetric()
    assert not SchemeSpec.parse("sampled:a=3,m=4").is_symmetric()
    assert not SchemeSpec.parse(
        "hybrid:lambda=1/2,(pairwise),(sampled:a=3,m=4)"
    ).is_symmetric()


# ---------------------------------------------------------------------------
# generation: structure vs pool-scan oracle


@pytest.mark.parametrize("text,n,l", GRID)
def test_groups_match_location_scan(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=17)
    holders = holders_by_index(ks)
    # Every group's indices are held by exactly the group's nodes.
    seen = set()
    for nodes, idx in ks.groups.items():
        for k in idx:
            assert holders[k] == set(nodes)
            assert k not in seen
            seen.add(k)
    # Unassigned pool bits (random scheme can have them) have <= 1 holder
    # only if never grouped; grouped bits cover every multi-holder bit.
    for k in range(ks.u):
        if k not in seen:
            assert len(holders[k]) == 0


@pytest.mark.parametrize("text,n,l", GRID)
def test_node_budget_respected(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=17)
    for node in range(1, n + 1):
        bits = ks.node_bits(node)
        assert len(bits) <= l
        locs = ks.locations(node)
        assert sorted(locs) == bits
        values = list(locs.values())
        assert len(set(values)) == len(values)  # distinct storage slots
        assert all(1 <= v <= l for v in values)


@pytest.mark.parametrize("text,n,l", GRID)
def test_common_bits_match_scan(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=17)
    pairs = pair_index_sets(ks)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        assert ks.common_bits(i, j) == sorted(pairs[(i, j)])


@pytest.mark.parametrize("text,n,l", GRID)
def test_unhacked_union_matches_scan(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=17)
    channels = [(1, 2), (1, 3)]
    for hacked in [(), (n,)]:
        assert ks.unhacked_union_size(channels, hacked) == union_size_oracle(
            ks, channels, hacked
        )


def test_combinational_shape():
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=0)
    group_size = 1260 // comb(3, 2)
    assert group_size == 420
    assert set(ks.groups) == set(itertools.combinations(range(1, 5), 3))
    assert all(len(idx) == group_size for idx in ks.groups.values())
    # |u_ij| = C(n-2, a-2) * group size
    assert len(ks.common_bits(1, 2)) == comb(2, 1) * group_size
    assert ks.u == comb(4, 3) * group_size


def test_pairwise_shape():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 9, seed=0)
    assert set(ks.groups) == set(itertools.combinations(range(1, 5), 2))
    assert all(len(idx) == 3 for idx in ks.groups.values())
    assert len(ks.node_bits(2)) == 9


def test_same_shape():
    ks = generate(SchemeSpec.parse("same"), 5, 7, seed=0)
    assert set(ks.groups) == {(1, 2, 3, 4, 5)}
    assert ks.u == 7
    assert ks.common_bits(2, 4) == list(range(7))


def test_strict_mode_rejects_remainder():
    with pytest.raises(ValueError):
        generate(SchemeSpec.parse("comb:a=3"), 4, 10, seed=0, strict=True)
    generate(SchemeSpec.parse("comb:a=3"), 4, 9, seed=0, strict=True)


def test_floor_quota_when_not_strict():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 10, seed=0)
    assert all(len(idx) == 3 for idx in ks.groups.values())
    assert len(ks.node_bits(1)) == 9  # one budget bit unused


def test_random_scheme_locations_follow_permutation(tmp_path):
    ks = generate(SchemeSpec.parse("random:p=1/2"), 4, 20, seed=3)
    assert ks.u == 40
    # A family rebuilt from the public seed gives every storage slot: slot s
    # of node i holds the table's entry (i, s), and F maps it back to s.
    perm = PermutationFamily(ks.u, ks.n, ks.l, [ks.seed, 0])
    for node in range(1, 5):
        row = perm.table[node - 1].tolist()
        assert ks.locations(node) == {k: slot for slot, k in enumerate(row, start=1)}
        for k, loc in ks.locations(node).items():
            assert perm.permute(k + 1, node) == loc <= ks.l
    # Every pool bit held ~ p of the time.
    total = sum(len(ks.locations(i)) for i in range(1, 5))
    assert abs(total / (4 * 40) - 0.5) < 0.15
    # Full-pool scan: node i holds exactly the k with F(k+1, i) <= l, in a
    # generated store and in one read back from disk.
    keystore_io.save(ks, tmp_path / "random.npks")
    for store in (ks, keystore_io.load(tmp_path / "random.npks")):
        for node in range(1, 5):
            scan = [k for k in range(ks.u) if perm.permute(k + 1, node) <= ks.l]
            assert store.node_bits(node) == scan


@pytest.mark.parametrize("text", ["random:p=1/2", "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
def test_random_parts_keep_one_slot_table(text, tmp_path):
    """Each random part's family keeps the read-only n x l slot table that
    keygen drew, the table a fresh family draws from the part's seed, so
    a caller cannot change it and slots reads it without a second draw."""
    ks = generate(SchemeSpec.parse(text), 4, 12, seed=5)
    (part,) = [p for p in ks.parts if p.perm]
    assert part.start == (0 if text.startswith("random") else 8)
    table = part.perm.table
    assert table.shape == (4, part.l) and not table.flags.writeable
    fresh = PermutationFamily(part.u, 4, part.l, part.perm.master_seed)
    assert np.array_equal(fresh.table, table)
    for node in range(1, 5):
        held, slots = ks.slots(node)
        mine = (held >= part.start) & (held < part.start + part.u)
        assert np.array_equal(held[mine][np.argsort(slots[mine])], table[node - 1] + part.start)
    assert part.perm.table is table
    keystore_io.save(ks, tmp_path / "ks.npks")
    loaded = keystore_io.load(tmp_path / "ks.npks")
    for node in range(1, 5):
        assert all(map(np.array_equal, loaded.slots(node), ks.slots(node)))


# Random and hybrid stores, from p = 1 (every node holds every bit) to
# p = 1/1000 (most bits held by one node or none), up to n = 32.
HOLDINGS = [
    ("random:p=1", 4, 6),
    ("random:p=1", 32, 5),
    ("random:p=1/3", 5, 12),
    ("random:p=1/3", 32, 20),
    ("random:p=1/1000", 8, 6),
    ("random:p=1/1000", 32, 10),
    ("hybrid:lambda=1/2,(comb:a=3),(random:p=1/3)", 6, 24),
    ("hybrid:lambda=1/3,(random:p=1/1000),(pairwise)", 16, 30),
    ("hybrid:lambda=1/2,(random:p=1),(random:p=1/3)", 8, 12),
]


@pytest.mark.parametrize("text,n,l", HOLDINGS)
def test_random_holdings_match_the_dense_table(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=12)
    perms = [part.perm for part in ks.parts if part.perm]
    assert perms
    for perm in perms:
        found, dense = random_holdings(perm), dense_random_holdings(perm.table, perm.u)
        assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(found, dense))
        if perm.u == perm.l:  # p = 1: one group of every node holds every bit
            held, counts, holders = found
            assert held.tolist() == list(range(perm.u)) and counts.tolist() == [n] * perm.u
            assert holders.tolist() == list(range(1, n + 1)) * perm.u


@pytest.mark.parametrize("text,n,l", HOLDINGS)
def test_random_groups_match_the_dense_table(text, n, l, monkeypatch):
    # Keygen with random_groups built from the dense table gives a store
    # whose index arrays equal the sorted holdings' exactly.
    spec = SchemeSpec.parse(text)
    ks = generate(spec, n, l, seed=12)

    def dense_groups(perm):
        held, counts, holders = dense_random_holdings(perm.table, perm.u)
        return predistribution._merged(counts, holders, held, np.arange(held.size))
    monkeypatch.setattr(predistribution, "random_groups", dense_groups)
    dense = generate(spec, n, l, seed=12).index
    for field in ("set_sizes", "set_nodes", "indices", "group_ids"):
        assert np.array_equal(getattr(ks.index, field), getattr(dense, field)), field
        assert getattr(ks.index, field).dtype == getattr(dense, field).dtype


def test_random_holdings_keys_fit_64_bits():
    # bit * n + node - 1 near u = 2^32 and n = 2^21 + 3: the keys pass 2^53,
    # where a float64 key would round odd keys away.  Node i holds bit
    # 2^32 - i alone.
    n = 2**21 + 3
    perm = type("Perm", (), {"n": n, "table": 2**32 - np.arange(1, n + 1)[:, None]})
    held, counts, holders = random_holdings(perm)
    assert np.array_equal(held, 2**32 - np.arange(n, 0, -1))
    assert np.all(counts == 1) and np.array_equal(holders, np.arange(n, 0, -1))


@pytest.mark.parametrize("text", ["random:p=1/2", "sampled:a=3,m=4",
                                  "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
def test_a_store_made_from_a_seed_sequence_replays_from_its_seed(text):
    # The sequence folds to a 63-bit seed, which generate keeps as it is.
    spec = SchemeSpec.parse(text)
    ks = generate(spec, 4, 12, seed=[3, 9])
    again = generate(spec, 4, 12, ks.seed)
    assert 0 <= ks.seed < 2**63 and again.seed == ks.seed
    assert again.pool == ks.pool and again.index == ks.index


@pytest.mark.parametrize("text,n,l", GRID + [
    ("pairwise", 6, 4),  # quota 5 > l: no groups
    ("random:p=2/3", 5, 7),
    ("hybrid:lambda=1/3,(random:p=1/3),(sampled:a=3,m=4)", 4, 40),
    ("hybrid:lambda=0,(random:p=1/2),(comb:a=3)", 4, 30),
    ("hybrid:lambda=1,(random:p=1/2),(comb:a=3)", 4, 30),
])
def test_pool_size_matches_generate(text, n, l):
    spec = SchemeSpec.parse(text)
    assert pool_size(spec, n, l) == generate(spec, n, l, seed=4).u


@pytest.mark.parametrize("text", [
    "pairwise", "same", "comb:a=3", "sampled:a=3,m=4", "random:p=1/2",
    "hybrid:lambda=1/2,(sampled:a=3,m=4),(random:p=1/2)",
])
def test_node_ids_are_python_ints(text):
    ks = generate(SchemeSpec.parse(text), 4, 24, seed=6)
    node_sets = list(ks.index.groups())
    assert node_sets
    assert all(type(node) is int for nodes in node_sets for node in nodes)


def test_random_scheme_determinism():
    a = generate(SchemeSpec.parse("random:p=1/3"), 5, 12, seed=8)
    b = generate(SchemeSpec.parse("random:p=1/3"), 5, 12, seed=8)
    assert a.groups == b.groups and a.pool == b.pool


def test_sampled_scheme_regularity():
    ks = generate(SchemeSpec.parse("sampled:a=3,m=4"), 4, 9, seed=5)
    degree = 3 * 4 // 4
    counts = {i: 0 for i in range(1, 5)}
    for nodes in ks.groups:
        assert len(nodes) == 3
        for i in nodes:
            counts[i] += 1
    assert all(c == degree for c in counts.values())
    assert len(ks.groups) == 4


def test_hybrid_concatenates_parts():
    spec = SchemeSpec.parse("hybrid:lambda=1/2,(pairwise),(comb:a=3)")
    ks = generate(spec, 4, 12, seed=2)
    assert ks.l == 12
    # Each child is generated with its budget and seed [seed, 2 + k].
    children = [generate(child, 4, 6, [2, 2 + k]) for k, child in enumerate(spec.parts)]
    assert ks.pool == BitString(np.concatenate([child.pool.bits for child in children]))
    assert ks.u == sum(child.u for child in children)
    assert len(ks.node_bits(1)) == sum(len(child.node_bits(1)) for child in children)
    start = 0
    for child in children:
        # The hybrid's groups cut to the child's pool range are the child's.
        cut = {nodes: [k - start for k in idx if start <= k < start + child.u]
               for nodes, idx in ks.groups.items()}
        assert {nodes: idx for nodes, idx in cut.items() if idx} == child.groups
        start += child.u
    # Pairwise part: 6 bits over pairs; comb part: 6 bits over triples.
    pair_groups = [g for g in ks.groups if len(g) == 2]
    triple_groups = [g for g in ks.groups if len(g) == 3]
    assert len(pair_groups) == 6 and len(triple_groups) == 4


def test_bit_values_read_the_pool():
    ks = generate(SchemeSpec.parse("pairwise"), 3, 4, seed=1)
    idx = ks.common_bits(1, 2)
    assert ks.bit_values(idx).to01() == "".join(
        str(ks.pool[k]) for k in idx
    )


def test_generate_validation():
    with pytest.raises(ValueError):
        generate(SchemeSpec.parse("pairwise"), 1, 4, seed=0)
    with pytest.raises(ValueError):
        generate(SchemeSpec.parse("pairwise"), 4, 0, seed=0)


def test_keystore_query_validation():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    with pytest.raises(ValueError):
        ks.common_bits(1, 1)
    with pytest.raises(ValueError):
        ks.node_bits(5)
    with pytest.raises(ValueError):
        ks.unhacked_common_indices([(1, 2)], [2])


def test_random_regular_groups_properties():
    groups = random_regular_groups(6, 3, 4, seed=0)
    assert len(set(groups)) == 4
    counts = {i: 0 for i in range(1, 7)}
    for g in groups:
        assert len(set(g)) == 3
        for i in g:
            counts[i] += 1
    assert all(c == 2 for c in counts.values())
    with pytest.raises(ValueError):
        random_regular_groups(6, 3, 5, seed=0)
    with pytest.raises(ValueError, match="m >= 1"):
        random_regular_groups(6, 3, 0, seed=0)


def test_group_indexes_are_equal_as_their_groups_dicts():
    # Equal when the same node sets hold the same indices, whatever the
    # record order; a renamed node set, a moved bit or an extra empty
    # group makes them differ, as it does their groups dicts.
    def index(node_sets, group_ids, indices=(0, 1, 2)):
        return GroupIndex.of(node_sets, indices, group_ids)

    base = index([(1, 2), (1, 3)], [0, 1, 1])
    variants = [index([(1, 3), (1, 2)], [1, 0, 0]), index([(1, 2), (2, 3)], [0, 1, 1]),
                index([(1, 2), (1, 3)], [0, 0, 1]), index([(1, 2), (1, 3), (2, 3)], [0, 1, 1]),
                index([(1, 2), (1, 3)], [0, 1, 1], (0, 1, 3))]
    for other in variants:
        assert (base == other) == (base.groups() == other.groups())
        assert (other == base) == (base == other)
    assert base == variants[0] and not any(base == other for other in variants[1:])


def test_first_copies_matches_a_tuple_oracle(monkeypatch):
    # Node sets of 0 to 3 ids, some near 2^32, with many repeats; then again
    # with every id mixed to 0, so that all sets of one length collide and
    # only the comparison of the sets themselves decides.
    rng = np.random.default_rng(5)
    ids = np.array([1, 2, 3, 4, 5, 2**32 - 2, 2**32 - 1])
    node_sets = [tuple(sorted(rng.choice(ids, size=rng.integers(0, 4), replace=False).tolist()))
                 for _ in range(300)]
    expected = [node_sets.index(nodes) for nodes in node_sets]
    index = GroupIndex.of(node_sets, [], [])
    assert first_copies(index.set_sizes, index.set_nodes).tolist() == expected
    monkeypatch.setattr(predistribution, "_mixed", lambda ids: np.zeros(ids.size, np.uint64))
    assert first_copies(index.set_sizes, index.set_nodes).tolist() == expected
