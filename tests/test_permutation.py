import tracemalloc
from collections import Counter

import numpy as np
import pytest

from netpad.permutation import PermutationFamily, _seed_int

from helpers import slot_map


@pytest.mark.parametrize("u", [1, 2, 7, 64, 1000, 1024])
def test_permute_is_a_bijection(u):
    # F(., i) permutes 1..u, and F(k, i) <= l exactly on the k node i holds.
    l = u // 2
    fam = PermutationFamily(u, 3, l, master_seed=11)
    for node in (1, 3):
        image = [fam.permute(k, node) for k in range(1, u + 1)]
        assert sorted(image) == list(range(1, u + 1))
        held = set(fam.table[node - 1].tolist())
        assert {k for k in range(1, u + 1) if image[k - 1] <= l} == {k + 1 for k in held}


@pytest.mark.parametrize("u", [1, 2, 7, 64, 1000, 1024])
def test_lanes_match_the_per_index_map(u):
    # Each table row is an ordered l-subset of 0..u-1, and permute answers
    # as the per-index map built from that row in plain Python.
    fam = PermutationFamily(u, 3, u // 2, master_seed=11)
    assert fam.table.shape == (3, u // 2) and fam.table.dtype == np.int64
    for node in (1, 2, 3):
        row = fam.table[node - 1].tolist()
        assert len(set(row)) == len(row) and all(0 <= k < u for k in row)
        assert [fam.permute(k, node) for k in range(1, u + 1)] == slot_map(row, u)
    for node in (0, 4):
        with pytest.raises(ValueError, match="node"):
            fam.permute(1, node)
    for l in (-1, u + 1):
        with pytest.raises(ValueError, match="slot count"):
            PermutationFamily(u, 3, l, master_seed=11)


def test_invert_undoes_permute():
    fam = PermutationFamily(500, 4, 500, master_seed=5)
    for node in range(1, 5):
        row = fam.table[node - 1]
        for k in range(1, 501, 7):
            assert row[fam.permute(k, node) - 1] == k - 1
            assert fam.permute(int(row[k - 1]) + 1, node) == k


def test_deterministic_across_instances():
    a = PermutationFamily(300, 2, 100, master_seed=9)
    b = PermutationFamily(300, 2, 100, master_seed=9)
    assert np.array_equal(a.table, b.table)
    assert [a.permute(k, 1) for k in range(1, 301)] == [
        b.permute(k, 1) for k in range(1, 301)
    ]


def test_nodes_get_distinct_permutations():
    fam = PermutationFamily(200, 2, 100, master_seed=1)
    m1 = [fam.permute(k, 1) for k in range(1, 201)]
    m2 = [fam.permute(k, 2) for k in range(1, 201)]
    assert m1 != m2


def test_seed_changes_the_mapping():
    a = PermutationFamily(200, 1, 100, master_seed=1)
    b = PermutationFamily(200, 1, 100, master_seed=2)
    assert [a.permute(k, 1) for k in range(1, 201)] != [
        b.permute(k, 1) for k in range(1, 201)
    ]


def test_domain_and_node_validation():
    fam = PermutationFamily(10, 2, 5, master_seed=0)
    with pytest.raises(ValueError):
        fam.permute(0, 1)
    with pytest.raises(ValueError):
        fam.permute(11, 1)
    with pytest.raises(ValueError):
        fam.permute(1, 3)
    with pytest.raises(ValueError):
        PermutationFamily(0, 1, 0, master_seed=0)
    with pytest.raises(ValueError):
        PermutationFamily(10, 0, 5, master_seed=0)


def test_seed_int_accepts_ints_and_sequences():
    assert _seed_int(5) == 5
    assert _seed_int(-1) == _seed_int(2**63 - 1) == 2**63 - 1
    assert _seed_int([1, 2]) == _seed_int([1, 2])
    assert _seed_int([1, 2]) != _seed_int([1, 3])
    # A folded sequence is masked to 63 bits like an int, so it folds to itself.
    for seed in ([1, 2], [3, 9], [0, 2**64 - 1]):
        assert 0 <= _seed_int(seed) < 2**63
        assert _seed_int(_seed_int(seed)) == _seed_int(seed)


def test_table_is_one_row_per_node():
    fam = PermutationFamily(100, 4, 30, master_seed=3)
    assert fam.table.shape == (4, 30)
    assert fam.table is fam.table  # drawn once and kept
    with pytest.raises(ValueError):
        fam.table[0, 0] = 0  # read-only: no caller can change another's slots
    assert PermutationFamily(100, 4, 0, master_seed=3).table.shape == (4, 0)


def test_slots_are_uniform_ordered_pairs():
    # u=4, l=2, n=1: each of the 12 ordered pairs of distinct indices is
    # node 1's (slot 1, slot 2) with probability 1/12.  Over 6000 seeds the
    # expected count is 500 with standard deviation sqrt(6000 * 1/12 * 11/12)
    # = 21.4; each count must lie within 500 +- 110 (about 5.1 deviations).
    seeds = 6000
    pairs = Counter(tuple(PermutationFamily(4, 1, 2, master_seed=seed).table[0].tolist())
                    for seed in range(seeds))
    assert sorted(pairs) == [(a, b) for a in range(4) for b in range(4) if a != b]
    assert all(abs(count - seeds / 12) <= 110 for count in pairs.values()), pairs


def test_slot_table_memory_is_bounded_by_its_size():
    # n*l = 640k slots: the table is 5.12 MB, and each node's draw adds one
    # row and numpy's scratch for it (u = 40000 indices for a tail shuffle).
    fam = PermutationFamily(40000, 32, 20000, master_seed=3)
    tracemalloc.start()
    try:
        table = fam.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (32, 20000)
    assert peak <= table.nbytes + 2 * 2**20
