import tracemalloc

import numpy as np
import pytest

from netpad import permutation
from netpad.permutation import PermutationFamily, _seed_int

from helpers import feistel_map


@pytest.mark.parametrize("u", [1, 2, 7, 64, 1000, 1024])
def test_permute_is_a_bijection(u):
    fam = PermutationFamily(u, 3, master_seed=11)
    for node in (1, 3):
        image = {fam.permute(k, node) for k in range(1, u + 1)}
        assert image == set(range(1, u + 1))


@pytest.mark.parametrize("u", [1, 2, 7, 64, 1000, 1024])
def test_lanes_match_the_per_index_map(u):
    fam = PermutationFamily(u, 3, master_seed=11)
    for node in (1, 2, 3):
        forward = [feistel_map(u, 11, node, k) for k in range(1, u + 1)]
        backward = [feistel_map(u, 11, node, s, inverse=True) for s in range(1, u + 1)]
        assert [fam.permute(k, node) for k in range(1, u + 1)] == forward
        assert fam.invert_all(node, u).tolist() == backward
        assert fam.invert_all(node, u // 2).tolist() == backward[:u // 2]
    for node in (0, 4):
        with pytest.raises(ValueError, match="node"):
            fam.permute(1, node)
        with pytest.raises(ValueError, match="node"):
            fam.invert_all(node, 1)
    for l in (-1, u + 1):
        with pytest.raises(ValueError, match="slot count"):
            fam.invert_all(1, l)


def test_invert_undoes_permute():
    fam = PermutationFamily(500, 4, master_seed=5)
    for node in range(1, 5):
        inverse = fam.invert_all(node, 500)
        for k in range(1, 501, 7):
            assert inverse[fam.permute(k, node) - 1] == k
            assert fam.permute(int(inverse[k - 1]), node) == k


def test_deterministic_across_instances():
    a = PermutationFamily(300, 2, master_seed=9)
    b = PermutationFamily(300, 2, master_seed=9)
    assert [a.permute(k, 1) for k in range(1, 301)] == [
        b.permute(k, 1) for k in range(1, 301)
    ]


def test_nodes_get_distinct_permutations():
    fam = PermutationFamily(200, 2, master_seed=1)
    m1 = [fam.permute(k, 1) for k in range(1, 201)]
    m2 = [fam.permute(k, 2) for k in range(1, 201)]
    assert m1 != m2


def test_seed_changes_the_mapping():
    a = PermutationFamily(200, 1, master_seed=1)
    b = PermutationFamily(200, 1, master_seed=2)
    assert [a.permute(k, 1) for k in range(1, 201)] != [
        b.permute(k, 1) for k in range(1, 201)
    ]


def test_domain_and_node_validation():
    fam = PermutationFamily(10, 2, master_seed=0)
    with pytest.raises(ValueError):
        fam.permute(0, 1)
    with pytest.raises(ValueError):
        fam.permute(11, 1)
    with pytest.raises(ValueError):
        fam.permute(1, 3)
    with pytest.raises(ValueError):
        PermutationFamily(0, 1, master_seed=0)


def test_seed_int_accepts_ints_and_sequences():
    assert _seed_int(5) == 5
    assert _seed_int([1, 2]) == _seed_int([1, 2])
    assert _seed_int([1, 2]) != _seed_int([1, 3])


def test_invert_all_over_many_nodes_is_one_row_per_node():
    fam = PermutationFamily(100, 4, master_seed=3)
    rows = fam.invert_all([1, 2, 4], 30)
    assert rows.shape == (3, 30)
    assert [r.tolist() for r in rows] == [fam.invert_all(i, 30).tolist() for i in (1, 2, 4)]
    assert fam.invert_all([1, 2], 0).shape == (2, 0)
    with pytest.raises(ValueError, match="node"):
        fam.invert_all([1, 5], 0)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_the_walk_does_not_depend_on_its_chunk(chunk, monkeypatch):
    # Lanes admitted a few at a time, rows split across admissions, walk to
    # the per-index map's values.
    monkeypatch.setattr(permutation, "_CHUNK", chunk)
    fam = PermutationFamily(100, 3, master_seed=11)
    expected = [[feistel_map(100, 11, node, s, inverse=True) for s in range(1, 41)]
                for node in (1, 2, 3)]
    assert fam.invert_all([1, 2, 3], 40).tolist() == expected
    assert [fam.permute(k, 2) for k in (1, 50, 100)] == [feistel_map(100, 11, 2, k)
                                                          for k in (1, 50, 100)]


def test_invert_all_memory_is_bounded_by_its_table():
    # n*l = 640k lanes: the kept table and the returned copy are 5.12 MB
    # each, and the walk's temporaries stay within a fixed number of lanes.
    fam = PermutationFamily(40000, 32, master_seed=3)
    tracemalloc.start()
    try:
        table = fam.invert_all(np.arange(1, 33), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (32, 20000)
    assert peak <= 3 * table.nbytes + 8 * 2**20
