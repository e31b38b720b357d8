import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netpad import gf2
from netpad.gf2 import (
    BitMatrix,
    BitString,
    cross_independent,
    random_bernoulli_matrix,
    random_fixed_weight_matrix,
    sample_indices,
)

from helpers import py_rank, reference_sample_indices


# ---------------------------------------------------------------------------
# BitString


def test_bitstring_roundtrip_and_ops():
    s = BitString.from01("1011001")
    assert s.to01() == "1011001"
    assert len(s) == 7
    assert s.weight() == 4
    assert s[0] == 1 and s[1] == 0
    t = BitString.from01("1111111")
    assert (s ^ t).to01() == "0100110"
    assert s == BitString.from01("1011001")
    assert s != t


def test_bitstring_zeros_and_random():
    assert BitString.zeros(5).to01() == "00000"
    rng = np.random.default_rng(0)
    r = BitString.random(1000, rng)
    assert 400 < r.weight() < 600


def test_bitstring_xor_length_mismatch():
    with pytest.raises(ValueError):
        BitString.from01("101") ^ BitString.from01("10")


def test_bitstring_rejects_non_bits():
    with pytest.raises(ValueError):
        BitString([0, 2, 1])


# ---------------------------------------------------------------------------
# BitMatrix basics


@pytest.mark.parametrize("shape", [(0, 10), (3, 0), (5, 64), (5, 65), (7, 130)])
def test_packed_words_match_reference_layout(shape):
    # Row r is packed into one Python int, column c at bit c.
    dense = np.random.default_rng(2).integers(0, 2, size=shape, dtype=np.uint8)
    m = BitMatrix.from_dense(dense)
    assert m._rows == tuple(sum(int(bit) << c for c, bit in enumerate(row)) for row in dense)
    assert m.to_dense().shape == shape
    assert np.array_equal(m.to_dense(), dense)


def test_from_dense_to_dense_roundtrip():
    rng = np.random.default_rng(1)
    dense = rng.integers(0, 2, size=(7, 130), dtype=np.uint8)
    m = BitMatrix.from_dense(dense)
    assert m.shape == (7, 130)
    assert np.array_equal(m.to_dense(), dense)
    assert m.row(3) == BitString(dense[3])
    assert m.get(2, 129) == dense[2, 129]


def test_get_rejects_entries_outside_the_matrix():
    m = BitMatrix.from_dense(np.ones((2, 5), dtype=np.uint8))
    assert m.get(1, 4) == 1
    for i, j in [(0, 5), (0, -1), (2, 0), (-1, 0), (0, 64)]:
        with pytest.raises(IndexError):
            m.get(i, j)


def test_identity_and_vstack():
    eye = BitMatrix.from_dense(np.eye(5, dtype=np.uint8))
    assert eye.rank() == 5
    stacked = BitMatrix.vstack([eye, eye])
    assert stacked.shape == (10, 5)
    assert stacked.rank() == 5


def test_take_columns():
    dense = np.array([[1, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)
    m = BitMatrix.from_dense(BitMatrix.from_dense(dense).to_dense()[:, [3, 0]])
    assert np.array_equal(m.to_dense(), dense[:, [3, 0]])


def test_row_weights():
    m = random_fixed_weight_matrix(10, 300, 17, seed=3)
    assert np.all(m.to_dense().sum(axis=1) == 17)


# ---------------------------------------------------------------------------
# rank against the independent elimination oracle


def test_rank_frozen_value():
    # Frozen: 20x30 Bernoulli(0.5) matrix at seed 7 has full row rank.
    m = random_bernoulli_matrix(20, 30, 0.5, seed=7)
    assert m.rank() == 20
    assert py_rank(m.to_dense()) == 20


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 40, size=2)
    dense = (rng.random((rows, cols)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
    assert BitMatrix.from_dense(dense).rank() == py_rank(dense)


def test_rank_wide_matrix_spans_word_boundary():
    rng = np.random.default_rng(5)
    dense = rng.integers(0, 2, size=(50, 200), dtype=np.uint8)
    assert BitMatrix.from_dense(dense).rank() == py_rank(dense)


def test_rank_invariant_under_elementary_ops():
    rng = np.random.default_rng(9)
    dense = rng.integers(0, 2, size=(12, 20), dtype=np.uint8)
    base = BitMatrix.from_dense(dense).rank()
    swapped = dense[rng.permutation(12)]
    assert BitMatrix.from_dense(swapped).rank() == base
    added = dense.copy()
    added[3] ^= dense[7]
    assert BitMatrix.from_dense(added).rank() == base


def test_rank_ignores_bits_past_the_last_column():
    # A row with a bit at or past n_cols is refused where it enters, so no
    # rank or nullspace call sees one; the constructors build none.
    rng = np.random.default_rng(13)
    for rows, cols in [(40, 70), (90, 100), (10, 5), (70, 130)]:
        dense = (rng.random((rows, cols)) < 0.3).astype(np.uint8)
        dense[1] = dense[0]
        clean = BitMatrix.from_dense(dense)
        assert BitMatrix(cols, clean._rows) == clean
        for bit in (cols, cols + 1 + int(rng.integers(100))):
            padded = list(clean._rows)
            padded[int(rng.integers(rows))] |= 1 << bit
            with pytest.raises(ValueError, match="past column"):
                BitMatrix(cols, padded)
        with pytest.raises(ValueError, match="past column"):
            BitMatrix(cols, [*clean._rows, -1])
        idx = np.full((rows, int(dense.sum(axis=1).max())), cols)
        for r, row in enumerate(dense):
            ones = np.flatnonzero(row)
            idx[r, :ones.size] = ones
        scattered = BitMatrix.from_rows(idx, np.append(np.arange(cols), -1), cols)
        assert scattered == clean
        assert scattered.rank() == clean.rank() == py_rank(dense)
        assert scattered.left_nullspace_masks() == clean.left_nullspace_masks()


# ---------------------------------------------------------------------------
# left nullspace against the elimination oracle


def check_left_nullspace(dense) -> None:
    """The masks are nonzero, independent, as many as n_rows - rank, and
    each selects rows that XOR to zero."""
    n_rows = dense.shape[0]
    masks = BitMatrix.from_dense(dense).left_nullspace_masks()
    assert len(masks) == n_rows - py_rank(dense)
    for mask in masks:
        assert 0 < mask < 1 << n_rows
        chosen = [i for i in range(n_rows) if mask >> i & 1]
        assert not np.bitwise_xor.reduce(dense[chosen], axis=0).any()
    as_rows = [[mask >> i & 1 for i in range(n_rows)] for mask in masks]
    assert py_rank(as_rows) == len(masks)


@pytest.mark.parametrize("seed", range(20))
def test_left_nullspace_masks_random(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 80)), int(rng.integers(1, 150))
    check_left_nullspace((rng.random((rows, cols)) < rng.uniform(0.05, 0.7)).astype(np.uint8))


def test_left_nullspace_masks_of_dependent_rows():
    rng = np.random.default_rng(4)
    dense = rng.integers(0, 2, size=(12, 70), dtype=np.uint8)
    dense[2] = 0
    dense[5] = dense[9]
    dense[11] = dense[0] ^ dense[7]
    check_left_nullspace(dense)
    assert len(BitMatrix.from_dense(dense).left_nullspace_masks()) == 3


def test_left_nullspace_masks_edge_shapes():
    assert BitMatrix.zeros(0, 10).left_nullspace_masks() == []
    assert BitMatrix.zeros(4, 0).left_nullspace_masks() == [1, 2, 4, 8]
    assert BitMatrix.zeros(4, 0).rank() == 0
    check_left_nullspace(np.zeros((3, 0), dtype=np.uint8))


# ---------------------------------------------------------------------------
# matrix-vector product


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mul_is_linear(seed):
    rng = np.random.default_rng(seed)
    m = BitMatrix.from_dense(rng.integers(0, 2, size=(9, 70), dtype=np.uint8))
    v = BitString.random(70, rng)
    w = BitString.random(70, rng)
    assert m.mul(v ^ w) == m.mul(v) ^ m.mul(w)


def test_mul_matches_dense_arithmetic():
    rng = np.random.default_rng(13)
    dense = rng.integers(0, 2, size=(8, 100), dtype=np.uint8)
    v = rng.integers(0, 2, size=100, dtype=np.uint8)
    expected = (dense @ v) % 2
    got = BitMatrix.from_dense(dense).mul(BitString(v))
    assert np.array_equal(got.bits, expected)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        BitMatrix.from_dense(np.eye(3, dtype=np.uint8)).mul(BitString.zeros(4))


# ---------------------------------------------------------------------------
# random generators


def test_bernoulli_density_extremes():
    assert random_bernoulli_matrix(4, 9, 0.0, seed=0).to_dense().sum() == 0
    assert random_bernoulli_matrix(4, 9, 1.0, seed=0).to_dense().sum() == 36


def test_bernoulli_empirical_density():
    density = np.log(1000) / 1000
    m = random_bernoulli_matrix(1000, 1000, density, seed=2)
    ones = m.to_dense().sum()
    assert abs(ones / 1_000_000 - density) < 0.15 * density


def test_generators_deterministic():
    assert random_bernoulli_matrix(6, 50, 0.3, 42) == random_bernoulli_matrix(6, 50, 0.3, 42)
    assert random_fixed_weight_matrix(6, 50, 7, 42) == random_fixed_weight_matrix(6, 50, 7, 42)


def test_fixed_weight_validation():
    with pytest.raises(ValueError):
        random_fixed_weight_matrix(2, 5, 6, seed=0)


# ---------------------------------------------------------------------------
# the key sampler

# Upper 0.1% points of the chi-square distribution.
CHI2_999 = {5: 20.515, 14: 36.123}


def chi_square(counts: np.ndarray) -> float:
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2).sum() / expected)


@pytest.mark.parametrize("n_rows,n_cols,d", [
    (300, 8400, 128),  # redraw path
    (50, 200, 90),     # redraw path near 2d = n
    (40, 200, 100),    # sorted-keys path, 2d >= n
    (20, 7, 7),
])
def test_sample_indices_rows_are_sorted_distinct_subsets(n_rows, n_cols, d):
    idx = sample_indices(n_rows, n_cols, d, seed=4)
    assert idx.shape == (n_rows, d) and idx.dtype == np.int64
    assert idx.min() >= 0 and idx.max() < n_cols
    assert np.all(np.diff(idx, axis=1) > 0)
    assert np.array_equal(idx, sample_indices(n_rows, n_cols, d, seed=4))
    if d < n_cols:
        assert not np.array_equal(idx, sample_indices(n_rows, n_cols, d, seed=5))


def test_sample_indices_edges():
    assert sample_indices(5, 9, 0, seed=1).shape == (5, 0)
    assert sample_indices(0, 9, 3, seed=1).shape == (0, 3)
    assert np.array_equal(sample_indices(3, 6, 6, seed=1), np.tile(np.arange(6), (3, 1)))
    with pytest.raises(ValueError):
        sample_indices(2, 5, 6, seed=0)
    with pytest.raises(ValueError):
        sample_indices(2, 5, -1, seed=0)


@pytest.mark.parametrize("d", [2, 4])  # redraw path, sorted-keys path
def test_sample_indices_is_uniform(d):
    rows = 30_000
    idx = sample_indices(rows, 6, d, seed=11)
    subsets = {s: k for k, s in enumerate(itertools.combinations(range(6), d))}
    assert len(subsets) == 15
    counts = np.bincount([subsets[tuple(row)] for row in idx.tolist()], minlength=15)
    assert chi_square(counts) < CHI2_999[14]
    assert chi_square(np.bincount(idx.ravel(), minlength=6)) < CHI2_999[5]


def test_sample_indices_memory_is_linear_in_rows_times_d():
    tracemalloc.start()
    try:
        sample_indices(6300, 84000, 128, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # a dense 6300 x 84000 array needs 529 MB of uint8


def test_sample_indices_peak_memory_at_messaging_size():
    # One messaging key: 640 rows of d = 128 over |u_ij| = 8400.  The
    # first call imports numpy.random (about 0.75 MB), so it runs untraced.
    sample_indices(2, 10, 1, seed=0)
    tracemalloc.start()
    try:
        idx = sample_indices(640, 8400, 128, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * idx.nbytes  # the int64 result and a uint32 working copy


def test_sample_indices_peak_memory_at_audit_size():
    # One audit message: 70 rows of d = 128 over |u_ij| = 500, about 1100
    # repeats over six redraw rounds.  Warmed up as above, but with no
    # redraw, so that a first use of any helper in the rounds is traced.
    sample_indices(2, 10, 1, seed=0)
    tracemalloc.start()
    try:
        idx = sample_indices(70, 500, 128, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * idx.nbytes


def test_sample_indices_refills_its_spare_draw(monkeypatch):
    # Pairs where the reference loop redraws more values in all than the
    # first spare draw holds, so that the sampler draws again mid-call.
    refills = 0
    for shape in [(16, 10, 4), (32, 8, 3), (32, 10, 3), (32, 12, 4), (32, 15, 3),
                  (32, 60, 12)]:
        for seed in range(40):
            rounds = []
            expected = reference_sample_indices(*shape, seed, rounds=rounds)
            if rounds and sum(rounds) > gf2._spare_draws(rounds[0], *shape[1:]):
                refills += 1
                assert np.array_equal(sample_indices(*shape, seed), expected)
    assert refills >= 5
    # A spare of one value past each shortfall: every round draws again and
    # starts from the value the round before left over.
    monkeypatch.setattr(gf2, "_spare_draws", lambda repeats, n_cols, d: repeats + 1)
    for shape in [(70, 500, 128), (640, 8400, 128), (60, 40, 15), (30, 9, 4)]:
        for seed in range(3):
            assert np.array_equal(sample_indices(*shape, seed),
                                  reference_sample_indices(*shape, seed))


# sha256 of sample_indices(*shape, seed).tobytes(), recorded from the
# reference loop: the ciphertexts and the auditor's rows rest on this
# stream, so any rewrite of the sampler must keep it bit for bit.
SAMPLER_DIGESTS = {
    (640, 8400, 128): "44a2abd60d9f647a4bc72ec1fbbaafcef72b2cacee07390c98b4228ac01a8bef",
    (70, 500, 128): "1bbd3bd217cfae64d24c826fcb7266e214c81cc6b038e65bd0244c754ec07962",
    (1800, 2000, 128): "63ad61d484347e0a4af0e5f23b870b0a63f23a4aa9074a17a2de141a6dcfbc00",
    (200, 1000, 3): "2e6a60abc48cf785188beb18b3d9263182301140707c8bec5a2e8af9c1b63479",
    (20, 200, 150): "e694590809f767fd676b418831d11f21a111f748db51159143d5d90955ac0dea",
}


@pytest.mark.parametrize("shape", list(SAMPLER_DIGESTS))  # messaging, audit,
def test_sample_indices_stream_is_frozen(shape):  # criterion 6, small d, 2d >= n
    idx = sample_indices(*shape, seed=12)
    assert hashlib.sha256(idx.tobytes()).hexdigest() == SAMPLER_DIGESTS[shape]


@pytest.mark.parametrize("n_cols", [3, 7, 40, 500, 8400, 2**31 - 1, 2**31, 2**31 + 1,
                                    2**32 - 1, 2**32, 2**32 + 1, 2**40])
def test_sample_indices_matches_the_reference_loop(n_cols):
    # Small column counts redraw often; the large ones cross the 32-bit
    # draw boundary with few rows, so nothing large is allocated.
    rng = np.random.default_rng(n_cols % 997)
    for _ in range(25):
        d = int(rng.integers(0, min(n_cols, 130) + 1))
        n_rows = int(rng.integers(0, 60 if n_cols < 10**4 else 6))
        seed = int(rng.integers(2**63))
        idx = sample_indices(n_rows, n_cols, d, seed)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, reference_sample_indices(n_rows, n_cols, d, seed))


def test_fixed_weight_matrix_holds_the_sampled_indices():
    m = random_fixed_weight_matrix(30, 500, 40, seed=8)
    idx = sample_indices(30, 500, 40, seed=8)
    dense = np.zeros((30, 500), dtype=np.uint8)
    np.put_along_axis(dense, idx, 1, axis=1)
    assert np.array_equal(m.to_dense(), dense)
    assert m == BitMatrix.from_dense(dense)


def test_from_rows_matches_dense(monkeypatch):
    rng = np.random.default_rng(2)
    dense = (rng.random((7, 130)) < 0.3).astype(np.uint8)
    # Entry 130 of the column table is -1, so a position there sets nothing.
    # Each row lists its ones shuffled, every third one twice, and is padded
    # with entry 130.
    columns = np.append(np.arange(130), -1)
    width = 2 * int(dense.sum(axis=1).max())
    idx = np.full((7, width), 130)
    for r, row in enumerate(dense):
        ones = np.flatnonzero(row)
        ones = rng.permutation(np.concatenate([ones, ones[::3]]))
        idx[r, :ones.size] = ones
        idx[r] = rng.permutation(idx[r])
    assert BitMatrix.from_rows(idx, columns, 130) == BitMatrix.from_dense(dense)
    # One row per chunk.
    monkeypatch.setattr(gf2, "_SCATTER_BYTES", 1)
    assert BitMatrix.from_rows(idx, columns, 130) == BitMatrix.from_dense(dense)
    none = np.zeros(0, dtype=np.int64)
    assert BitMatrix.from_rows(np.zeros((3, 0), int), none, 0) == BitMatrix.zeros(3, 0)
    assert BitMatrix.from_rows(np.zeros((0, 2), int), np.array([1]), 4) == BitMatrix.zeros(0, 4)
    for bad in (4, -2):
        with pytest.raises(ValueError):
            BitMatrix.from_rows(np.zeros((1, 1), int), np.array([bad]), 4)


# ---------------------------------------------------------------------------
# cross-independence


def brute_force_cross_independent(blocks) -> bool:
    """Scan every row subset: the XOR of each one, built from the subset
    without its top row, and the blocks its rows fall in."""
    rows = [int("".join(map(str, row[::-1])) or "0", 2) for b in blocks for row in b.to_dense()]
    owner = [k for k, b in enumerate(blocks) for _ in range(b.n_rows)]
    xor, seen = [0], [0]
    for row, k in zip(rows, owner):
        xor += [x ^ row for x in xor]
        seen += [s | 1 << k for s in seen]
    everyone = (1 << len(blocks)) - 1
    return not any(x == 0 and s == everyone for x, s in zip(xor[1:], seen[1:]))


@pytest.mark.parametrize("seed", range(15))
def test_cross_independent_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_blocks = int(rng.integers(1, 4))
    cols = int(rng.integers(2, 8))
    blocks = [
        BitMatrix.from_dense(rng.integers(0, 2, size=(int(rng.integers(1, 4)), cols),
                                          dtype=np.uint8))
        for _ in range(n_blocks)
    ]
    assert cross_independent(blocks) == brute_force_cross_independent(blocks)


def test_full_row_rank_implies_cross_independent():
    rng = np.random.default_rng(21)
    dense = rng.integers(0, 2, size=(10, 40), dtype=np.uint8)
    m = BitMatrix.from_dense(dense)
    if m.rank() == 10:
        blocks = [BitMatrix.from_dense(dense[:5]), BitMatrix.from_dense(dense[5:])]
        assert cross_independent(blocks)


def test_cross_independent_detects_cross_block_dependency():
    # Row 0 of block A equals row 0 of block B: their XOR is zero and
    # touches both blocks.
    row = np.array([[1, 0, 1]], dtype=np.uint8)
    a = BitMatrix.from_dense(np.vstack([row, [[0, 1, 0]]]))
    b = BitMatrix.from_dense(row)
    assert not cross_independent([a, b])


def test_cross_independent_ignores_within_block_dependency():
    # Block A is internally dependent (duplicate rows), but no zero-sum
    # selection touches both blocks.
    a = BitMatrix.from_dense(np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8))
    b = BitMatrix.from_dense(np.array([[0, 0, 1]], dtype=np.uint8))
    assert cross_independent([a, b])


def test_cross_independent_fallback_uses_rank():
    # A stack of full row rank has no zero-sum selection at all, so one
    # rank call decides it, at any size.
    rng = np.random.default_rng(3)
    dense = rng.integers(0, 2, size=(30, 200), dtype=np.uint8)
    blocks = [BitMatrix.from_dense(dense[:15]), BitMatrix.from_dense(dense[15:])]
    assert BitMatrix.from_dense(dense).rank() == 30
    assert cross_independent(blocks)


@pytest.mark.parametrize("seed", range(8))
def test_cross_independent_matches_brute_force_up_to_16_rows(seed):
    rng = np.random.default_rng([seed, 16])
    verdicts = set()
    for _ in range(40):
        n_blocks = int(rng.integers(1, 5))
        sizes = rng.integers(1, 5, size=n_blocks)
        cols = int(rng.integers(2, 12))
        blocks = [BitMatrix.from_dense(rng.integers(0, 2, size=(int(k), cols), dtype=np.uint8))
                  for k in sizes]
        verdict = cross_independent(blocks)
        assert verdict == brute_force_cross_independent(blocks)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cross_independent_is_exact_past_full_rank():
    # Blocks of 13 and 14 rows; block A repeats one of its own rows, so the
    # stack has rank 26 of 27 and its only zero-sum selection stays inside
    # A: cross-independent, though a full-rank test would say otherwise.
    rng = np.random.default_rng(27)
    a = rng.integers(0, 2, size=(13, 60), dtype=np.uint8)
    a[12] = a[3]
    b = rng.integers(0, 2, size=(14, 60), dtype=np.uint8)
    assert BitMatrix.from_dense(np.vstack([a, b])).rank() == 26
    assert cross_independent([BitMatrix.from_dense(a), BitMatrix.from_dense(b)])
    b[0] = a[5]  # now a selection across both blocks XORs to zero
    assert not cross_independent([BitMatrix.from_dense(a), BitMatrix.from_dense(b)])


@pytest.mark.parametrize("rows", [24, 200])
def test_cross_independent_of_zero_rows_is_small(rows):
    # The nullspace has dimension rows; an enumeration of it needed 2^rows.
    blocks = [BitMatrix.zeros(rows // 2, 50), BitMatrix.zeros(rows - rows // 2, 50)]
    tracemalloc.start()
    try:
        assert not cross_independent(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_cross_independent_validation():
    with pytest.raises(ValueError):
        cross_independent([])
    with pytest.raises(ValueError):
        cross_independent([BitMatrix.zeros(0, 3)])


def test_bitstring_bytes_roundtrip():
    bits = BitString.from01("1011000011")
    raw = bits.to_bytes()
    assert raw == bytes([0b00001101, 0b00000011])  # little-endian within bytes
    assert BitString.from_bytes(raw, 10) == bits
    assert len(BitString.from_bytes(raw)) == 16
