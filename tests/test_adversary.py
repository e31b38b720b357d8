import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from netpad import amplify
from netpad.adversary import (
    Transcript,
    build_security_matrix,
    conditional_mi,
    cross_independence_experiment,
    exact_mi_oracle,
    full_rank_experiment,
    lemma_rank_experiment,
    wilson_interval,
)
from netpad.gf2 import BitString
from netpad.predistribution import SchemeSpec, generate
from netpad.rates import NetworkParams, capacity
from netpad.secure_check import RateProfile

from helpers import holders_by_index, py_rank


def first_ciphertext(ks, channel, d, plaintext, seed):
    """What encrypt sends first on channel with this seed, built directly,
    so that it may carry more key bits than the |u_ij| encrypt allows: the
    rank-deficient transcripts the oracle comparisons need."""
    state = amplify.ChannelCipherState(*channel, d=d)
    sampling_seed = amplify._derive_sampling_seed(seed, 1)
    key = amplify.derive_key(ks, state, len(plaintext), sampling_seed)
    return amplify.CipherText(i=state.i, j=state.j, counter=1,
                              sampling_seed=sampling_seed, body=plaintext ^ key)


def make_transcript(ks, channels, m_bits, d, hacked=(), seed=0):
    rng = np.random.default_rng(seed)
    cts = tuple(first_ciphertext(ks, ch, d, BitString.random(m_bits, rng), [seed, *ch])
                for ch in channels)
    return Transcript(ciphertexts=cts, hacked=tuple(hacked), d=d)


def dense_security_matrix(ks, tr) -> np.ndarray:
    """The key rows over the unhacked pool columns, built from a pool scan
    and each message's dense sampling matrix."""
    holders = holders_by_index(ks)
    unhacked = [k for k in range(ks.u) if not holders[k] & set(tr.hacked)]
    column = {k: pos for pos, k in enumerate(unhacked)}
    blocks = [np.zeros((0, len(unhacked)), dtype=np.uint8)]
    for ct in tr.ciphertexts:
        common = [k for k in range(ks.u) if {ct.i, ct.j} <= holders[k]]
        local = amplify.sampling_matrix(len(ct.body), len(common), tr.d,
                                        ct.sampling_seed).to_dense()
        block = np.zeros((local.shape[0], len(unhacked)), dtype=np.uint8)
        for pos, k in enumerate(common):
            if k in column:
                block[:, column[k]] = local[:, pos]
        blocks.append(block)
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# security matrix


@pytest.mark.parametrize("text", [
    "pairwise", "same", "comb:a=3", "sampled:a=3,m=5", "random:p=1/2",
    "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3])
def test_security_matrix_matches_a_dense_construction(text, t, d):
    ks = generate(SchemeSpec.parse(text), 5, 60, seed=4)
    hacked = NetworkParams(5, t).last_t_nodes
    channels = [(i, j) for i, j in itertools.combinations(range(1, 6), 2)
                if i not in hacked and j not in hacked and len(ks.common_bits(i, j)) >= d]
    tr = make_transcript(ks, channels, m_bits=8, d=d, hacked=hacked, seed=t)
    w = build_security_matrix(ks, tr)
    dense = dense_security_matrix(ks, tr)
    assert np.array_equal(w.a_matrix.to_dense(), dense)
    assert w.rank == py_rank(dense)
    assert w.full_rank == (w.rank == dense.shape[0])
    if d == 1 and text in ("same", "comb:a=3") and t:
        # Some rows sample only a hacked bit: they embed as zero rows.
        assert not dense.any(axis=1).all()
        assert not w.full_rank


def test_empty_transcript_is_vacuously_secret():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    w = build_security_matrix(ks, Transcript(ciphertexts=(), hacked=(4,), d=1))
    assert w.full_rank and w.rank == 0


def test_matrix_shape_counts_unhacked_columns():
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 9, seed=1)
    tr = make_transcript(ks, [(1, 2)], m_bits=2, d=2, hacked=(4,))
    w = build_security_matrix(ks, tr)
    unhacked = ks.u - len(ks.hacked_bits((4,)))
    assert w.a_matrix.shape == (2, unhacked)


def test_hacked_channel_rejected():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    tr = make_transcript(ks, [(1, 4)], m_bits=1, d=1)
    with pytest.raises(ValueError):
        build_security_matrix(ks, Transcript(tr.ciphertexts, hacked=(4,), d=1))


def test_oversized_message_breaks_rank():
    # More key bits than surviving common bits cannot be independent.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 9, seed=1)
    survivors = len(ks.unhacked_common_indices([(1, 2)], (4,)))
    tr = make_transcript(ks, [(1, 2)], m_bits=survivors + 1, d=2, hacked=(4,))
    assert not build_security_matrix(ks, tr).full_rank


def test_security_matrix_rank_matches_the_elimination_oracle():
    # comb:a=3 n=5 with node 5 hacked leaves 4 groups of 50 unhacked bits:
    # 200 columns (not a multiple of 64) and 150 rows over 5 channels.
    ks = generate(SchemeSpec.parse("comb:a=3"), 5, 300, seed=11)
    tr = make_transcript(ks, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)], m_bits=30,
                         d=16, hacked=(5,), seed=3)
    w = build_security_matrix(ks, tr)
    assert w.a_matrix.shape == (150, 200)
    assert w.rank == py_rank(w.a_matrix.to_dense())
    assert w.full_rank == (w.rank == 150)

    repeated = Transcript(tr.ciphertexts + tr.ciphertexts[2:3], hacked=(5,), d=16)
    w = build_security_matrix(ks, repeated)
    assert w.a_matrix.shape == (180, 200)
    assert not w.full_rank
    assert w.rank == py_rank(w.a_matrix.to_dense()) <= 150


# ---------------------------------------------------------------------------
# exhaustive MI oracle


def mi_max_over_channels(ks, tr):
    return max(exact_mi_oracle(ks, tr, (ct.i, ct.j)) for ct in tr.ciphertexts)


def test_mi_oracle_agrees_with_rank_on_random_instances():
    rng = np.random.default_rng(2)
    agreements = 0
    for trial in range(25):
        text, n, l = [("pairwise", 4, 4), ("comb:a=3", 4, 9), ("same", 3, 6),
                      ("random:p=1/2", 4, 6)][trial % 4]
        ks = generate(SchemeSpec.parse(text), n, l, seed=trial)
        t = int(rng.integers(0, 2))
        hacked = tuple(range(n - t + 1, n + 1))
        channels = [(1, 2)] if trial % 3 or n - t < 3 else [(1, 2), (1, 3)]
        common_sizes = [len(ks.common_bits(*c)) for c in channels]
        if min(common_sizes) == 0:
            continue
        d = min(2, *common_sizes)
        tr = make_transcript(ks, channels, m_bits=int(rng.integers(1, 3)),
                             d=d, hacked=hacked, seed=trial)
        mi = mi_max_over_channels(ks, tr)
        full = build_security_matrix(ks, tr).full_rank
        assert (mi < 1e-9) == full
        agreements += 1
    assert agreements >= 15


def test_key_reuse_leaks_exactly_one_bit():
    # Two one-bit messages padded with the same derived key bit: the XOR
    # of the ciphertexts reveals the XOR of the plaintexts.
    ks = generate(SchemeSpec.parse("same"), 3, 4, seed=5)
    seed_bytes = b"\x09" * 16
    key = amplify.derive_key(ks, amplify.ChannelCipherState(1, 2, d=2), 1, seed_bytes)
    cts = tuple(
        amplify.CipherText(i=1, j=2, counter=c, sampling_seed=seed_bytes,
                           body=BitString([b]) ^ key)
        for c, b in [(1, 0), (2, 1)]
    )
    tr = Transcript(ciphertexts=cts, hacked=(), d=2)
    assert exact_mi_oracle(ks, tr, (1, 2)) == pytest.approx(1.0)


def test_mi_oracle_pool_cap():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 12, seed=0)  # u = 24
    tr = make_transcript(ks, [(1, 2)], m_bits=1, d=1)
    with pytest.raises(ValueError):
        exact_mi_oracle(ks, tr, (1, 2))


# ---------------------------------------------------------------------------
# I(a|b) identities


def alternating_sum_oracle(ks, a, b):
    """I(a|b) from first-principles: inclusion-exclusion over joint
    entropies, with each entropy counted by pool scan of the locations."""
    holders = holders_by_index(ks)

    def joint_entropy(k):
        first = set(range(1, k + 1))
        return sum(1 for nodes in holders.values() if nodes & first)

    return -sum(
        (-1) ** k * math.comb(a, k) * joint_entropy(b + k) for k in range(a + 1)
    )


@pytest.mark.parametrize("text,n,l", [
    ("pairwise", 5, 8),
    ("comb:a=3", 5, 12),
    ("comb:a=4", 6, 20),
    ("same", 4, 6),
    ("random:p=1/2", 5, 10),
    ("sampled:a=3,m=4", 4, 9),
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 12),
])
def test_conditional_mi_matches_alternating_sum(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=6)
    for a in range(1, n + 1):
        for b in range(0, n - a + 1):
            assert conditional_mi(ks, a, b) == alternating_sum_oracle(ks, a, b)


def test_node_entropy_identity():
    # I(1|0) equals the node's bit count, and decomposes over group sizes.
    for text, n, l in [("pairwise", 5, 8), ("comb:a=3", 5, 12), ("same", 4, 6)]:
        ks = generate(SchemeSpec.parse(text), n, l, seed=2)
        i10 = conditional_mi(ks, 1, 0)
        assert i10 == len(ks.node_bits(1))
        assert i10 <= ks.l
        decomposed = sum(
            conditional_mi(ks, a, n - a) * math.comb(n - 1, a - 1)
            for a in range(1, n + 1)
        )
        assert decomposed == i10


def test_pairwise_store_has_no_triple_information():
    ks = generate(SchemeSpec.parse("pairwise"), 5, 8, seed=3)
    assert conditional_mi(ks, 2, 0) == len(ks.common_bits(1, 2))
    for a in range(3, 6):
        assert conditional_mi(ks, a, 0) == 0


def test_channel_capacity_realized_by_optimal_group_size():
    for n, t in [(4, 1), (6, 1), (6, 2), (8, 3)]:
        params = NetworkParams(n, t)
        a = -(-n // (t + 1))
        a = min(max(a, 2), n - t)
        quota = math.comb(n - 1, a - 1)
        ks = generate(SchemeSpec.parse(f"comb:a={a}"), n, quota, seed=1)
        assert Fraction(conditional_mi(ks, 2, t), ks.l) == capacity(params).channel


def test_conditional_mi_validation():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    with pytest.raises(ValueError):
        conditional_mi(ks, 0, 0)
    with pytest.raises(ValueError):
        conditional_mi(ks, 3, 2)


# ---------------------------------------------------------------------------
# Monte Carlo experiments


def test_wilson_interval_sanity():
    low, high = wilson_interval(90, 100)
    assert 0 <= low < 0.9 < high <= 1
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_lemma_experiment_more_rows_than_columns_is_impossible():
    res = lemma_rank_experiment(100, 1.2, ("bernoulli", 2.0), 30, seed=1)
    assert res.successes == 0


def test_lemma_experiment_small_scale():
    res = lemma_rank_experiment(300, 0.5, ("fixed_weight", 32), 20, seed=2)
    assert res.successes == 20
    again = lemma_rank_experiment(300, 0.5, ("fixed_weight", 32), 20, seed=2)
    assert again == res


def test_lemma_experiment_rejects_unknown_mode():
    with pytest.raises(ValueError):
        lemma_rank_experiment(100, 0.5, ("gaussian", 1), 5, seed=0)


def test_full_rank_experiment_small():
    res = full_rank_experiment(SchemeSpec.parse("comb:a=3"), 4, 1,
                               RateProfile.uniform(4, Fraction(1, 18)),
                               l=600, d=32, trials=15, seed=4)
    assert res.successes == 15
    assert res.ci_low > 0.7


@pytest.mark.parametrize("t,trials", [(-1, 5), (3, 5), (1, 0)])
def test_experiments_reject_bad_t_and_trials(t, trials):
    spec, profile = SchemeSpec.parse("comb:a=3"), RateProfile.uniform(4, Fraction(1, 18))
    with pytest.raises(ValueError):
        full_rank_experiment(spec, 4, t, profile, l=120, d=8, trials=trials, seed=0)
    with pytest.raises(ValueError):
        cross_independence_experiment(spec, 4, t, profile, [120], trials, seed=0, d=8)


def test_cross_independence_experiment_guards_the_region():
    with pytest.raises(ValueError):
        cross_independence_experiment(
            SchemeSpec.parse("comb:a=3"), 4, 1,
            RateProfile.uniform(4, Fraction(1, 2)), [300], 5, seed=0)


def test_cross_independence_experiment_runs():
    results = cross_independence_experiment(
        SchemeSpec.parse("comb:a=3"), 4, 1,
        RateProfile.uniform(4, Fraction(1, 18)), [300, 600], 10, seed=0, d=32)
    assert [r.params["l"] for r in results] == [300, 600]
    assert all(r.successes == 10 for r in results)
