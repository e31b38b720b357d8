import dataclasses
import hashlib
import itertools
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from click.testing import CliRunner

from netpad import amplify, gf2
from netpad.adversary import (
    ShortChannelError,
    Transcript,
    build_security_matrix,
    conditional_mi,
    cross_independence_experiment,
    exact_mi_oracle,
    full_rank_experiment,
    lemma_rank_experiment,
    profile_transcript,
    wilson_interval,
)
from netpad.cli import main
from netpad.gf2 import BitMatrix, BitString
from netpad.predistribution import SchemeSpec, generate
from netpad.rates import NetworkParams, capacity
from netpad.secure_check import RateProfile

from helpers import holders_by_index, pair_index_sets, py_rank


def first_ciphertext(ks, channel, d, plaintext, seed):
    """What encrypt sends first on channel with this seed, built directly,
    so that it may carry more key bits than the |u_ij| encrypt allows: the
    rank-deficient transcripts the oracle comparisons need."""
    state = amplify.ChannelCipherState(*channel, d=d)
    sampling_seed = amplify._derive_sampling_seed(seed, 1)
    key = amplify.derive_key(ks, state, len(plaintext), sampling_seed)
    return amplify.CipherText(i=state.i, j=state.j, counter=1,
                              sampling_seed=sampling_seed, body=plaintext ^ key, d=d)


def make_transcript(ks, channels, m_bits, d, hacked=(), seed=0):
    rng = np.random.default_rng(seed)
    cts = tuple(first_ciphertext(ks, ch, d, BitString.random(m_bits, rng), [seed, *ch])
                for ch in channels)
    return Transcript(ciphertexts=cts, hacked=tuple(hacked))


def dense_security_matrix(ks, tr) -> np.ndarray:
    """The key rows over the unhacked pool columns, built from a pool scan
    and each message's dense sampling matrix."""
    holders = holders_by_index(ks)
    unhacked = [k for k in range(ks.u) if not holders[k] & set(tr.hacked)]
    column = {k: pos for pos, k in enumerate(unhacked)}
    blocks = [np.zeros((0, len(unhacked)), dtype=np.uint8)]
    for ct in tr.ciphertexts:
        common = [k for k in range(ks.u) if {ct.i, ct.j} <= holders[k]]
        local = amplify.sampling_matrix(len(ct.body), len(common), ct.d,
                                        ct.sampling_seed).to_dense()
        block = np.zeros((local.shape[0], len(unhacked)), dtype=np.uint8)
        for pos, k in enumerate(common):
            if k in column:
                block[:, column[k]] = local[:, pos]
        blocks.append(block)
    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# security matrix


def check_against_dense(ks, hacked, d, m_bits, seed):
    """One message of m_bits on every unhacked channel with at least d
    common bits; its witness must equal the dense construction."""
    channels = [(i, j) for i, j in itertools.combinations(range(1, ks.n + 1), 2)
                if i not in hacked and j not in hacked and len(ks.common_bits(i, j)) >= d]
    tr = make_transcript(ks, channels, m_bits=m_bits, d=d, hacked=hacked, seed=seed)
    w = build_security_matrix(ks, tr)
    dense = dense_security_matrix(ks, tr)
    assert np.array_equal(w.a_matrix.to_dense(), dense)
    assert w.a_matrix == BitMatrix.from_dense(dense)  # padding bits too
    assert w.rank == py_rank(dense)
    assert w.full_rank == (w.rank == dense.shape[0])
    return w, dense


@pytest.mark.parametrize("text", [
    "pairwise", "same", "comb:a=3", "sampled:a=3,m=5", "random:p=1/2",
    "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3])
def test_security_matrix_matches_a_dense_construction(text, t, d):
    ks = generate(SchemeSpec.parse(text), 5, 60, seed=4)
    w, dense = check_against_dense(ks, NetworkParams(5, t).last_t_nodes, d, 8, seed=t)
    if d == 1 and text in ("same", "comb:a=3") and t:
        # Some rows sample only a hacked bit: they embed as zero rows.
        assert not dense.any(axis=1).all()
        assert not w.full_rank


@pytest.mark.parametrize("text,n,l,hacked,d,m_bits,n_cols", [
    # The audit store: 2000 unhacked columns, 48 bits of word padding.
    ("comb:a=3", 7, 1500, (7,), 128, 70, 2000),
    # 4 unhacked groups of 32 bits: 128 columns fill two words exactly, so
    # the spare column of the scatter starts a third word.
    ("comb:a=3", 5, 192, (5,), 16, 20, 128),
])
def test_security_matrix_matches_a_dense_construction_at_word_edges(text, n, l, hacked, d,
                                                                    m_bits, n_cols):
    ks = generate(SchemeSpec.parse(text), n, l, seed=4)
    w, dense = check_against_dense(ks, hacked, d, m_bits, seed=1)
    assert dense.shape == (m_bits * math.comb(n - len(hacked), 2), n_cols)
    assert (dense.sum(axis=1) < d).any()  # some sampled bits were hacked
    assert w.full_rank


def test_empty_transcript_is_vacuously_secret():
    ks = generate(SchemeSpec.parse("pairwise"), 4, 6, seed=0)
    w = build_security_matrix(ks, Transcript(ciphertexts=(), hacked=(4,)))
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
        build_security_matrix(ks, Transcript(tr.ciphertexts, hacked=(4,)))


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

    repeated = Transcript(tr.ciphertexts + tr.ciphertexts[2:3], hacked=(5,))
    w = build_security_matrix(ks, repeated)
    assert w.a_matrix.shape == (180, 200)
    assert not w.full_rank
    assert w.rank == py_rank(w.a_matrix.to_dense()) <= 150


def recorded(monkeypatch, real, keep) -> list:
    """keep(args) of every call to real, under every name a netpad module
    binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(keep(args))
        return real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "netpad" and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counted)
    return calls


@pytest.fixture
def draws(monkeypatch):
    """The (n_rows, n_cols, d) of every gf2.sample_indices call, under every
    name a netpad module binds the sampler to."""
    return recorded(monkeypatch, gf2.sample_indices, lambda args: args[:3])


def encrypted_transcript(ks, hacked, d, m_bits, seed):
    """One encrypt of m_bits on every unhacked channel with at least
    max(d, m_bits) common bits, and its plaintexts."""
    rng = np.random.default_rng(seed)
    cts, plain = [], []
    for i, j in itertools.combinations(range(1, ks.n + 1), 2):
        if i in hacked or j in hacked or len(ks.common_bits(i, j)) < max(d, m_bits):
            continue
        plain.append(BitString.random(m_bits, rng))
        cts.append(amplify.encrypt(ks, amplify.ChannelCipherState(i, j, d=d), plain[-1],
                                   seed=[seed, i, j]))
    return Transcript(ciphertexts=tuple(cts), hacked=tuple(hacked)), plain


def decoded(tr):
    """tr as a receiver rebuilds it, each copy without rows: read from NPCT
    bytes at d = 128, the only d version 2 holds, else a dataclasses.replace
    copy."""
    return Transcript(tuple(amplify.CipherText.from_bytes(ct.to_bytes())
                            if ct.d == amplify.DEFAULT_WEIGHT else dataclasses.replace(ct)
                            for ct in tr.ciphertexts), tr.hacked)


@pytest.mark.parametrize("text", [
    "pairwise", "same", "comb:a=3", "sampled:a=3,m=5", "random:p=1/2",
    "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"])
@pytest.mark.parametrize("d", [1, 3, 128])
def test_witness_of_encrypted_ciphertexts_equals_that_of_their_decoded_copies(text, d):
    # encrypt hands its sampling rows to the witness; a decoded copy has
    # none and draws them again from its header and d.
    ks = generate(SchemeSpec.parse(text), 5, 600 if d == 128 else 120, seed=4)
    tr, plain = encrypted_transcript(ks, (5,), d, m_bits=8, seed=d)
    copies = decoded(tr)
    assert len(tr.ciphertexts) >= 3
    assert all(copy._kept is None and copy == ct for ct, copy in zip(tr.ciphertexts,
                                                                    copies.ciphertexts))
    fresh, again = build_security_matrix(ks, tr), build_security_matrix(ks, copies)
    assert fresh.a_matrix == again.a_matrix == BitMatrix.from_dense(dense_security_matrix(ks, tr))
    assert fresh.rank == again.rank and fresh.full_rank == again.full_rank
    for ct, copy, msg in zip(tr.ciphertexts, copies.ciphertexts, plain):
        for received in (ct, copy):
            assert amplify.decrypt(ks, amplify.ChannelCipherState(ct.i, ct.j),
                                   received) == msg


def test_encrypt_then_witness_draws_once_per_message(draws):
    ks = generate(SchemeSpec.parse("comb:a=3"), 7, 1500, seed=4)
    tr, _ = encrypted_transcript(ks, (7,), 128, m_bits=70, seed=1)
    assert len(draws) == len(tr.ciphertexts) == 15
    build_security_matrix(ks, tr)
    assert len(draws) == 15
    # A transcript read from bytes draws once per message too, and a
    # decrypt of the same objects draws nothing more.
    copies = decoded(tr)
    build_security_matrix(ks, copies)
    build_security_matrix(ks, copies)
    for ct in copies.ciphertexts:
        amplify.decrypt(ks, amplify.ChannelCipherState(ct.i, ct.j), ct)
    assert len(draws) == 30


def test_simulate_draws_once_per_message(draws):
    res = CliRunner().invoke(main, ["simulate", "--scheme", "comb:a=3", "--n", "5",
                                    "--l", "600", "--t", "1", "--profile", "uniform:1/30",
                                    "--d", "32", "--seed", "2"])
    assert res.exit_code == 0, res.output
    assert "messages=6 " in res.output and "FULL RANK" in res.output
    assert draws == [(20, 300, 32)] * 6


def test_experiments_encrypt_each_message_once(draws, monkeypatch):
    # Both experiments key a trial's profile through encrypt, and the
    # witness reads back the rows encrypt drew: one draw per message.
    encrypts = recorded(monkeypatch, amplify.encrypt,
                        lambda args: (args[1].pair, args[1].d, len(args[2])))
    spec, profile = SchemeSpec.parse("comb:a=3"), RateProfile.uniform(4, Fraction(1, 18))
    res = full_rank_experiment(spec, 4, 1, profile, l=600, d=32, trials=3, seed=4)
    assert res.successes == 3
    assert encrypts == [((1, 2), 32, 33), ((1, 3), 32, 33), ((2, 3), 32, 33)] * 3
    assert draws == [(33, 400, 32)] * 9
    encrypts.clear()
    draws.clear()
    [res] = cross_independence_experiment(spec, 4, 1, profile, [300], 3, seed=0, d=32)
    assert res.successes == 3
    assert encrypts == [((1, 2), 32, 16), ((1, 3), 32, 16), ((2, 3), 32, 16)] * 3
    assert draws == [(16, 200, 32)] * 9


# sha256 of the NPCT version 2 layout of profile_transcript's ciphertexts,
# in order: the messages and sampling seeds simulate has always encrypted with.
TRANSCRIPT_DIGESTS = [
    ("comb:a=3", 5, 600, 1, Fraction(1, 30), 32, 2,
     "4a5edc6c63ee2f123455a8860f37fb37dc07fece66090f1acb6010a1a304327a"),
    ("random:p=1/2", 5, 300, 1, Fraction(1, 40), 16, 3,
     "5169980fd9a715fd51c83e338fcead023c294187ccd9d52a061647b95504df3e"),
    ("hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)", 6, 400, 2, Fraction(1, 50), 8, 9,
     "f88fffe70d2a90a97a9071be88cccdc7a91d1a14315e90c5d6469129a1d384eb"),
]


def npct_v2(ct) -> bytes:
    """ct's fields in the NPCT version 2 layout, whatever its d: the 46-byte
    header a reader parses, then the body."""
    return (b"NPCT" + struct.pack("<HIIQ", 2, ct.i, ct.j, ct.counter) + ct.sampling_seed
            + struct.pack("<Q", len(ct.body)) + ct.body.to_bytes())


@pytest.mark.parametrize("text,n,l,t,r,d,seed,digest", TRANSCRIPT_DIGESTS)
def test_profile_transcript_is_frozen(text, n, l, t, r, d, seed, digest):
    ks = generate(SchemeSpec.parse(text), n, l, seed)
    tr = profile_transcript(ks, RateProfile.uniform(n, r), NetworkParams(n, t).last_t_nodes,
                            d, seed)
    assert len(tr.ciphertexts) == 6 and all(ct.d == d for ct in tr.ciphertexts)
    for ct in tr.ciphertexts:
        assert npct_v2(ct) == dataclasses.replace(ct, d=amplify.DEFAULT_WEIGHT).to_bytes()
    assert hashlib.sha256(b"".join(map(npct_v2, tr.ciphertexts))).hexdigest() == digest


def test_witness_certifies_each_message_with_its_own_d():
    # One transcript mixes d = 8 and d = 128: each message's block holds the
    # rows its own key was drawn with, so what is certified is what keyed it.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=7)
    rng = np.random.default_rng(0)
    light = amplify.encrypt(ks, amplify.ChannelCipherState(1, 2, d=8),
                            BitString.random(100, rng), seed=1)
    heavy = amplify.encrypt(ks, amplify.ChannelCipherState(1, 3),
                            BitString.random(100, rng), seed=2)
    assert (light.d, heavy.d) == (8, 128)
    tr = Transcript((light, heavy), (4,))
    w = build_security_matrix(ks, tr)
    assert w.a_matrix == BitMatrix.from_dense(dense_security_matrix(ks, tr))
    weights = w.a_matrix.to_dense().sum(axis=1)
    assert weights[:100].max() <= 8 < weights[100:].min()


def test_mi_oracle_and_witness_read_each_ciphertexts_d():
    # d = 1 and d = 3 on one pool, alone and in one transcript: the oracle
    # and the witness agree, each reading the d of every ciphertext.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 12, seed=12)
    cts = [amplify.encrypt(ks, amplify.ChannelCipherState(1, j, d=d), BitString.from01("101"),
                           seed=5) for j, d in ((2, 1), (2, 3), (3, 3))]
    verdicts = []
    for chosen in ([cts[0]], [cts[1]], [cts[0], cts[2]]):
        tr = Transcript(tuple(chosen), ())
        full = build_security_matrix(ks, tr).full_rank
        assert (mi_max_over_channels(ks, tr) < 1e-9) == full
        verdicts.append(full)
    assert verdicts == [False, True, False]  # d = 1 draws one position twice


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
                           body=BitString([b]) ^ key, d=2)
        for c, b in [(1, 0), (2, 1)]
    )
    tr = Transcript(ciphertexts=cts, hacked=())
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


def short_trials(spec, n, l, d, seeds) -> list[int]:
    """Trials whose store has a channel with fewer than d common bits, by
    pool scan."""
    return [k for k, seed in enumerate(seeds)
            if min(map(len, pair_index_sets(generate(spec, n, l, seed)).values())) < d]


def test_experiments_count_a_short_channel_as_a_failure():
    # sampled:a=3 with few groups leaves some pairs of nodes sharing fewer
    # than d = 3 bits; no key row of such a channel can be drawn, so that
    # trial fails and the run goes on.
    profile = RateProfile.uniform(6, Fraction(1, 10))
    spec = SchemeSpec.parse("sampled:a=3,m=6")
    res = full_rank_experiment(spec, 6, 0, profile, 60, 3, 3, 6)
    assert short_trials(spec, 6, 60, 3, [[6, k] for k in range(3)]) == [0, 1, 2]
    assert res.trials == 3 and res.successes == 0

    spec = SchemeSpec.parse("sampled:a=3,m=8")
    res = full_rank_experiment(spec, 6, 0, profile, 60, 3, 12, 6)
    short = short_trials(spec, 6, 60, 3, [[6, k] for k in range(12)])
    assert 0 < len(short) < 12
    assert 0 < res.successes <= 12 - len(short)
    ks = generate(spec, 6, 60, [6, short[0]])
    with pytest.raises(ShortChannelError,
                       match=r"channel \(\d,\d\) has \|u_ij\| = [0-2] common bits, .* d = 3"):
        profile_transcript(ks, profile, (), 3, 0)

    [res] = cross_independence_experiment(spec, 6, 0, RateProfile.uniform(6, Fraction(1, 100)),
                                          [120], 12, 6, d=3)
    short = short_trials(spec, 6, 120, 3, [[6, 120, k] for k in range(12)])
    assert 0 < len(short) < 12
    assert 0 < res.successes <= 12 - len(short)


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
