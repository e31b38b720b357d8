import dataclasses

import numpy as np
import pytest

from netpad import amplify
from netpad.amplify import (
    BudgetError,
    ChannelCipherState,
    CipherText,
    ReplayError,
    ShortChannelError,
    decrypt,
    derive_key,
    encrypt,
    sampling_matrix,
    seed_to_int,
)
from netpad.gf2 import BitString, sample_indices
from netpad.predistribution import SchemeSpec, generate


FROZEN_CT = ("4e50435402000100000002000000010000000000000007a76cabc62071cbb4e18cc469fe1a12"
             "40000000000000009965b860a8ee03f5")


@pytest.fixture
def ks():
    return generate(SchemeSpec.parse("comb:a=3"), 4, 600, seed=11)


def fresh_states(d=32):
    return ChannelCipherState(1, 2, d=d), ChannelCipherState(1, 2, d=d)


@pytest.mark.parametrize("text,n,l", [
    ("pairwise", 4, 100),
    ("comb:a=3", 4, 300),
    ("random:p=1/2", 4, 200),
    ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 240),
])
def test_roundtrip_across_schemes(text, n, l):
    ks = generate(SchemeSpec.parse(text), n, l, seed=3)
    tx, rx = fresh_states(d=8)
    rng = np.random.default_rng(1)
    msg = BitString.random(25, rng)
    ct = encrypt(ks, tx, msg, seed=5)
    assert decrypt(ks, rx, ct) == msg
    assert ct.body != msg  # the pad actually did something


def test_wire_format_roundtrip(ks):
    msg = BitString.from01("110100111010001")
    ct = encrypt(ks, ChannelCipherState(1, 2), msg, seed=9)
    again = CipherText.from_bytes(ct.to_bytes())
    assert again == ct and again.d == 128


@pytest.mark.parametrize("d", [1, 64, 129])
def test_wire_format_refuses_a_d_it_cannot_hold(ks, d):
    # NPCT version 2 has no d field and means d = 128: a file written for
    # another d would decrypt to garbage.
    ct = encrypt(ks, ChannelCipherState(1, 2, d=d), BitString.zeros(8), seed=9)
    assert ct.d == d and ct != dataclasses.replace(ct, d=128)
    with pytest.raises(ValueError, match=f"NPCT version 2 holds only d = 128 ciphertexts, "
                                         f"not d = {d}"):
        ct.to_bytes()
    assert dataclasses.replace(ct, d=128).to_bytes()[:4] == b"NPCT"


def test_wire_format_rejects_garbage():
    with pytest.raises(ValueError):
        CipherText.from_bytes(b"NOPE" + b"\x00" * 60)
    ct = CipherText(i=1, j=2, counter=1, sampling_seed=b"\x07" * 16,
                    body=BitString.from01("10101"))
    raw = ct.to_bytes()
    with pytest.raises(ValueError):
        CipherText.from_bytes(raw[:-1])
    for cut in (4, 30, 45):
        with pytest.raises(ValueError, match="header"):
            CipherText.from_bytes(raw[:cut])
    with pytest.raises(ValueError, match="after the ciphertext body"):
        CipherText.from_bytes(raw + b"garbage")
    padded = bytearray(raw)
    padded[-1] |= 0xE0  # the 3 unused high bits of the 5-bit body
    with pytest.raises(ValueError, match="padding"):
        CipherText.from_bytes(bytes(padded))
    assert amplify.VERSION == 2
    version_1 = raw[:4] + (1).to_bytes(2, "little") + raw[6:]
    with pytest.raises(ValueError, match="version 1"):
        CipherText.from_bytes(version_1)


def test_encrypt_is_deterministic(ks):
    a, _ = fresh_states()
    b, _ = fresh_states()
    msg = BitString.from01("1011")
    assert encrypt(ks, a, msg, seed=42) == encrypt(ks, b, msg, seed=42)


def test_counter_advances_and_changes_key(ks):
    tx, _ = fresh_states()
    msg = BitString.zeros(10)
    c1 = encrypt(ks, tx, msg, seed=4)
    c2 = encrypt(ks, tx, msg, seed=4)
    assert (c1.counter, c2.counter) == (1, 2)
    assert c1.sampling_seed != c2.sampling_seed
    assert c1.body != c2.body


def test_full_weight_sampling_gives_parity_key(ks):
    common = ks.common_bits(1, 2)
    state = ChannelCipherState(1, 2, d=len(common))
    key = derive_key(ks, state, 6, b"\x01" * 16)
    parity = ks.bit_values(common).weight() % 2
    assert key.to01() == str(parity) * 6


def test_zero_length_message(ks):
    tx, rx = fresh_states()
    ct = encrypt(ks, tx, BitString.zeros(0), seed=1)
    assert decrypt(ks, rx, ct) == BitString.zeros(0)


def test_budget_enforced(ks):
    # The cap is |u_12| = 400 shared bits, not the l = 600 bits a node holds.
    shared = len(ks.common_bits(1, 2))
    assert shared < ks.l
    tx, _ = fresh_states()
    with pytest.raises(BudgetError, match=r"601 of its \|u_ij\|=400"):
        encrypt(ks, tx, BitString.zeros(ks.l + 1), seed=1)
    with pytest.raises(BudgetError, match=r"600 of its \|u_ij\|=400"):
        encrypt(ks, tx, BitString.zeros(ks.l), seed=1)
    assert (tx.consumed, tx.counter) == (0, 0)  # a refusal consumes nothing
    encrypt(ks, tx, BitString.zeros(shared - 1), seed=1)
    encrypt(ks, tx, BitString.zeros(1), seed=1)  # consumes everything
    with pytest.raises(BudgetError, match=r"401 of its \|u_ij\|=400"):
        encrypt(ks, tx, BitString.zeros(1), seed=1)
    encrypt(ks, tx, BitString.zeros(0), seed=1)


def test_replay_rejected(ks):
    tx, rx = fresh_states()
    ct = encrypt(ks, tx, BitString.zeros(5), seed=1)
    decrypt(ks, rx, ct)
    with pytest.raises(ReplayError):
        decrypt(ks, rx, ct)


def test_decrypt_checks_channel(ks):
    tx, _ = fresh_states()
    ct = encrypt(ks, tx, BitString.zeros(5), seed=1)
    with pytest.raises(ValueError):
        decrypt(ks, ChannelCipherState(1, 3, d=32), ct)


def test_decrypt_draws_with_the_ciphertexts_d(ks):
    # The receiver's state does not choose the rows; the ciphertext's d
    # does, and the short-channel check tests that d (|u_12| = 400).
    msg = BitString.random(40, np.random.default_rng(2))
    ct = encrypt(ks, ChannelCipherState(1, 2, d=8), msg, seed=3)
    assert decrypt(ks, ChannelCipherState(1, 2), ct) == msg
    assert decrypt(ks, ChannelCipherState(1, 2, d=401), ct) == msg
    with pytest.raises(ShortChannelError, match="d = 401"):
        decrypt(ks, ChannelCipherState(1, 2, d=8), dataclasses.replace(ct, d=401))


def test_weight_cannot_exceed_common_bits(ks):
    state = ChannelCipherState(1, 2, d=len(ks.common_bits(1, 2)) + 1)
    with pytest.raises(ValueError):
        derive_key(ks, state, 4, b"\x00" * 16)


@pytest.mark.parametrize("d", [0, -1])
def test_weight_below_one_rejected(d):
    # d = 0 would make every key bit an empty XOR, so the pad would be zero.
    with pytest.raises(ValueError, match="at least 1"):
        ChannelCipherState(1, 2, d=d)


def test_derive_key_is_the_sampling_matrix_times_the_common_bits(ks):
    # The endpoints (derive_key) and the auditor (sampling_matrix) agree.
    common = ks.common_bits(1, 3)
    pool = ks.bit_values(common)
    rng = np.random.default_rng(3)
    for d in (1, 7, 60, len(common) // 2, len(common)):
        state = ChannelCipherState(1, 3, d=d)
        for _ in range(25):
            seed = rng.bytes(16)
            m = int(rng.integers(0, 90))
            assert derive_key(ks, state, m, seed) == \
                sampling_matrix(m, len(common), d, seed).mul(pool)


def test_large_message_roundtrip():
    # |u_12| = 84000 and a 6300-bit key: the sampler draws 6300 x 128
    # indices, never a dense 6300 x 84000 array.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 126000, seed=1)
    assert len(ks.common_bits(1, 2)) == 84000
    msg = BitString.random(6300, np.random.default_rng(4))
    tx, rx = ChannelCipherState(1, 2), ChannelCipherState(1, 2)
    ct = encrypt(ks, tx, msg, seed=6)
    assert ct.body != msg
    assert decrypt(ks, rx, CipherText.from_bytes(ct.to_bytes())) == msg


def test_ciphertext_bytes_are_frozen(ks):
    # Recorded with the reference sampler loop: |u_12| = 400, d = 128, so
    # the key comes from the redraw path.  Stored NPCT files and seeded
    # replays decrypt only while these bytes stay the same.
    msg = BitString.random(64, np.random.default_rng(5))
    ct = encrypt(ks, ChannelCipherState(1, 2), msg, seed=21)
    assert ct.to_bytes().hex() == FROZEN_CT


def test_ciphertext_keeps_the_rows_its_key_was_made_from(ks):
    # |u_12| = 400: the rows fit uint16, are read-only, and equal the
    # sampler's draw for the header, on the sent and on the decoded copy.
    msg = BitString.random(64, np.random.default_rng(5))
    ct = encrypt(ks, ChannelCipherState(1, 2), msg, seed=21)
    copy = CipherText.from_bytes(ct.to_bytes())
    expected = sample_indices(64, 400, 128, seed_to_int(ct.sampling_seed))
    for c in (ct, copy):
        rows = c.rows(400)
        assert rows.dtype == np.uint16 and np.array_equal(rows, expected)
        assert c.rows(400) is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 1
    # Positions 0..255 fit uint8.
    light = dataclasses.replace(ct, d=3)
    assert light.rows(256).dtype == np.uint8 and light.rows(257).dtype == np.uint16


def test_kept_rows_are_not_part_of_the_message(ks):
    msg = BitString.random(64, np.random.default_rng(5))
    ct = encrypt(ks, ChannelCipherState(1, 2), msg, seed=21)
    bare = CipherText.from_bytes(ct.to_bytes())
    assert ct._kept is not None and bare._kept is None
    for _ in range(2):
        assert ct == bare and hash(ct) == hash(bare) and repr(ct) == repr(bare)
        assert ct.to_bytes() == bare.to_bytes() == bytes.fromhex(FROZEN_CT)
        assert "rows" not in repr(ct)
        bare.rows(300)  # a memo for another |u_ij| changes nothing either


def test_replaced_or_reread_ciphertext_never_returns_stale_rows(ks):
    msg = BitString.random(64, np.random.default_rng(5))
    ct = encrypt(ks, ChannelCipherState(1, 2), msg, seed=21)
    other_seed = b"\x05" * 16
    cases = [
        (dataclasses.replace(ct, sampling_seed=other_seed), (64, other_seed)),
        (dataclasses.replace(ct, body=ct.body[:40]), (40, ct.sampling_seed)),
        (dataclasses.replace(ct, counter=9), (64, ct.sampling_seed)),
    ]
    for copy, (m, seed) in cases:
        assert np.array_equal(copy.rows(400),
                              sample_indices(m, 400, 128, seed_to_int(seed)))
    light = dataclasses.replace(ct, d=16)
    assert np.array_equal(light.rows(400),
                          sample_indices(64, 400, 16, seed_to_int(ct.sampling_seed)))
    # Another |u_ij| on the same object draws again, then back.
    first = ct.rows(400)
    assert np.array_equal(ct.rows(300),
                          sample_indices(64, 300, 128, seed_to_int(ct.sampling_seed)))
    assert np.array_equal(ct.rows(400), first)
    # The receiver of the replaced body decrypts with the replaced rows.
    short = dataclasses.replace(ct, body=ct.body[:40])
    assert decrypt(ks, ChannelCipherState(1, 2), short) == \
        short.body ^ derive_key(ks, ChannelCipherState(1, 2), 40, ct.sampling_seed)


def test_state_normalizes_endpoints():
    s = ChannelCipherState(5, 2)
    assert s.pair == (2, 5)
    with pytest.raises(ValueError):
        ChannelCipherState(3, 3)


def test_sampling_matrix_fixed_weight_and_deterministic():
    m = sampling_matrix(10, 50, 7, b"\x02" * 16)
    assert np.all(m.to_dense().sum(axis=1) == 7)
    assert m == sampling_matrix(10, 50, 7, b"\x02" * 16)
    assert m != sampling_matrix(10, 50, 7, b"\x03" * 16)


def test_seed_to_int_validation():
    with pytest.raises(ValueError):
        seed_to_int(b"\x00" * 8)
    assert seed_to_int((1).to_bytes(16, "little")) == 1


def test_key_bits_are_unbiased():
    # Many derived key bits over fresh sampling seeds: empirical bias small.
    ks = generate(SchemeSpec.parse("comb:a=3"), 4, 900, seed=2)
    state = ChannelCipherState(1, 2, d=33)
    rng = np.random.default_rng(0)
    ones = total = 0
    for trial in range(40):
        key = derive_key(ks, state, 250, rng.bytes(16))
        ones += key.weight()
        total += len(key)
    assert abs(ones / total - 0.5) < 0.02
