"""Eavesdropper-side certification: reconstruct the linear system an
eavesdropper sees, certify perfect secrecy by a rank witness, validate
the rank criterion against an exhaustive mutual-information oracle at
tiny scale, and run Monte Carlo rank experiments.

``netpad simulate`` and the full-rank and cross-independence experiments
take the endpoint path: ``profile_transcript`` encrypts with
``amplify.encrypt``, and the witness reads the rows it drew back.

Certification is deterministic rank arithmetic; the enumeration oracle
exists only to validate the rank criterion itself and never shares code
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .amplify import (
    DEFAULT_WEIGHT,
    BudgetError,
    ChannelCipherState,
    CipherText,
    ShortChannelError,
    encrypt,
    sampling_matrix,
)
from .gf2 import BitMatrix, BitString
from .permutation import _seed_int
from .predistribution import KeyStore, SchemeSpec, generate
from .rates import NetworkParams
from .secure_check import RateProfile, Status, check_exact

MI_ORACLE_MAX_POOL = 20


@dataclass(frozen=True)
class Transcript:
    """Everything the eavesdropper observes, minus the pool values."""

    ciphertexts: tuple[CipherText, ...]
    hacked: tuple[int, ...]
    d: int = DEFAULT_WEIGHT


@dataclass(frozen=True)
class SecrecyWitness:
    a_matrix: BitMatrix  # key rows over the unhacked pool columns
    rank: int
    full_rank: bool  # True is a proof of perfect secrecy


def profile_transcript(ks: KeyStore, profile: RateProfile, hacked, d: int,
                       seed) -> Transcript:
    """One encrypt of floor(r_ij * l) random bits, drawn from [seed, 1], on
    each positive-rate channel with no hacked endpoint, in channel order;
    channel (i, j) encrypts with seed [seed, i, j]."""
    seed, hacked = _seed_int(seed), tuple(hacked)
    rng = np.random.default_rng([seed, 1])
    cts = []
    for (i, j), r in sorted(profile.rates.items()):
        m_bits = int(r * ks.l)
        if m_bits and i not in hacked and j not in hacked:
            cts.append(encrypt(ks, ChannelCipherState(i, j, d=d),
                               BitString.random(m_bits, rng), seed=[seed, i, j]))
    return Transcript(ciphertexts=tuple(cts), hacked=hacked, d=d)


def _unhacked_columns(ks: KeyStore, hacked) -> tuple[np.ndarray, int]:
    """Column of each pool index in the eavesdropper's system (-1 for a
    hacked bit), and the number of unhacked columns."""
    hacked = ks.hacked_mask(hacked)
    col_of = np.cumsum(~hacked, dtype=np.int64) - 1
    col_of[hacked] = -1
    return col_of, ks.u - int(np.count_nonzero(hacked))


def _check_message(ct: CipherText, tr: Transcript) -> None:
    """Refuse a message on a hacked channel, or one that encrypt keyed with
    a d other than the transcript's."""
    if ct.i in tr.hacked or ct.j in tr.hacked:
        raise ValueError(f"ciphertext on hacked channel ({ct.i},{ct.j})")
    if ct._d not in (None, tr.d):
        raise ValueError(f"ciphertext on ({ct.i},{ct.j}) was encrypted with d = {ct._d}, "
                         f"not the transcript's d = {tr.d}")


def _message_blocks(ks: KeyStore, tr: Transcript) -> tuple[list[BitMatrix], int]:
    """Each message's key rows (``CipherText.rows``) over the n_cols pool
    columns the eavesdropper cannot read, and n_cols; every message passes
    ``_check_message``."""
    col_of, n_cols = _unhacked_columns(ks, tr.hacked)
    blocks = []
    for ct in tr.ciphertexts:
        _check_message(ct, tr)
        columns = col_of[ks.common_indices(ct.i, ct.j)]
        blocks.append(BitMatrix.from_rows(ct.rows(columns.size, tr.d), columns, n_cols))
    return blocks, n_cols


def build_security_matrix(ks: KeyStore, tr: Transcript) -> SecrecyWitness:
    """Stack all key rows over the columns the eavesdropper cannot read;
    full row rank proves perfect secrecy for this realized transcript."""
    blocks, n_cols = _message_blocks(ks, tr)
    a = BitMatrix.vstack([BitMatrix.zeros(0, n_cols), *blocks])
    r = a.rank()
    return SecrecyWitness(a_matrix=a, rank=r, full_rank=r == a.n_rows)


# ---------------------------------------------------------------------------
# exhaustive mutual-information oracle (tiny pools only)


def _row_masks(ks: KeyStore, ct: CipherText, d: int) -> list[int]:
    """Each key bit of a ciphertext as a bitmask over the full pool."""
    common = ks.common_bits(ct.i, ct.j)
    dense = sampling_matrix(len(ct.body), len(common), d, ct.sampling_seed).to_dense()
    return [sum(1 << common[pos] for pos in np.nonzero(row)[0]) for row in dense]


def _parity_bits(values: np.ndarray, mask: int) -> np.ndarray:
    return (np.bitwise_count(values & np.uint64(mask)) & 1).astype(np.int64)


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    counts = counts[counts > 0]
    return math.log2(total) - float((counts * np.log2(counts)).sum()) / total


def exact_mi_oracle(ks: KeyStore, tr: Transcript, channel) -> float:
    """I(x_ij ; all observations) in bits, by enumerating every pool value.

    Plaintexts are uniform; messages on other channels are worst-case
    known to the eavesdropper, so their ciphertexts expose the raw key
    streams.  Exhaustive and independent of the rank machinery.
    """
    if ks.u > MI_ORACLE_MAX_POOL:
        raise ValueError(
            f"pool of {ks.u} bits exceeds the 2^{MI_ORACLE_MAX_POOL} enumeration cap"
        )
    i, j = min(channel), max(channel)
    if i in tr.hacked or j in tr.hacked:
        raise ValueError(f"channel ({i},{j}) touches a hacked node")

    target_masks: list[int] = []
    other_masks: list[int] = []
    for ct in tr.ciphertexts:
        _check_message(ct, tr)
        masks = _row_masks(ks, ct, tr.d)
        if (ct.i, ct.j) == (i, j):
            target_masks.extend(masks)
        else:
            other_masks.extend(masks)
    other_masks.extend(1 << k for k in ks.hacked_bits(tr.hacked))
    if not target_masks:
        raise ValueError(f"transcript has no message on channel ({i},{j})")

    values = np.arange(1 << ks.u, dtype=np.uint64)

    def observation_ids(masks: list[int], base: np.ndarray) -> np.ndarray:
        ids = base
        for mask in masks:
            ids = ids * 2 + _parity_bits(values, mask)
            # Re-encode to keep ids small; preserves the joint histogram.
            _, ids = np.unique(ids, return_inverse=True)
        return ids

    o_ids = observation_ids(other_masks, np.zeros(values.size, dtype=np.int64))
    so_ids = observation_ids(target_masks, o_ids)

    total = values.size
    h_o = _entropy_bits(np.bincount(o_ids), total)
    h_so = _entropy_bits(np.bincount(so_ids), total)
    # With x uniform the padded ciphertext is uniform given anything, so
    # I(x; y, obs) = m + H(obs) - H(key, obs).
    return len(target_masks) + h_o - h_so


# ---------------------------------------------------------------------------
# conditional mutual information I(a|b) from group metadata


def conditional_mi(ks: KeyStore, a: int, b: int) -> int:
    """Mutual information (bits) among a nodes' secret bits given the bits
    of b other nodes, via the recursion I(a|b) = I(a-1|b) - I(a-1|b+1).

    Valid because pool bits are i.i.d. uniform: every entropy is the
    count of pool bits seen by the conditioning node set.
    """
    if a < 1 or b < 0 or a + b > ks.n:
        raise ValueError(f"need a >= 1, b >= 0, a + b <= n (got a={a}, b={b}, n={ks.n})")

    def joint_entropy(k: int) -> int:
        return int(ks.index.sizes @ ks.index.touching(range(1, k + 1)))

    memo: dict[tuple[int, int], int] = {}

    def mi(a_: int, b_: int) -> int:
        if a_ == 1:
            return joint_entropy(b_ + 1) - joint_entropy(b_)
        key = (a_, b_)
        if key not in memo:
            memo[key] = mi(a_ - 1, b_) - mi(a_ - 1, b_ + 1)
        return memo[key]

    return mi(a, b)


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    params: dict
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _estimate(name: str, params: dict, trials: int, seed: int, success) -> ExperimentResult:
    """The rate of success(trial) over the trials, with its Wilson interval."""
    if trials < 1:
        raise ValueError("need at least one trial")
    successes = sum(1 for trial in range(trials) if success(trial))
    low, high = wilson_interval(successes, trials)
    return ExperimentResult(name=name, params=params, trials=trials, successes=successes,
                            p_hat=successes / trials, ci_low=low, ci_high=high, seed=seed)


def lemma_rank_experiment(r: int, ratio: float, density_mode, trials: int,
                          seed) -> ExperimentResult:
    """Empirical probability that a k x r random matrix (k = round(ratio*r))
    has independent rows, under bernoulli(c*log r/r) or fixed-weight rows."""
    k = round(ratio * r)
    mode, param = density_mode
    if mode not in ("bernoulli", "fixed_weight"):
        raise ValueError(f"unknown density mode {mode!r}")
    seed = _seed_int(seed)

    def independent(trial):
        if k > r:
            return False  # more rows than columns can never be independent
        if mode == "bernoulli":
            m = gf2.random_bernoulli_matrix(k, r, min(1.0, param * math.log(r) / r),
                                            [seed, trial])
        else:
            m = gf2.random_fixed_weight_matrix(k, r, param, [seed, trial])
        return m.rank() == k
    return _estimate(f"lemma_rank_{mode}", {"r": r, "k": k, "mode": density_mode},
                     trials, seed, independent)


def _profile_rate(name: str, holds, spec: SchemeSpec, n: int, t: int, profile: RateProfile,
                  l: int, d: int, trials: int, seed: int, *prefix) -> ExperimentResult:
    """The rate of holds(ks, transcript) for the store ks generated from
    [*prefix, trial] and its profile transcript from [*prefix, trial, 1],
    with the last t nodes hacked."""
    hacked = NetworkParams(n, t).last_t_nodes

    def success(trial):
        ks = generate(spec, n, l, [*prefix, trial])
        try:
            tr = profile_transcript(ks, profile, hacked, d, [*prefix, trial, 1])
        except (ShortChannelError, BudgetError):
            return False  # this store cannot key the profile
        return holds(ks, tr)
    return _estimate(name, {"scheme": spec.canonical(), "n": n, "t": t, "l": l, "d": d},
                     trials, seed, success)


def full_rank_experiment(spec: SchemeSpec, n: int, t: int, profile: RateProfile,
                         l: int, d: int, trials: int, seed) -> ExperimentResult:
    """Empirical probability of a full-rank secrecy witness for fresh
    keystores and fresh sampling, with the last t nodes hacked."""
    seed = _seed_int(seed)
    return _profile_rate("full_rank_witness",
                         lambda ks, tr: build_security_matrix(ks, tr).full_rank,
                         spec, n, t, profile, l, d, trials, seed, seed)


def cross_independence_experiment(spec: SchemeSpec, n: int, t: int,
                                  profile: RateProfile, l_values, trials: int,
                                  seed, d: int = DEFAULT_WEIGHT) -> list[ExperimentResult]:
    """Empirical probability that the per-channel key blocks are linearly
    cross-independent, swept over pool budgets l."""
    seed = _seed_int(seed)
    results = []
    for l in l_values:
        if check_exact(generate(spec, n, l, [seed, l, 0]), profile, t).status \
                is not Status.ACHIEVABLE:
            raise ValueError(
                f"profile violates the achievability region at l={l}; "
                "the cross-independence experiment is meaningless there"
            )
        results.append(_profile_rate(
            "cross_independence",
            lambda ks, tr: not tr.ciphertexts or gf2.cross_independent(_message_blocks(ks, tr)[0]),
            spec, n, t, profile, l, d, trials, seed, seed, l))
    return results
