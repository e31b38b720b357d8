"""Eavesdropper-side certification: reconstruct the linear system an
eavesdropper sees, certify perfect secrecy by a rank witness, validate
the rank criterion against an exhaustive mutual-information oracle at
tiny scale, and run Monte Carlo rank experiments.

Certification is deterministic rank arithmetic; the enumeration oracle
exists only to validate the rank criterion itself and never shares code
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .amplify import DEFAULT_WEIGHT, CipherText, sampling_matrix, seed_to_int
from .gf2 import BitMatrix
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


def _unhacked_columns(ks: KeyStore, hacked) -> tuple[np.ndarray, int]:
    """Column of each pool index in the eavesdropper's system (-1 for a
    hacked bit), and the number of unhacked columns."""
    hacked = ks.hacked_mask(hacked)
    col_of = np.cumsum(~hacked, dtype=np.int64) - 1
    col_of[hacked] = -1
    return col_of, ks.u - int(np.count_nonzero(hacked))


def _embed(idx: np.ndarray, columns: np.ndarray, n_cols: int) -> BitMatrix:
    """Sampling rows, given as positions in the common bits u_ij, moved
    into the unhacked pool columns through u_ij's column table *columns*;
    the positions of hacked bits drop out.  Row r keeps its positions in
    order, so the kept ones are row-major and need no sort."""
    cols = columns[idx]
    keep = cols >= 0
    rows = np.repeat(np.arange(idx.shape[0]), np.count_nonzero(keep, axis=1))
    return BitMatrix.from_positions(idx.shape[0], n_cols, rows, cols[keep])


def _channel_key_blocks(ks: KeyStore, tr: Transcript):
    """Per-ciphertext sampling rows embedded into the unhacked columns."""
    hset = set(tr.hacked)
    col_of, n_cols = _unhacked_columns(ks, tr.hacked)
    blocks = []
    for ct in tr.ciphertexts:
        if ct.i in hset or ct.j in hset:
            raise ValueError(f"ciphertext on hacked channel ({ct.i},{ct.j})")
        columns = col_of[ks.common_indices(ct.i, ct.j)]
        idx = gf2.sample_indices(len(ct.body), columns.size, tr.d,
                                 seed_to_int(ct.sampling_seed))
        blocks.append(_embed(idx, columns, n_cols))
    return blocks, n_cols


def build_security_matrix(ks: KeyStore, tr: Transcript) -> SecrecyWitness:
    """Stack all key rows over the columns the eavesdropper cannot read;
    full row rank proves perfect secrecy for this realized transcript."""
    blocks, n_cols = _channel_key_blocks(ks, tr)
    if not blocks:
        a = BitMatrix.zeros(0, n_cols)
        return SecrecyWitness(a_matrix=a, rank=0, full_rank=True)
    a = BitMatrix.vstack(blocks)
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
    hset = set(tr.hacked)
    if i in hset or j in hset:
        raise ValueError(f"channel ({i},{j}) touches a hacked node")

    target_masks: list[int] = []
    other_masks: list[int] = []
    for ct in tr.ciphertexts:
        if ct.i in hset or ct.j in hset:
            raise ValueError(f"ciphertext on hacked channel ({ct.i},{ct.j})")
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
        # Node sets ascend, so a group meets nodes 1..k iff its first node does.
        return int(ks.index.sizes @ ks.index.chosen(lambda nodes: nodes[0] <= k))

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


def lemma_rank_experiment(r: int, ratio: float, density_mode, trials: int,
                          seed) -> ExperimentResult:
    """Empirical probability that a k x r random matrix (k = round(ratio*r))
    has independent rows, under bernoulli(c*log r/r) or fixed-weight rows."""
    if trials < 1:
        raise ValueError("need at least one trial")
    k = round(ratio * r)
    mode = density_mode[0]
    seed = _seed_int(seed)
    successes = 0
    for trial in range(trials):
        if k > r:
            break  # more rows than columns can never be independent
        if mode == "bernoulli":
            c = density_mode[1]
            m = gf2.random_bernoulli_matrix(k, r, min(1.0, c * math.log(r) / r),
                                            [seed, trial])
        elif mode == "fixed_weight":
            m = gf2.random_fixed_weight_matrix(k, r, density_mode[1], [seed, trial])
        else:
            raise ValueError(f"unknown density mode {mode!r}")
        if m.rank() == k:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return ExperimentResult(
        name=f"lemma_rank_{mode}", params={"r": r, "k": k, "mode": density_mode},
        trials=trials, successes=successes, p_hat=successes / trials,
        ci_low=low, ci_high=high, seed=seed,
    )


def full_rank_experiment(spec: SchemeSpec, n: int, t: int, profile: RateProfile,
                         l: int, d: int, trials: int, seed) -> ExperimentResult:
    """Empirical probability of a full-rank secrecy witness for fresh
    keystores and fresh sampling, with the last t nodes hacked."""
    hacked = NetworkParams(n, t).last_t_nodes
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = _seed_int(seed)
    successes = 0
    for trial in range(trials):
        ks = generate(spec, n, l, [seed, trial])
        blocks = _profile_blocks(ks, profile, hacked, d, [seed, trial, 1])
        stacked = BitMatrix.vstack(blocks) if blocks else None
        if stacked is None or stacked.rank() == stacked.n_rows:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return ExperimentResult(
        name="full_rank_witness",
        params={"scheme": spec.canonical(), "n": n, "t": t, "l": l, "d": d},
        trials=trials, successes=successes, p_hat=successes / trials,
        ci_low=low, ci_high=high, seed=seed,
    )


def _profile_blocks(ks: KeyStore, profile: RateProfile, hacked, d: int, seed):
    """One sampling block per positive-rate unhacked channel, with
    m_ij = floor(r_ij * l) key rows, over the unhacked pool columns."""
    col_of, n_cols = _unhacked_columns(ks, hacked)
    rng = np.random.default_rng(seed)
    blocks = []
    hset = set(hacked)
    for (i, j), r in sorted(profile.rates.items()):
        if r == 0 or i in hset or j in hset:
            continue
        m_bits = int(r * ks.l)
        if m_bits == 0:
            continue
        columns = col_of[ks.common_indices(i, j)]
        idx = gf2.sample_indices(m_bits, columns.size, d, rng.integers(0, 2**63))
        blocks.append(_embed(idx, columns, n_cols))
    return blocks


def cross_independence_experiment(spec: SchemeSpec, n: int, t: int,
                                  profile: RateProfile, l_values, trials: int,
                                  seed, d: int = DEFAULT_WEIGHT) -> list[ExperimentResult]:
    """Empirical probability that the per-channel key blocks are linearly
    cross-independent, swept over pool budgets l."""
    hacked = NetworkParams(n, t).last_t_nodes
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = _seed_int(seed)
    results = []
    for l in l_values:
        ks0 = generate(spec, n, l, [seed, l, 0])
        verdict = check_exact(ks0, profile, t)
        if verdict.status is not Status.ACHIEVABLE:
            raise ValueError(
                f"profile violates the achievability region at l={l}; "
                "the cross-independence experiment is meaningless there"
            )
        successes = 0
        for trial in range(trials):
            ks = generate(spec, n, l, [seed, l, trial])
            blocks = _profile_blocks(ks, profile, hacked, d, [seed, l, trial, 1])
            if not blocks or gf2.cross_independent(blocks):
                successes += 1
        low, high = wilson_interval(successes, trials)
        results.append(ExperimentResult(
            name="cross_independence",
            params={"scheme": spec.canonical(), "n": n, "t": t, "l": l, "d": d},
            trials=trials, successes=successes, p_hat=successes / trials,
            ci_low=low, ci_high=high, seed=seed,
        ))
    return results
