"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its runtime.

Statistical criteria (5-7) substitute fixed desk-scale sizes with
explicit confidence bars for behavior that is only exact asymptotically.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb as binom

import numpy as np
import pytest

from netpad import amplify
from netpad.adversary import (
    Transcript,
    build_security_matrix,
    conditional_mi,
    exact_mi_oracle,
    full_rank_experiment,
    lemma_rank_experiment,
)
from netpad.gf2 import BitString
from netpad.multipath import Topology, disjoint_paths, reconstruct, share
from netpad.predistribution import SchemeSpec, generate
from netpad.rates import (
    MaxRates,
    NetworkParams,
    capacity,
    combinational_max_rates,
    hybrid_max_rates,
    random_max_rates,
    tradeoff_achieving_rates,
    tradeoff_check,
)
from netpad.secure_check import (
    RateProfile,
    Status,
    check_exact,
    r_secrecy_w,
    r_secrecy_w_closed,
)

from helpers import (
    achievable_oracle,
    hacked_index_set,
    holders_by_index,
    menger_max_paths,
    pair_index_sets,
    paths_are_disjoint,
    union_size_oracle,
)

EPS = Fraction(1, 2**20)


@contextmanager
def criterion(capsys, num, desc, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num}: {desc} ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_criterion_01_capacity_regression(capsys):
    with criterion(capsys, 1, "capacity regression", 1):
        assert capacity(NetworkParams(4, 1)).channel == Fraction(1, 3)
        assert capacity(NetworkParams(5, 1)).channel == Fraction(1, 3)
        for n in range(2, 61):
            for t in range(0, n - 1):
                assert capacity(NetworkParams(n, t)).net == Fraction(n, 2)


def test_criterion_02_rate_table_regression(capsys):
    with criterion(capsys, 2, "pairwise/hybrid rate regression", 1):
        params = NetworkParams(100, 1)
        pairwise = combinational_max_rates(params, 2)
        assert pairwise == MaxRates(Fraction(50), Fraction(1, 99))
        hybrid = hybrid_max_rates([
            (Fraction(1, 2), pairwise),
            (Fraction(1, 2), combinational_max_rates(params, 25)),
        ])
        assert abs(float(hybrid.net) - 26.53) < 0.01
        assert abs(float(hybrid.channel) - 0.0978) < 0.0001


def test_criterion_03_four_node_region(capsys):
    with criterion(capsys, 3, "four-node achievability region", 1):
        ks = generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=1)

        ok = check_exact(ks, RateProfile.uniform(4, Fraction(1, 9) - EPS), 1)
        assert ok.status is Status.ACHIEVABLE
        bad = check_exact(ks, RateProfile.uniform(4, Fraction(1, 9)), 1)
        assert bad.status is Status.NOT_ACHIEVABLE
        assert bad.witness.hacked == (4,)
        assert bad.witness.channels == ((1, 2), (1, 3), (2, 3))
        assert bad.witness.bound == Fraction(1, 3)

        # t = 0 boundaries: r_12 < 2/3, per-node row sum < 1, total < 4/3.
        cases = [
            ({(1, 2): Fraction(2, 3)}, {(1, 2): Fraction(2, 3) - EPS}),
            ({(1, 2): Fraction(1, 3), (1, 3): Fraction(1, 3), (1, 4): Fraction(1, 3)},
             {(1, 2): Fraction(1, 3), (1, 3): Fraction(1, 3),
              (1, 4): Fraction(1, 3) - EPS}),
            (dict.fromkeys(itertools.combinations(range(1, 5), 2), Fraction(2, 9)),
             dict.fromkeys(itertools.combinations(range(1, 5), 2),
                           Fraction(2, 9) - EPS)),
        ]
        for at_boundary, inside in cases:
            assert not check_exact(ks, RateProfile(4, at_boundary), 0).achievable
            assert check_exact(ks, RateProfile(4, inside), 0).achievable


def test_criterion_04_checker_oracle_equivalence(capsys):
    with criterion(capsys, 4, "exact checker vs pool-scan oracle", 120):
        rng = np.random.default_rng(404)
        for n in range(3, 7):
            for t in range(0, min(2, n - 2) + 1):
                for a in (2, 3, 4):
                    if a > n:
                        continue
                    spec = SchemeSpec.parse(f"comb:a={a}" if a > 2 else "pairwise")
                    ks = generate(spec, n, 2 * binom(n - 1, a - 1), seed=19)
                    pairs = list(itertools.combinations(range(1, n + 1), 2))
                    for _ in range(50):
                        k = int(rng.integers(1, min(4, len(pairs)) + 1))
                        chosen = rng.choice(len(pairs), size=k, replace=False)
                        profile = RateProfile(n, {
                            pairs[c]: Fraction(int(rng.integers(0, 4)),
                                               int(rng.integers(4, 11)))
                            for c in chosen
                        })
                        verdict = check_exact(ks, profile, t)
                        expected, violations = achievable_oracle(ks, profile, t)
                        assert verdict.achievable == expected
                        if not expected:
                            w = verdict.witness
                            assert w.bound == Fraction(
                                union_size_oracle(ks, w.channels, w.hacked), ks.l
                            )
                    # Shared-rate metadata equals the pool scan everywhere.
                    hacked = tuple(range(n - t + 1, n + 1))
                    for k in range(1, len(pairs) + 1):
                        for subset in itertools.islice(
                            itertools.combinations(pairs, k), 12
                        ):
                            live = [p for p in subset
                                    if p[0] not in hacked and p[1] not in hacked]
                            if not live:
                                continue
                            assert ks.unhacked_union_size(live, hacked) == \
                                union_size_oracle(ks, live, hacked)
                    # Closed-form r_secrecy(w) equals exhaustive minimization.
                    ns = n - t
                    pair_sets = pair_index_sets(ks)
                    bad = hacked_index_set(ks, hacked)
                    live_pairs = list(itertools.combinations(range(1, ns + 1), 2))
                    for w in range(1, len(live_pairs) + 1):
                        exhaustive = min(
                            len(set().union(*(pair_sets[p] for p in sub)) - bad)
                            for sub in itertools.combinations(live_pairs, w)
                        )
                        closed = r_secrecy_w_closed(spec, n, t, w)
                        assert Fraction(exhaustive, ks.l) == closed
                        assert r_secrecy_w(ks, t, w) == closed


def test_criterion_05_rank_witness_validity(capsys):
    with criterion(capsys, 5, "mutual-information oracle vs rank witness", 300):
        stores = []
        for text, n, ls in [
            ("pairwise", 3, (4, 6, 8)),
            ("pairwise", 4, (2, 3)),
            ("comb:a=3", 4, (3, 6, 9, 12)),
            ("same", 3, (6, 10, 14)),
            ("same", 4, (8, 12, 16)),
            ("random:p=1/2", 4, (4, 6, 8)),
            ("sampled:a=2,m=4", 4, (4, 6)),
            ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, (6, 12)),
        ]:
            for l in ls:
                ks = generate(SchemeSpec.parse(text), n, l, seed=l)
                if ks.u <= 20:
                    stores.append(ks)

        instances = agreements = 0
        rng = np.random.default_rng(505)
        for ks in stores:
            for t in (0, 1):
                hacked = tuple(range(ks.n - t + 1, ks.n + 1))
                channel_sets = [[(1, 2)]]
                if ks.n - t >= 3:
                    channel_sets.append([(1, 2), (1, 3)])
                for channels in channel_sets:
                    sizes = [len(ks.common_bits(*c)) for c in channels]
                    if min(sizes) == 0:
                        continue
                    d = min(2, *sizes)
                    for m_bits in (1, 2, 3):
                        # Built directly, as encrypt would send them first:
                        # m_bits may exceed |u_ij|, which encrypt refuses,
                        # and those are the rank-deficient instances.
                        cts = []
                        for ch in channels:
                            state = amplify.ChannelCipherState(*ch, d=d)
                            msg = BitString.random(m_bits, rng)
                            sampling_seed = amplify._derive_sampling_seed(
                                [int(rng.integers(1 << 30)), *ch], 1)
                            key = amplify.derive_key(ks, state, m_bits, sampling_seed)
                            cts.append(amplify.CipherText(
                                i=state.i, j=state.j, counter=1,
                                sampling_seed=sampling_seed, body=msg ^ key, d=d))
                        tr = Transcript(ciphertexts=tuple(cts), hacked=hacked)
                        mi = max(exact_mi_oracle(ks, tr, (ct.i, ct.j))
                                 for ct in cts)
                        full = build_security_matrix(ks, tr).full_rank
                        instances += 1
                        if (mi < 1e-9) == full:
                            agreements += 1
        assert instances >= 200, f"only {instances} instances in the grid"
        assert agreements == instances


def test_criterion_06_lemma_monte_carlo(capsys):
    with criterion(capsys, 6, "sparse random matrix independence", 180):
        # Bernoulli density c*log(r)/r with c = 2: at r = 2000 the c = 1
        # point is dominated by all-zero rows, so the bar is checked at a
        # denser point inside the same O(log r / r) family.
        res = lemma_rank_experiment(2000, 0.9, ("bernoulli", 2.0), 200, seed=6)
        assert res.successes / res.trials >= 0.99
        # More rows than columns can never be independent.
        res = lemma_rank_experiment(2000, 1.05, ("bernoulli", 2.0), 200, seed=6)
        assert res.successes == 0
        # Fixed-weight sampler: empirical extension beyond the proven
        # Bernoulli regime (no independence proof covers this generator).
        res = lemma_rank_experiment(2000, 0.9, ("fixed_weight", 128), 200, seed=6)
        assert res.successes / res.trials >= 0.99


def test_criterion_07_end_to_end_secrecy(capsys):
    with criterion(capsys, 7, "end-to-end full-rank witness rate", 120):
        res = full_rank_experiment(
            SchemeSpec.parse("comb:a=3"), 4, 1,
            RateProfile.uniform(4, Fraction(1, 18)),  # 50% of the 1/9 boundary
            l=4000, d=128, trials=100, seed=7,
        )
        assert res.trials == 100
        assert res.successes >= 99


def test_criterion_08_conditional_information_identities(capsys):
    with criterion(capsys, 8, "shared-information identities and bound", 60):
        grid = [
            ("pairwise", 5, 8), ("comb:a=3", 5, 12), ("comb:a=4", 6, 20),
            ("same", 4, 6), ("random:p=1/2", 5, 10), ("sampled:a=3,m=4", 4, 9),
            ("hybrid:lambda=1/2,(pairwise),(comb:a=3)", 4, 12),
        ]
        for text, n, l in grid:
            ks = generate(SchemeSpec.parse(text), n, l, seed=8)
            holders = holders_by_index(ks)

            def joint_entropy(k):
                first = set(range(1, k + 1))
                return sum(1 for nodes in holders.values() if nodes & first)

            for a in range(1, n + 1):
                for b in range(0, n - a + 1):
                    expected = -sum(
                        (-1) ** k * math.comb(a, k) * joint_entropy(b + k)
                        for k in range(a + 1)
                    )
                    assert conditional_mi(ks, a, b) == expected
            assert conditional_mi(ks, 1, 0) == len(ks.node_bits(1)) <= ks.l

        # I(2|t)/l never beats the channel capacity; equality at the
        # capacity-achieving group size.
        for n in range(4, 11):
            for t in range(0, min(3, n - 2) + 1):
                params = NetworkParams(n, t)
                for a in range(2, n + 1):
                    ks = generate(SchemeSpec.parse(f"comb:a={a}"), n,
                                  binom(n - 1, a - 1), seed=1)
                    ratio = Fraction(conditional_mi(ks, 2, t), ks.l)
                    assert ratio <= capacity(params).channel
                    a_star = min(max(-(-n // (t + 1)), 2), n - t)
                    if a == a_star:
                        assert ratio == capacity(params).channel


def test_criterion_09_secret_sharing_and_paths(capsys):
    with criterion(capsys, 9, "secret sharing and disjoint paths", 120):
        # Exhaustive: every proper packet subset is distributed identically
        # for every message.
        for m in range(1, 4):
            for t in range(1, 4):
                for subset in itertools.chain.from_iterable(
                    itertools.combinations(range(t + 1), k) for k in range(1, t + 1)
                ):
                    baseline = None
                    for x_val in range(1 << m):
                        x = BitString([x_val >> b & 1 for b in range(m)])
                        hist = {}
                        for rand in range(1 << (m * t)):
                            packets = [
                                BitString([rand >> (p * m + b) & 1
                                           for b in range(m)])
                                for p in range(t)
                            ]
                            last = x
                            for p in packets:
                                last = last ^ p
                            packets.append(last)
                            key = tuple(packets[s].to01() for s in subset)
                            hist[key] = hist.get(key, 0) + 1
                        if baseline is None:
                            baseline = hist
                            assert len(set(hist.values())) == 1
                        else:
                            assert hist == baseline

        rng = np.random.default_rng(909)
        for trial in range(1000):
            m = int(rng.integers(1, 33))
            t = int(rng.integers(0, 5))
            x = BitString.random(m, rng)
            assert reconstruct(share(x, t, seed=[9, trial]).packets) == x

        found = 0
        while found < 100:
            n = int(rng.integers(3, 9))
            p = rng.uniform(0.2, 0.8)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            topo = Topology(n, frozenset(
                pair for pair in pairs if rng.random() < p))
            nodes = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            s, dst = int(nodes[0]), int(nodes[1])
            res = disjoint_paths(topo, s, dst, n)
            assert res.max_count == menger_max_paths(topo, s, dst)
            assert paths_are_disjoint(res.paths, s, dst)
            found += 1


def test_criterion_10_tradeoff_sweep(capsys):
    with criterion(capsys, 10, "network/channel tradeoff at t=0", 1):
        for n in range(3, 13):
            params = NetworkParams(n, 0)
            for a in range(2, n + 1):
                res = tradeoff_check(params, combinational_max_rates(params, a))
                assert res.holds
                if a in (2, n):
                    assert res.slack == 0
            for num in range(1, 10):
                res = tradeoff_check(
                    params, random_max_rates(params, Fraction(num, 10)))
                assert res.holds
            assert tradeoff_check(params, MaxRates(Fraction(1), Fraction(1))).slack == 0
        for k in range(10):
            r = tradeoff_achieving_rates(9, Fraction(k, 10))
            assert tradeoff_check(NetworkParams(9, 0), r).slack == 0
