import itertools
import json
import statistics
from fractions import Fraction
from math import comb as binom

import numpy as np
import pytest

from netpad.predistribution import SchemeSpec, generate
from netpad.secure_check import (
    RateProfile,
    Status,
    check_exact,
    check_feasibility,
    check_relaxed,
    lex_prefix_pairs,
    r_secrecy_w,
    r_secrecy_w_closed,
    _closures,
)

from helpers import achievable_oracle, feasibility_oracle, pair_index_sets, union_size_oracle

EPS = Fraction(1, 2**20)


@pytest.fixture(scope="module")
def four_node():
    return generate(SchemeSpec.parse("comb:a=3"), 4, 1260, seed=1)


# ---------------------------------------------------------------------------
# RateProfile


def test_profile_normalizes_and_queries():
    p = RateProfile(4, {(3, 1): Fraction(1, 2)})
    assert p.rate(1, 3) == Fraction(1, 2)
    assert p.rate(3, 1) == Fraction(1, 2)
    assert p.rate(1, 2) == 0


def test_profile_validation():
    with pytest.raises(ValueError):
        RateProfile(4, {(1, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        RateProfile(4, {(1, 5): Fraction(1, 2)})
    with pytest.raises(ValueError):
        RateProfile(4, {(1, 2): Fraction(3, 2)})


@pytest.mark.parametrize("t", [-1, 3])
def test_every_checker_rejects_t_outside_0_to_n_minus_2(four_node, t):
    # t = -1 leaves no hacked set to check and t = n-1 no unhacked
    # channel, so a pass would certify nothing.
    profile = RateProfile.uniform(4, 1)
    with pytest.raises(ValueError, match="0 <= t <= n-2"):
        check_exact(four_node, profile, t)
    with pytest.raises(ValueError, match="0 <= t <= n-2"):
        check_feasibility(four_node, profile, t)
    with pytest.raises(ValueError, match="0 <= t <= n-2"):
        check_relaxed(four_node.scheme, 4, t, profile)
    with pytest.raises(ValueError, match="0 <= t <= n-2"):
        r_secrecy_w(four_node, t, 1)


def test_profile_json_roundtrip():
    p = RateProfile(5, {(1, 2): Fraction(1, 3), (4, 5): Fraction(2, 7)})
    q = RateProfile.from_json(p.to_json())
    assert q.n == 5 and q.rates == p.rates


@pytest.mark.parametrize("doc", [
    {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/9"}], "t": 1},
    {"n": 4, "rates": [{"i": 1, "j": 2, "r": "1/9", "weight": 2}]},
])
def test_profile_json_refuses_unknown_keys(doc):
    with pytest.raises(ValueError, match="unknown keys"):
        RateProfile.from_json(json.dumps(doc))


@pytest.mark.parametrize("first,second", [((1, 2), (2, 1)), ((2, 1), (1, 2)), ((1, 2), (1, 2))])
def test_profile_json_refuses_a_repeated_channel(first, second):
    # Read as a dict, the second entry would silently replace the first.
    doc = {"n": 4, "rates": [{"i": first[0], "j": first[1], "r": "1/9"},
                             {"i": second[0], "j": second[1], "r": "1/3"}]}
    with pytest.raises(ValueError, match="lists a channel twice"):
        RateProfile.from_json(json.dumps(doc))


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_profile_json_refuses_fewer_than_two_nodes(n):
    with pytest.raises(ValueError, match="fewer than two nodes"):
        RateProfile.from_json(json.dumps({"n": n, "rates": []}))


# ---------------------------------------------------------------------------
# the four-node region


def test_four_node_t1_boundary(four_node):
    inside = check_exact(four_node, RateProfile.uniform(4, Fraction(1, 9) - EPS), 1)
    assert inside.status is Status.ACHIEVABLE
    at = check_exact(four_node, RateProfile.uniform(4, Fraction(1, 9)), 1)
    assert at.status is Status.NOT_ACHIEVABLE
    assert at.witness.hacked == (4,)
    assert at.witness.channels == ((1, 2), (1, 3), (2, 3))
    assert at.witness.rate_sum == Fraction(1, 3)
    assert at.witness.bound == Fraction(1, 3)


def test_four_node_t0_single_channel(four_node):
    ok = check_exact(four_node, RateProfile(4, {(1, 2): Fraction(2, 3) - EPS}), 0)
    assert ok.status is Status.ACHIEVABLE
    bad = check_exact(four_node, RateProfile(4, {(1, 2): Fraction(2, 3)}), 0)
    assert bad.status is Status.NOT_ACHIEVABLE
    assert bad.witness.channels == ((1, 2),)


def test_four_node_t0_row_sum(four_node):
    rates = {(1, 2): Fraction(1, 3), (1, 3): Fraction(1, 3)}
    ok = check_exact(four_node, RateProfile(4, {**rates, (1, 4): Fraction(1, 3) - EPS}), 0)
    assert ok.status is Status.ACHIEVABLE
    bad = check_exact(four_node, RateProfile(4, {**rates, (1, 4): Fraction(1, 3)}), 0)
    assert bad.status is Status.NOT_ACHIEVABLE


def test_four_node_t0_total(four_node):
    ok = check_exact(four_node, RateProfile.uniform(4, Fraction(2, 9) - EPS), 0)
    assert ok.status is Status.ACHIEVABLE
    bad = check_exact(four_node, RateProfile.uniform(4, Fraction(2, 9)), 0)
    assert bad.status is Status.NOT_ACHIEVABLE


# ---------------------------------------------------------------------------
# exact checker vs brute-force oracle


@pytest.mark.parametrize("text,n,l,t", [
    ("pairwise", 4, 12, 1),
    ("comb:a=3", 5, 12, 1),
    ("comb:a=3", 4, 9, 2),
    ("random:p=1/2", 4, 10, 1),
    ("sampled:a=3,m=4", 4, 9, 1),
])
def test_verdict_matches_oracle(text, n, l, t):
    ks = generate(SchemeSpec.parse(text), n, l, seed=31)
    rng = np.random.default_rng(7)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(20):
        chosen = rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)
        profile = RateProfile(n, {
            pairs[c]: Fraction(int(rng.integers(0, 5)), int(rng.integers(5, 13)))
            for c in chosen
        })
        verdict = check_exact(ks, profile, t)
        expected, _ = achievable_oracle(ks, profile, t)
        assert verdict.achievable == expected


def test_witness_revalidates(four_node):
    rng = np.random.default_rng(3)
    found = 0
    while found < 5:
        r = Fraction(int(rng.integers(1, 6)), int(rng.integers(6, 12)))
        verdict = check_exact(four_node, RateProfile.uniform(4, r), 1)
        if verdict.achievable:
            continue
        found += 1
        w = verdict.witness
        rate_sum = sum((r for _ in w.channels), Fraction(0))
        assert w.rate_sum == rate_sum
        assert w.bound == Fraction(
            union_size_oracle(four_node, w.channels, w.hacked), four_node.l
        )
        assert w.rate_sum >= w.bound


def test_monotone_under_scaling(four_node):
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = Fraction(int(rng.integers(1, 4)), int(rng.integers(9, 30)))
        base = check_exact(four_node, RateProfile.uniform(4, r), 1)
        if not base.achievable:
            continue
        for c in (Fraction(1, 2), Fraction(1, 7)):
            scaled = check_exact(four_node, RateProfile.uniform(4, r * c), 1)
            assert scaled.achievable


def test_relabeling_invariance(four_node):
    profile = RateProfile(4, {(1, 2): Fraction(1, 9), (3, 4): Fraction(1, 5)})
    base = check_exact(four_node, profile, 1).status
    for perm in itertools.permutations(range(1, 5)):
        mapping = dict(zip(range(1, 5), perm))
        relabeled = RateProfile(4, {
            (mapping[i], mapping[j]): r for (i, j), r in profile.rates.items()
        })
        assert check_exact(four_node, relabeled, 1).status is base


@pytest.mark.parametrize("text,n,l,t", [
    ("pairwise", 4, 12, 1),
    ("comb:a=3", 5, 12, 1),
    ("random:p=1/2", 4, 10, 1),
])
def test_witness_is_lex_min_of_oracle(text, n, l, t):
    ks = generate(SchemeSpec.parse(text), n, l, seed=31)
    rng = np.random.default_rng(11)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(20):
        profile = RateProfile(n, {
            p: Fraction(int(rng.integers(0, 4)), int(rng.integers(6, 20)))
            for p in pairs
        })
        verdict = check_exact(ks, profile, t)
        _, violations = achievable_oracle(ks, profile, t)
        if violations:
            channels, hacked = min((c, h) for h, c, _, _ in violations)
            assert (verdict.witness.channels, verdict.witness.hacked) == (channels, hacked)


def test_exact_beyond_enumeration_reach():
    # 37 hacked sets with up to 28 positive channels each: listing every
    # channel subset would take about 2^28 steps for the empty set alone.
    ks = generate(SchemeSpec.parse("comb:a=3"), 8, 1260, seed=1)
    ok = RateProfile.uniform(8, Fraction(1, 100))
    assert check_feasibility(ks, ok, 2).achievable
    assert check_exact(ks, ok, 2).achievable

    bad = check_exact(ks, RateProfile.uniform(8, Fraction(1, 10)), 2)
    assert bad.status is Status.NOT_ACHIEVABLE
    w = bad.witness
    assert w.rate_sum == Fraction(len(w.channels), 10)
    assert w.bound == Fraction(union_size_oracle(ks, w.channels, w.hacked), ks.l)
    assert w.rate_sum >= w.bound


def test_heaviest_closure_matches_brute_force():
    """Each channel subset P (forced channels in, excluded ones out) weighs
    its channel weights minus the cost of every group one of them covers;
    on one shared network, several runs with excluded channels (weight 0)
    and hacked groups (cost 0) must each give the heaviest weight and reach
    a set that has it."""
    rng = np.random.default_rng(808)
    for _ in range(100):
        channels, groups = int(rng.integers(1, 11)), int(rng.integers(0, 8))
        covers = [[g for g in range(groups) if rng.random() < 0.4] for _ in range(channels)]
        heaviest = _closures(covers, groups)
        for _ in range(3):
            role = rng.choice(["free", "forced", "excluded"], channels, p=[0.6, 0.2, 0.2])
            live = [k for k in range(channels) if role[k] != "excluded"]
            forced = {k for k in live if role[k] == "forced"}
            hacked = {g for g in range(groups) if rng.random() < 0.2}
            weight = [int(w) if role[k] != "excluded" else 0
                      for k, w in enumerate(rng.integers(0, 30, channels))]
            cost = [0 if g in hacked else int(c) for g, c in enumerate(rng.integers(0, 40, groups))]

            def value(subset):
                covered = {g for k in subset for g in covers[k]} - hacked
                return sum(weight[k] for k in subset) - sum(cost[g] for g in covered)

            best = max(value({*forced, *extra})
                       for size in range(len(live) + 1)
                       for extra in itertools.combinations(sorted(set(live) - forced), size))
            heaviest_weight, reached = heaviest(weight, cost, sorted(forced))
            closure = set(reached)
            assert heaviest_weight == best
            assert forced <= closure <= set(live) and value(closure) == best


# ---------------------------------------------------------------------------
# r_secrecy(w): realized, closed form, lexicographic-prefix optimality


@pytest.mark.parametrize("text,n,t", [
    ("pairwise", 5, 1),
    ("comb:a=3", 5, 1),
    ("comb:a=3", 6, 2),
    ("comb:a=4", 6, 1),
    ("same", 5, 0),
])
def test_closed_form_matches_realized(text, n, t):
    spec = SchemeSpec.parse(text)
    quota = 1 if spec.kind == "same" else binom(n - 1, spec.effective_a - 1)
    ks = generate(spec, n, 2 * quota, seed=13)
    ns = n - t
    for w in range(1, ns * (ns - 1) // 2 + 1):
        assert r_secrecy_w(ks, t, w) == r_secrecy_w_closed(spec, n, t, w)


def test_prefix_is_the_minimizer():
    # Exhaustive: among all w-subsets of unhacked pairs, the lex prefix
    # attains the minimum shared-unhacked-bit count.
    for text, n, t in [("pairwise", 5, 1), ("comb:a=3", 5, 1), ("comb:a=3", 6, 2)]:
        spec = SchemeSpec.parse(text)
        ks = generate(spec, n, 2 * binom(n - 1, spec.effective_a - 1), seed=13)
        ns = n - t
        hacked = tuple(range(ns + 1, n + 1))
        pairs = list(itertools.combinations(range(1, ns + 1), 2))
        pair_sets = pair_index_sets(ks)
        from helpers import hacked_index_set
        bad = hacked_index_set(ks, hacked)
        for w in range(1, len(pairs) + 1):
            best = min(
                len(set().union(*(pair_sets[p] for p in subset)) - bad)
                for subset in itertools.combinations(pairs, w)
            )
            assert Fraction(best, ks.l) == r_secrecy_w(ks, t, w)


def test_random_scheme_closed_form_in_expectation():
    spec = SchemeSpec.parse("random:p=1/2")
    n, t, l, w = 5, 1, 40, 3
    closed = float(r_secrecy_w_closed(spec, n, t, w))
    samples = [
        float(r_secrecy_w(generate(spec, n, l, seed=[41, s]), t, w))
        for s in range(200)
    ]
    mean = statistics.fmean(samples)
    sem = statistics.stdev(samples) / len(samples) ** 0.5
    assert abs(mean - closed) <= 3 * sem + 1e-12


def test_r_secrecy_rejects_asymmetric():
    ks = generate(SchemeSpec.parse("sampled:a=3,m=4"), 4, 9, seed=0)
    with pytest.raises(ValueError):
        r_secrecy_w(ks, 1, 1)
    with pytest.raises(ValueError):
        r_secrecy_w_closed(ks.scheme, 4, 1, 1)


@pytest.mark.parametrize("t", [-1, 3])
def test_closed_form_rejects_t_outside_0_to_n_minus_2(t):
    # t = -1 gave 3/2 for random:p=1/2 n=4 w=2, above any rate.
    with pytest.raises(ValueError, match="0 <= t <= n-2"):
        r_secrecy_w_closed(SchemeSpec.parse("random:p=1/2"), 4, t, 2)


def test_lex_prefix_pairs():
    assert lex_prefix_pairs(4, 3) == [(1, 2), (1, 3), (1, 4)]
    with pytest.raises(ValueError):
        lex_prefix_pairs(4, 7)


# ---------------------------------------------------------------------------
# relaxed and feasibility checkers


def test_relaxed_pass_is_sound(four_node):
    profile = RateProfile.uniform(4, Fraction(1, 20))
    verdict = check_relaxed(four_node.scheme, 4, 1, profile)
    assert verdict.status is Status.ACHIEVABLE
    assert check_exact(four_node, profile, 1).achievable


def test_relaxed_fail_is_undecided(four_node):
    verdict = check_relaxed(four_node.scheme, 4, 1, RateProfile.uniform(4, Fraction(1, 9)))
    assert verdict.status is Status.UNDECIDED
    assert verdict.margins  # reports every subset size


def test_relaxed_needs_symmetry():
    with pytest.raises(ValueError):
        check_relaxed(SchemeSpec.parse("sampled:a=3,m=4"), 4, 1,
                      RateProfile.uniform(4, Fraction(1, 20)))


def test_feasibility_pass_is_sound(four_node):
    profile = RateProfile.uniform(4, Fraction(1, 20))
    verdict = check_feasibility(four_node, profile, 1)
    assert verdict.status is Status.ACHIEVABLE
    assert verdict.assignments
    # The flow split respects every group capacity with exact rationals.
    for fa in verdict.assignments:
        per_group = {}
        for (group, _), x in fa.values.items():
            assert x >= 0
            per_group[group] = per_group.get(group, Fraction(0)) + x
        for group, total in per_group.items():
            assert total <= Fraction(len(four_node.groups[group]), four_node.l)
    assert check_exact(four_node, profile, 1).achievable


FEASIBILITY_SCHEMES = ["pairwise", "same", "comb:a=3", "sampled:a=3,m={n}", "random:p=1/2",
                       "hybrid:lambda=1/2,(comb:a=3),(random:p=1/2)"]


def test_feasibility_matches_the_fraction_oracle():
    # Random profiles over all six scheme kinds, n = 4..6 and every t, with
    # the channels listed in a random order: the integer decision gives the
    # oracle's status and witness, and every split it reports equals the
    # oracle's Fraction.
    rng = np.random.default_rng(17)
    seen = {"achievable": 0, "no unhacked group": 0, "over capacity": 0}
    levels = (Fraction(1, 400), Fraction(1, 40), Fraction(1, 8))
    for text, n in itertools.product(FEASIBILITY_SCHEMES, (4, 5, 6)):
        ks = generate(SchemeSpec.parse(text.format(n=n)), n, 60, seed=n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for t, level in itertools.product(range(n - 1), levels):
            rates = {}
            for k in rng.permutation(len(pairs)):
                r = Fraction(int(rng.integers(1, 100)), int(rng.choice([7, 30, 100]))) * level
                rates[pairs[k]] = min(r, Fraction(1)) if rng.random() < 0.75 else Fraction(0)
            profile = RateProfile(n, rates)
            verdict = check_feasibility(ks, profile, t)
            status, witness, assignments = feasibility_oracle(ks, profile, t)
            assert verdict.status.value == status
            if witness is None:
                assert verdict.witness is None
                seen["achievable"] += 1
            else:
                w = verdict.witness
                assert (w.hacked, w.channels, w.rate_sum, w.bound) == witness
                seen["over capacity" if w.bound else "no unhacked group"] += 1
            assert [(fa.hacked, fa.values) for fa in verdict.assignments] == assignments
    assert all(seen.values()), seen


def test_feasibility_never_claims_impossibility(four_node):
    verdict = check_feasibility(four_node, RateProfile.uniform(4, Fraction(1, 2)), 1)
    assert verdict.status is Status.UNDECIDED
    assert verdict.witness is not None


def test_feasibility_capacity_is_strict_at_the_boundary():
    # same n=3 l=60: one group of 60 bits over three nodes.  At
    # r_12 = 2^20/(2^20+1) the split inflated by 1+2^-20 fills the group's
    # capacity exactly, which fits; 10^-12 more overflows it.  The exact
    # criterion, l*r_12 < |u_12| = 60, holds for both.
    ks = generate(SchemeSpec.parse("same"), 3, 60, seed=0)
    edge = Fraction(2**20, 2**20 + 1)
    for r, status in ((edge, Status.ACHIEVABLE), (edge + Fraction(1, 10**12), Status.UNDECIDED)):
        profile = RateProfile(3, {(1, 2): r})
        assert check_feasibility(ks, profile, 0).status is status
        assert check_exact(ks, profile, 0).status is Status.ACHIEVABLE


def test_verdict_json(four_node):
    import json
    verdict = check_exact(four_node, RateProfile.uniform(4, Fraction(1, 9)), 1)
    doc = json.loads(verdict.to_json())
    assert doc["status"] == "not_achievable"
    assert doc["witness"]["hacked"] == [4]
