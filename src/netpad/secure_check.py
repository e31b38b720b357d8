"""Achievability checkers for a set of channel rates.

Three routes:
  * check_exact      — iff-criterion: every channel subset with positive
                       rate sum must stay strictly below its shared
                       unhacked-bit rate.  One flow network per call, over
                       channel and group ids; each hacked set and each
                       forced or excluded rerun only sets its capacities.
  * check_relaxed    — per-subset-size criterion with closed forms for
                       symmetric schemes; a pass is sufficient, a fail is
                       advisory only.
  * check_feasibility— sufficient group-flow criterion using the concrete
                       proportional construction; a pass is a proof, a
                       fail never claims non-achievability.

All rate arithmetic is exact rational.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .maxflow import FlowNetwork
from .predistribution import GroupIndex, KeyStore, SchemeSpec, parse_fraction
from .rates import NetworkParams, alpha

DEFAULT_EPSILON = Fraction(1, 2**20)


class Status(Enum):
    ACHIEVABLE = "achievable"
    NOT_ACHIEVABLE = "not_achievable"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class RateProfile:
    """Channel-rate map r_ij >= 0 over unordered node pairs."""

    n: int
    rates: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        normalized = {}
        for (i, j), r in self.rates.items():
            if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"bad channel ({i},{j}) for n={self.n}")
            r = Fraction(r)
            if not 0 <= r <= 1:
                raise ValueError(f"rate r_{i}{j}={r} must be in [0, 1]")
            normalized[(min(i, j), max(i, j))] = r
        object.__setattr__(self, "rates", normalized)

    def rate(self, i: int, j: int) -> Fraction:
        return self.rates.get((min(i, j), max(i, j)), Fraction(0))

    @classmethod
    def uniform(cls, n: int, r) -> "RateProfile":
        pairs = itertools.combinations(range(1, n + 1), 2)
        return cls(n, {pair: Fraction(r) for pair in pairs})

    @classmethod
    def from_json(cls, text: str) -> "RateProfile":
        """Reads what to_json writes; any other document raises ValueError."""
        doc = json.loads(text)
        try:
            # Through str(), true and Infinity fail as bad literals and a
            # float reads as the exact decimal it shows.
            n, entries = doc["n"], doc["rates"]
            rates = [((e["i"], e["j"]), parse_fraction(str(e["r"]))) for e in entries]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed rate profile: {exc!r}") from None
        unknown = doc.keys() - {"n", "rates"}
        unknown |= {key for e in entries for key in e.keys() - {"i", "j", "r"}}
        if unknown:
            raise ValueError(f"rate profile has unknown keys {sorted(unknown)}")
        if any(type(v) is not int for v in (n, *itertools.chain(*(pair for pair, _ in rates)))):
            raise ValueError("rate profile node ids must be integers")
        if n < 2:
            raise ValueError(f"rate profile has n={n}, fewer than two nodes")
        if len({frozenset(pair) for pair, _ in rates}) != len(rates):
            raise ValueError("rate profile lists a channel twice")
        return cls(n, dict(rates))

    def to_json(self) -> str:
        entries = [
            {"i": i, "j": j, "r": str(r)}
            for (i, j), r in sorted(self.rates.items())
        ]
        return json.dumps({"n": self.n, "rates": entries}, indent=2)


@dataclass(frozen=True)
class Witness:
    """A violated constraint: sum of rates over P reaches the bound."""

    hacked: tuple[int, ...]
    channels: tuple[tuple[int, int], ...]
    rate_sum: Fraction
    bound: Fraction


@dataclass(frozen=True)
class FlowAssignment:
    """Non-negative per-group rate split x^G_ij for one hacked set.

    Kept in integers: each (channel e, c_e, groups) of *shares* puts
    x^G_e = (1 + DEFAULT_EPSILON) * weights[G] * c_e / denominator on each
    of its groups G.  ``values`` maps (G, e) to that Fraction, built when
    first read.
    """

    hacked: tuple[int, ...]
    shares: tuple[tuple[tuple[int, int], int, list[tuple[int, ...]]], ...]
    denominator: int
    weights: dict[tuple[int, ...], int]

    @cached_property
    def values(self) -> dict[tuple[tuple[int, ...], tuple[int, int]], Fraction]:
        boost = 1 + DEFAULT_EPSILON
        return {(g, e): boost * Fraction(self.weights[g] * c, self.denominator)
                for e, c, groups in self.shares for g in groups}


@dataclass(frozen=True)
class SecurityVerdict:
    status: Status
    method: str
    witness: Witness | None = None
    margins: tuple[tuple[int, Fraction, Fraction], ...] = ()
    assignments: tuple[FlowAssignment, ...] = ()

    @property
    def achievable(self) -> bool:
        return self.status is Status.ACHIEVABLE

    def to_json(self) -> str:
        doc: dict = {"status": self.status.value, "method": self.method}
        if self.witness is not None:
            doc["witness"] = {
                "hacked": list(self.witness.hacked),
                "channels": [list(c) for c in self.witness.channels],
                "rate_sum": str(self.witness.rate_sum),
                "bound": str(self.witness.bound),
            }
        if self.margins:
            doc["margins"] = [
                {"w": w, "max_rate_sum": str(lhs), "r_secrecy": str(rhs)}
                for w, lhs, rhs in self.margins
            ]
        return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# exact criterion


def _hacked_sets(n: int, t: int):
    for size in range(t + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _incidence(index: GroupIndex, channels) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """For each channel, the ids of the groups holding both its endpoints,
    in record order; and each group's node tuple, by id."""
    covers, nodes = {e: [] for e in channels}, index.set_nodes.tolist()
    ends = list(itertools.accumulate(index.set_sizes.tolist()))
    sets = [tuple(nodes[a:b]) for a, b in zip([0] + ends, ends)]
    for g, group in enumerate(sets):
        for e in itertools.combinations(group, 2):
            if e in covers:
                covers[e].append(g)
    return list(covers.values()), sets


def _closures(covers, groups: int):
    """heaviest(weight, cost, forced) on one network, source -> channel k ->
    each group id in covers[k] -> sink, built once.  Channel k weighs
    weight[k] (0 keeps it out), and is in if forced; group g costs cost[g].
    Each call only sets capacities, and returns the weight of a heaviest
    closure, sum(weight) - flow, and the channels the last BFS reaches
    from the source, which form one (Picard, 1976)."""
    first = 2 + len(covers)  # group g is node first + g
    spans = [(2 + k, first + g) for k, gs in enumerate(covers) for g in gs]
    network = FlowNetwork(first + groups, [(0, 2 + k) for k in range(len(covers))] + spans
                          + [(first + g, 1) for g in range(groups)])

    def heaviest(weight, cost, forced=()):
        unbounded = sum(cost) + 1  # above every finite cut
        source = [unbounded if k in forced else w for k, w in enumerate(weight)]
        flow, _, reached = network.max_flow(source + [unbounded] * len(spans) + cost, 0, 1)
        return sum(weight) - flow, [k for k in range(len(covers)) if reached[2 + k]]
    return heaviest


def _lex_min_violation(l: int, heaviest, covers, rates, sizes, below=None):
    """The lexicographically smallest tuple of channel ids violating the
    criterion under one hacked set, or None if there is none below *below*.

    rates[k] is channel k's rate (0: it has a hacked endpoint) and sizes[g]
    is |G| (0: G touches the hacked set).  Channel k weighs K*D*l*r_k + 1
    and group G costs K*D*|G| (D: lcm of the rate denominators, K: one more
    than the number of rates).  A channel set P with the groups covering it
    then weighs K*D*(l*r(P) - f_h(P)) + |P|, positive iff P is nonempty
    and l*r(P) >= f_h(P), and one max-flow finds a heaviest P.  Then
    channels are fixed in id order: one inside the last violating set
    found joins for free, any other costs one flow that forces it in.
    """
    live = [k for k, r in enumerate(rates) if r]
    scale = (len(live) + 1) * math.lcm(*[rates[k].denominator for k in live])
    weight = [scale * l * r.numerator // r.denominator + 1 if r else 0 for r in rates]
    cost = [scale * size for size in sizes]

    def violating(forced=()):
        value, reached = heaviest(weight, cost, forced)
        return set(reached) if value > 0 else None

    found, chosen = violating(), []
    if found is None:
        return None
    for k in live:
        covered = {g for c in chosen for g in covers[c]}
        if chosen and sum(weight[c] for c in chosen) > sum(cost[g] for g in covered):
            break  # chosen itself violates
        if below is not None and (*chosen, k) >= below:
            return None
        if k not in found:
            larger = violating((*chosen, k))
            if larger is None:  # no violating set holds chosen and k: leave k out
                weight[k] = 0
                continue
            found = larger
        chosen.append(k)
    return tuple(chosen)


def check_exact(ks: KeyStore, profile: RateProfile, t: int) -> SecurityVerdict:
    """Iff-criterion.  Under a hacked set h, f_h(P) = |union of u_ij over
    P, minus u_h| is a weighted coverage function over the groups, so a
    channel set P with l*r(P) >= f_h(P) is found as a max-weight closure
    (Picard, 1976) on one `maxflow.FlowNetwork` per call, over the positive
    channels and their groups.  Each hacked set and each forced rerun only
    set capacities: a channel with a hacked endpoint weighs 0 and a group
    `touching` h costs 0, which changes no closure's weight.  Strict
    inequality at the boundary: privacy amplification is always applied,
    so a rate sum equal to the bound is already insecure.  The witness is
    the lexicographically smallest (channels, hacked) pair.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    NetworkParams(ks.n, t)

    positive = sorted((p, r) for p, r in profile.rates.items() if r > 0)
    covers, _ = _incidence(ks.index, [p for p, _ in positive])
    heaviest, sizes = _closures(covers, ks.index.count), ks.index.sizes.tolist()
    best = None  # (channel ids, in channel order; hacked), hacked sets in lex order
    for hacked in sorted(_hacked_sets(ks.n, t)):
        hset = set(hacked)
        rates = [r if hset.isdisjoint(p) else 0 for p, r in positive]
        if any(rates):
            touched = ks.index.touching(hacked).tolist()
            sizes_h = [0 if hit else size for size, hit in zip(sizes, touched)]
            ids = _lex_min_violation(ks.l, heaviest, covers, rates, sizes_h, best and best[0])
            best = (ids, hacked) if ids is not None else best

    if best is None:
        return SecurityVerdict(status=Status.ACHIEVABLE, method="exact")
    channels, hacked = tuple(positive[k][0] for k in best[0]), best[1]
    rate_sum = sum((profile.rate(*c) for c in channels), Fraction(0))
    bound = Fraction(ks.unhacked_union_size(channels, hacked), ks.l)
    return SecurityVerdict(status=Status.NOT_ACHIEVABLE, method="exact",
                           witness=Witness(hacked=hacked, channels=channels,
                                           rate_sum=rate_sum, bound=bound))


# ---------------------------------------------------------------------------
# relaxed per-size criterion


def lex_prefix_pairs(ns: int, w: int) -> list[tuple[int, int]]:
    """First w unhacked pairs in lexicographic order (nodes 1..ns)."""
    if not 1 <= w <= comb(ns, 2):
        raise ValueError(f"subset size w={w} must be in 1..C({ns},2)")
    pairs = list(itertools.combinations(range(1, ns + 1), 2))
    return pairs[:w]


def r_secrecy_w(ks: KeyStore, t: int, w: int) -> Fraction:
    """min over |P| = w and hacked sets of the shared unhacked rate,
    realized on the keystore via the lexicographic-prefix argument."""
    if not ks.scheme.is_symmetric():
        raise ValueError("r_secrecy_w needs a symmetric scheme")
    hacked = NetworkParams(ks.n, t).last_t_nodes
    prefix = lex_prefix_pairs(ks.n - t, w)
    return Fraction(ks.unhacked_union_size(prefix, hacked), ks.l)


def r_secrecy_w_closed(spec: SchemeSpec, n: int, t: int, w: int) -> Fraction:
    """Closed-form r_secrecy(w) for symmetric schemes (exact for the
    combinational family, in expectation for the random scheme)."""
    NetworkParams(n, t)
    spec.validate(n)
    if not spec.is_symmetric():
        raise ValueError("closed forms exist only for symmetric schemes")
    ns = n - t
    x, y = lex_prefix_pairs(ns, w)[-1]

    if spec.kind == "hybrid":
        lam = spec.lam
        return (lam * r_secrecy_w_closed(spec.parts[0], n, t, w)
                + (1 - lam) * r_secrecy_w_closed(spec.parts[1], n, t, w))
    if spec.kind == "random":
        p = spec.p
        q = 1 - p
        return q**t * (alpha(ns, p) / p - q**x * alpha(ns - x, p) / p
                       - q ** (y - 1) * (1 - q ** (ns - y)))
    a = n if spec.kind == "same" else spec.effective_a
    return Fraction(comb(ns, a) - comb(ns - x, a) - comb(ns - y, a - 1),
                    comb(n - 1, a - 1))


@lru_cache(maxsize=64)
def _r_secrecy_table(spec: SchemeSpec, n: int, t: int) -> tuple[Fraction, ...]:
    """r_secrecy(w) for w = 1..C(n-t, 2), computed once per (spec, n, t)."""
    return tuple(r_secrecy_w_closed(spec, n, t, w) for w in range(1, comb(n - t, 2) + 1))


def check_relaxed(spec: SchemeSpec, n: int, t: int,
                  profile: RateProfile) -> SecurityVerdict:
    """Sufficient criterion: for every subset size w, the w largest rates
    must sum below the minimum shared rate over all size-w subsets."""
    if profile.n != n:
        raise ValueError(f"profile is for n={profile.n}, expected {n}")
    NetworkParams(n, t)
    spec.validate(n)
    if not spec.is_symmetric():
        raise ValueError("check_relaxed needs a symmetric scheme spec")
    all_rates = sorted(
        (profile.rate(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)),
        reverse=True,
    )
    margins = tuple(zip(itertools.count(1), itertools.accumulate(all_rates),
                        _r_secrecy_table(spec, n, t)))
    ok = not any(lhs > 0 and lhs >= rhs for _, lhs, rhs in margins)
    status = Status.ACHIEVABLE if ok else Status.UNDECIDED
    return SecurityVerdict(status=status, method="relaxed", margins=margins)


# ---------------------------------------------------------------------------
# feasibility (group flow) criterion


def check_feasibility(ks: KeyStore, profile: RateProfile, t: int) -> SecurityVerdict:
    """Sufficient criterion via the concrete proportional flow split.

    For every hacked set, splits each positive rate across the unhacked
    groups shared by its endpoints in proportion to group size / group
    order, inflated by 1 + DEFAULT_EPSILON, and verifies the per-group capacity.
    A pass proves achievability; a fail leaves the profile undecided.

    Decided in integers: per hacked set, Q = lcm of den(r_e) * S_e (S_e:
    scaled_G summed over e's unhacked groups) makes each c_e = r_e * Q / S_e
    and each group load W_G = sum of its c_e an int, and G overflows iff
    (1+eps) * den * W_G * l > |nodes of G| * Q.  Fractions are built only
    for a witness, and for the splits when an assignment's values are read.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    NetworkParams(ks.n, t)
    if not ks.index.count:
        raise ValueError("feasibility check needs a group-structured keystore")

    # share_G = |G| / |nodes of G|, kept as an integer over one denominator.
    positive = [(p, r) for p, r in profile.rates.items() if r > 0]
    covers, sets = _incidence(ks.index, [p for p, _ in positive])
    sizes, den = dict(zip(sets, ks.index.sizes.tolist())), math.lcm(*ks.index.set_sizes.tolist())
    scaled = {nodes: size * (den // len(nodes)) for nodes, size in sizes.items()}
    boost = 1 + DEFAULT_EPSILON
    assignments = []
    for hacked in _hacked_sets(ks.n, t):
        hset = set(hacked)
        live = []  # (channel, rate, its unhacked groups, their scaled sum)
        for (e, r), groups in zip(positive, covers):
            if hset.isdisjoint(e):
                groups = [sets[g] for g in groups if hset.isdisjoint(sets[g])]
                if not groups:
                    return SecurityVerdict(Status.UNDECIDED, "feasibility",
                                           Witness(hacked, (e,), r, Fraction(0)))
                live.append((e, r, groups, sum(scaled[g] for g in groups)))
        q = math.lcm(*[r.denominator * s for _, r, _, s in live])
        shares = tuple((e, r.numerator * (q // (r.denominator * s)), groups)
                       for e, r, groups, s in live)
        load: dict[tuple[int, ...], int] = {}
        for _, c, groups in shares:
            for g in groups:
                load[g] = load.get(g, 0) + c
        for g, w in load.items():
            if boost.numerator * den * w * ks.l > len(g) * boost.denominator * q:
                channels = tuple(sorted(e for e, _, groups in shares if g in groups))
                return SecurityVerdict(Status.UNDECIDED, "feasibility", Witness(
                    hacked, channels, boost * Fraction(scaled[g] * w, q), Fraction(sizes[g], ks.l)))
        assignments.append(FlowAssignment(hacked, shares, q, scaled))
    return SecurityVerdict(status=Status.ACHIEVABLE, method="feasibility",
                           assignments=tuple(assignments))
