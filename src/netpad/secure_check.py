"""Achievability checkers for a set of channel rates.

Three routes:
  * check_exact      — iff-criterion, one minimum cut per hacked set:
                       every channel subset with positive rate sum must
                       stay strictly below its shared unhacked-bit rate.
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
from math import comb

import networkx as nx

from .predistribution import KeyStore, SchemeSpec, parse_fraction
from .rates import alpha

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
            rates = {(e["i"], e["j"]): parse_fraction(str(e["r"])) for e in entries}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed rate profile: {exc!r}") from None
        if any(type(v) is not int for v in (n, *itertools.chain(*rates))):
            raise ValueError("rate profile node ids must be integers")
        return cls(n, rates)

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
    """Non-negative per-group rate split x^G_ij for one hacked set."""

    hacked: tuple[int, ...]
    values: dict[tuple[tuple[int, ...], tuple[int, int]], Fraction]


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


def _lex_min_violation(ks: KeyStore, pairs, hacked, below=None):
    """The lexicographically smallest channel tuple violating the criterion
    under *hacked*, or None if there is none below the tuple *below*.

    Channel e weighs K*D*l*r_e + 1 and each unhacked group G costs K*D*|G|
    (D: lcm of the rate denominators, K = len(pairs) + 1).  A channel set
    P with the groups that hold both endpoints of one of its channels then
    weighs K*D*(l*r(P) - f_h(P)) + |P|, positive iff P is nonempty and
    l*r(P) >= f_h(P), and one minimum s-t cut finds a heaviest P.  Then
    channels are fixed in sorted order: one inside the last violating set
    found joins for free, any other costs one cut that forces it in.
    """
    scale = (len(pairs) + 1) * math.lcm(*[r.denominator for _, r in pairs])
    weight = {e: int(scale * ks.l * r) + 1 for e, r in pairs}
    # Tagged, since a two-node group's tuple is also its channel's name.
    cost = {("group", nodes): scale * len(idx)
            for nodes, idx in ks.groups.items() if set(hacked).isdisjoint(nodes)}
    covers = {e: [g for g in cost if e[0] in g[1] and e[1] in g[1]] for e in weight}

    def gain(channels) -> int:
        groups = {g for e in channels for g in covers[e]}
        return sum(map(weight.get, channels)) - sum(map(cost.get, groups))

    def heaviest(forced, excluded):
        graph = nx.DiGraph()
        graph.add_node("t")
        for e in weight.keys() - excluded:
            # A forced channel's source edge has no capacity: infinite.
            graph.add_edge("s", e, **({} if e in forced else {"capacity": weight[e]}))
            for g in covers[e]:
                graph.add_edge(e, g)
                graph.add_edge(g, "t", capacity=cost[g])
        total = sum(weight[e] for e in weight.keys() - excluded)
        cut, (source_side, _) = nx.minimum_cut(graph, "s", "t")
        return source_side if total > cut else None

    found = heaviest(set(), set())
    if found is None:
        return None
    chosen, excluded = [], set()
    for e in weight:
        if chosen and gain(chosen) > 0:
            break
        if below is not None and (*chosen, e) >= below:
            return None
        if e not in found:
            larger = heaviest({*chosen, e}, excluded)
            if larger is None:
                excluded.add(e)
                continue
            found = larger
        chosen.append(e)
    return tuple(chosen)


def check_exact(ks: KeyStore, profile: RateProfile, t: int) -> SecurityVerdict:
    """Iff-criterion, decided by one minimum cut per hacked set.

    Under a hacked set h, f_h(P) = |union of u_ij over P, minus u_h| is a
    weighted coverage function over the groups, so finding a channel set
    P with l*r(P) >= f_h(P) is a max-weight closure problem (Picard, 1976).
    Strict inequality at the boundary: privacy amplification is always
    applied, so a rate sum equal to the bound is already insecure.  The
    witness is the lexicographically smallest (channels, hacked) pair.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    if not 0 <= t <= ks.n - 2:
        raise ValueError(f"t={t} must satisfy 0 <= t <= n-2 = {ks.n - 2}")

    positive = sorted((p, r) for p, r in profile.rates.items() if r > 0)
    best = None  # (channels, hacked); hacked sets run in lex order
    for hacked in sorted(_hacked_sets(ks.n, t)):
        pairs = [(p, r) for p, r in positive if set(p).isdisjoint(hacked)]
        if not pairs:
            continue
        channels = _lex_min_violation(ks, pairs, hacked, best and best[0])
        if channels is not None:
            best = (channels, hacked)

    if best is None:
        return SecurityVerdict(status=Status.ACHIEVABLE, method="exact")
    channels, hacked = best
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
    ns = ks.n - t
    prefix = lex_prefix_pairs(ns, w)
    hacked = tuple(range(ns + 1, ks.n + 1))
    return Fraction(ks.unhacked_union_size(prefix, hacked), ks.l)


def r_secrecy_w_closed(spec: SchemeSpec, n: int, t: int, w: int) -> Fraction:
    """Closed-form r_secrecy(w) for symmetric schemes (exact for the
    combinational family, in expectation for the random scheme)."""
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


def check_relaxed(spec: SchemeSpec, n: int, t: int,
                  profile: RateProfile) -> SecurityVerdict:
    """Sufficient criterion: for every subset size w, the w largest rates
    must sum below the minimum shared rate over all size-w subsets."""
    if profile.n != n:
        raise ValueError(f"profile is for n={profile.n}, expected {n}")
    spec.validate(n)
    if not spec.is_symmetric():
        raise ValueError("check_relaxed needs a symmetric scheme spec")
    all_rates = sorted(
        (profile.rate(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)),
        reverse=True,
    )
    margins = []
    ok = True
    for w in range(1, comb(n - t, 2) + 1):
        lhs = sum(all_rates[:w], Fraction(0))
        rhs = r_secrecy_w_closed(spec, n, t, w)
        margins.append((w, lhs, rhs))
        if lhs > 0 and lhs >= rhs:
            ok = False
    status = Status.ACHIEVABLE if ok else Status.UNDECIDED
    return SecurityVerdict(status=status, method="relaxed", margins=tuple(margins))


# ---------------------------------------------------------------------------
# feasibility (group flow) criterion


def check_feasibility(ks: KeyStore, profile: RateProfile, t: int,
                      epsilon: Fraction = DEFAULT_EPSILON) -> SecurityVerdict:
    """Sufficient criterion via the concrete proportional flow split.

    For every hacked set, splits each positive rate across the unhacked
    groups shared by its endpoints in proportion to group size / group
    order, inflated by (1 + epsilon), and verifies the per-group capacity.
    A pass proves achievability; a fail leaves the profile undecided.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    if not ks.groups:
        raise ValueError("feasibility check needs a group-structured keystore")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    assignments = []
    for hacked in _hacked_sets(ks.n, t):
        hset = set(hacked)
        surviving = {nodes: len(idx) for nodes, idx in ks.groups.items()
                     if not hset.intersection(nodes)}
        values: dict = {}
        per_group_sum: dict[tuple[int, ...], Fraction] = {}
        for (i, j), r in profile.rates.items():
            if r == 0 or i in hset or j in hset:
                continue
            shares = {nodes: Fraction(size, len(nodes))
                      for nodes, size in surviving.items()
                      if i in nodes and j in nodes}
            denom = sum(shares.values(), Fraction(0))
            if denom == 0:
                return SecurityVerdict(status=Status.UNDECIDED, method="feasibility",
                                       witness=Witness(hacked=hacked,
                                                       channels=((i, j),),
                                                       rate_sum=r, bound=Fraction(0)))
            for nodes, share in shares.items():
                x = share / denom * (1 + epsilon) * r
                values[(nodes, (i, j))] = x
                per_group_sum[nodes] = per_group_sum.get(nodes, Fraction(0)) + x
        for nodes, total in per_group_sum.items():
            cap = Fraction(surviving[nodes], ks.l)
            if total > cap:
                return SecurityVerdict(
                    status=Status.UNDECIDED, method="feasibility",
                    witness=Witness(
                        hacked=hacked,
                        channels=tuple(sorted(p for g, p in values if g == nodes)),
                        rate_sum=total, bound=cap,
                    ),
                )
        assignments.append(FlowAssignment(hacked=hacked, values=values))
    return SecurityVerdict(status=Status.ACHIEVABLE, method="feasibility",
                           assignments=tuple(assignments))
