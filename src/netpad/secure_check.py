"""Achievability checkers for a set of channel rates.

Three routes:
  * check_exact      — iff-criterion, one `maxflow.max_flow` per hacked
                       set: every channel subset with positive rate sum
                       must stay strictly below its shared unhacked-bit rate.
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

from .maxflow import max_flow
from .predistribution import KeyStore, SchemeSpec, parse_fraction
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


def _covering_groups(ks: KeyStore, channels) -> dict:
    """Channel -> the group tuples holding both its endpoints, in record
    order: the channel x group incidence of one check."""
    covers: dict = {e: [] for e in channels}
    for nodes in ks.index.node_sets:
        for e in itertools.combinations(nodes, 2):
            if e in covers:
                covers[e].append(nodes)
    return covers


def _heaviest_closure(weight, covers, cost):
    """Max-flow over source -> channel -> group -> sink.

    weight[k] caps channel k's source arc (None: unbounded, the channel
    is forced), covers[k] lists its groups, each an unbounded arc, and
    cost maps a group to its sink capacity.  Returns the flow value and
    the channels the last BFS reaches from the source: the channels of
    a heaviest closure, weighing sum(weight) - flow (Picard, 1976).
    """
    unbounded = sum(cost.values()) + 1  # above every finite cut
    node = {g: 2 + len(weight) + k for k, g in enumerate(cost)}
    arcs = []
    for k, (w, groups) in enumerate(zip(weight, covers)):
        arcs.append((0, 2 + k, unbounded if w is None else w))
        arcs.extend((2 + k, node[g], unbounded) for g in groups)
    arcs.extend((node[g], 1, c) for g, c in cost.items())
    flow, _, reached = max_flow(2 + len(weight) + len(cost), arcs, 0, 1)
    return flow, [k for k in range(len(weight)) if reached[2 + k]]


def _lex_min_violation(l: int, pairs, covers, sizes, below=None):
    """The lexicographically smallest channel tuple violating the criterion
    under one hacked set, or None if there is none below the tuple *below*.

    *pairs* are the unhacked channels with their rates, *covers* maps each
    to its unhacked groups and *sizes* maps a group to |G|.  Channel e
    weighs K*D*l*r_e + 1 and each group G costs K*D*|G| (D: lcm of the
    rate denominators, K = len(pairs) + 1).  A channel set P with the
    groups that hold both endpoints of one of its channels then weighs
    K*D*(l*r(P) - f_h(P)) + |P|, positive iff P is nonempty and
    l*r(P) >= f_h(P), and one max-flow finds a heaviest P.  Then channels
    are fixed in sorted order: one inside the last violating set found
    joins for free, any other costs one flow that forces it in.
    """
    scale = (len(pairs) + 1) * math.lcm(*[r.denominator for _, r in pairs])
    weight = {e: int(scale * l * r) + 1 for e, r in pairs}
    cost = {g: scale * sizes[g] for e in weight for g in covers[e]}

    def gain(channels) -> int:
        groups = {g for e in channels for g in covers[e]}
        return sum(map(weight.get, channels)) - sum(map(cost.get, groups))

    def heaviest(forced, excluded):
        live = [e for e in weight if e not in excluded]
        flow, reached = _heaviest_closure(
            [None if e in forced else weight[e] for e in live],
            [covers[e] for e in live],
            {g: cost[g] for e in live for g in covers[e]})
        total = sum(weight[e] for e in live)
        return {live[k] for k in reached} if total > flow else None

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
    """Iff-criterion, decided by one max-flow per hacked set.

    Under a hacked set h, f_h(P) = |union of u_ij over P, minus u_h| is a
    weighted coverage function over the groups, so finding a channel set
    P with l*r(P) >= f_h(P) is a max-weight closure problem (Picard, 1976),
    solved by `maxflow.max_flow` over the channel x group incidence, which
    is built once per call.  Strict inequality at the boundary: privacy
    amplification is always applied, so a rate sum equal to the bound is
    already insecure.  The witness is the lexicographically smallest
    (channels, hacked) pair.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    NetworkParams(ks.n, t)

    positive = sorted((p, r) for p, r in profile.rates.items() if r > 0)
    covering = _covering_groups(ks, [p for p, _ in positive])
    sizes = ks.index.size_of
    best = None  # (channels, hacked); hacked sets run in lex order
    for hacked in sorted(_hacked_sets(ks.n, t)):
        hset = set(hacked)
        pairs = [(p, r) for p, r in positive if hset.isdisjoint(p)]
        if not pairs:
            continue
        covers = {e: [g for g in covering[e] if hset.isdisjoint(g)] for e, _ in pairs}
        channels = _lex_min_violation(ks.l, pairs, covers, sizes, best and best[0])
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


def check_feasibility(ks: KeyStore, profile: RateProfile, t: int) -> SecurityVerdict:
    """Sufficient criterion via the concrete proportional flow split.

    For every hacked set, splits each positive rate across the unhacked
    groups shared by its endpoints in proportion to group size / group
    order, inflated by 1 + DEFAULT_EPSILON, and verifies the per-group capacity.
    A pass proves achievability; a fail leaves the profile undecided.
    """
    if profile.n != ks.n:
        raise ValueError(f"profile is for n={profile.n}, keystore has n={ks.n}")
    NetworkParams(ks.n, t)
    if not ks.index.node_sets:
        raise ValueError("feasibility check needs a group-structured keystore")

    # share_G = |G| / |nodes of G|, kept as an integer over one denominator.
    sizes = ks.index.size_of
    den = math.lcm(*map(len, sizes))
    scaled = {nodes: size * (den // len(nodes)) for nodes, size in sizes.items()}
    share = {nodes: Fraction(s, den) for nodes, s in scaled.items()}
    boost = (1 + DEFAULT_EPSILON) * den
    positive = [(p, r) for p, r in profile.rates.items() if r > 0]
    covering = _covering_groups(ks, [p for p, _ in positive])
    assignments = []
    for hacked in _hacked_sets(ks.n, t):
        hset = set(hacked)
        values: dict = {}
        per_group_q: dict[tuple[int, ...], Fraction] = {}
        for (i, j), r in positive:
            if i in hset or j in hset:
                continue
            groups = [g for g in covering[(i, j)] if hset.isdisjoint(g)]
            if not groups:
                return SecurityVerdict(status=Status.UNDECIDED, method="feasibility",
                                       witness=Witness(hacked=hacked,
                                                       channels=((i, j),),
                                                       rate_sum=r, bound=Fraction(0)))
            q = boost * r / sum(scaled[g] for g in groups)
            for g in groups:
                values[(g, (i, j))] = share[g] * q
                per_group_q[g] = per_group_q[g] + q if g in per_group_q else q
        for g, q_sum in per_group_q.items():
            # sum_x > |G|/l  iff  sum_q > |nodes|/l, since x = share_G * q.
            if q_sum > Fraction(len(g), ks.l):
                total, cap = share[g] * q_sum, Fraction(sizes[g], ks.l)
                return SecurityVerdict(
                    status=Status.UNDECIDED, method="feasibility",
                    witness=Witness(
                        hacked=hacked,
                        channels=tuple(sorted(p for h, p in values if h == g)),
                        rate_sum=total, bound=cap,
                    ),
                )
        assignments.append(FlowAssignment(hacked=hacked, values=values))
    return SecurityVerdict(status=Status.ACHIEVABLE, method="feasibility",
                           assignments=tuple(assignments))
