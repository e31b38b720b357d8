"""Closed-form rate arithmetic: capacities, scheme maximum rates, hybrid
combination and the t = 0 network/channel tradeoff.

All values are exact rationals; decimal rendering happens at the CLI edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .predistribution import SchemeSpec


@dataclass(frozen=True)
class NetworkParams:
    n: int
    t: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if not 0 <= self.t <= self.n - 2:
            raise ValueError(
                f"hacked-node bound t={self.t} must satisfy 0 <= t <= n-2 = {self.n - 2}"
            )

    @property
    def last_t_nodes(self) -> tuple[int, ...]:
        """Nodes n-t+1..n: the hacked set of `simulate` and the experiments."""
        return tuple(range(self.n - self.t + 1, self.n + 1))


@dataclass(frozen=True)
class MaxRates:
    net: Fraction
    channel: Fraction


def gamma(params: NetworkParams, a: int) -> Fraction:
    """Rate-loss factor from t hacked nodes for group size a; gamma(0, a) = 1."""
    if not 2 <= a <= params.n:
        raise ValueError(f"group size a={a} must satisfy 2 <= a <= n={params.n}")
    return Fraction(comb(params.n - params.t - 2, a - 2), comb(params.n - 2, a - 2))


def alpha(n: int, p: Fraction) -> Fraction:
    """Probability that a pool bit lands on at least two of n nodes."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability p={p} must be in [0, 1]")
    p = Fraction(p)
    return 1 - (1 - p) ** n - n * p * (1 - p) ** (n - 1)


def capacity(params: NetworkParams) -> MaxRates:
    """Network and channel capacity over all symmetric schemes.

    The channel capacity is C(n-t-2, a-2) / C(n-1, a-1) maximized over the
    group size a.  The maximizer is a = capacity_group_size(params), where
    it equals (a-1) * prod_{j<t} (n-a-j) / prod_{j=1..t+1} (n-j): O(t)
    multiplications, whatever n is.
    """
    n, t, a = params.n, params.t, capacity_group_size(params)
    channel = Fraction((a - 1) * prod(n - a - j for j in range(t)),
                       prod(n - j for j in range(1, t + 2)))
    return MaxRates(net=Fraction(n, 2), channel=channel)


def capacity_group_size(params: NetworkParams) -> int:
    """The group size achieving the channel capacity."""
    n, t = params.n, params.t
    a = -(-n // (t + 1))
    return min(max(a, 2), n - t)


def combinational_max_rates(params: NetworkParams, a: int) -> MaxRates:
    g = gamma(params, a)
    return MaxRates(net=Fraction(params.n, a) * g,
                    channel=Fraction(a - 1, params.n - 1) * g)


def random_max_rates(params: NetworkParams, p: Fraction) -> MaxRates:
    if not 0 < p <= 1:
        raise ValueError(f"probability p={p} must be in (0, 1]")
    n, t = params.n, params.t
    p = Fraction(p)
    q = 1 - p
    net = (Fraction(1, p) * Fraction(comb(n, 2), comb(n - t, 2))
           * (q**t - q**n - (n - t) * p * q ** (n - 1)))
    return MaxRates(net=net, channel=p * q**t)


def hybrid_max_rates(parts: list[tuple[Fraction, MaxRates]]) -> MaxRates:
    weights = [Fraction(lam) for lam, _ in parts]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("hybrid weights must be non-negative and sum to 1")
    return MaxRates(
        net=sum((w * r.net for w, (_, r) in zip(weights, parts)), Fraction(0)),
        channel=sum((w * r.channel for w, (_, r) in zip(weights, parts)), Fraction(0)),
    )


def scheme_max_rates(spec: SchemeSpec, params: NetworkParams) -> MaxRates:
    """Maximum rates for a scheme spec (sampled uses its group size a)."""
    if spec.kind == "same":
        # Degenerate a = n combinational scheme: one shared group.
        return MaxRates(net=Fraction(1) if params.t == 0 else Fraction(0),
                        channel=Fraction(1) if params.t == 0 else Fraction(0))
    if spec.kind in ("pairwise", "combinational", "sampled_combinational"):
        return combinational_max_rates(params, spec.effective_a)
    if spec.kind == "random":
        return random_max_rates(params, spec.p)
    if spec.kind == "hybrid":
        return hybrid_max_rates([
            (spec.lam, scheme_max_rates(spec.parts[0], params)),
            (1 - spec.lam, scheme_max_rates(spec.parts[1], params)),
        ])
    raise ValueError(f"unknown scheme kind {spec.kind!r}")


@dataclass(frozen=True)
class TradeoffResult:
    holds: bool
    slack: Fraction  # 1 - (net * 2/(n+1) + channel * (n-1)/(n+1))


def tradeoff_check(params: NetworkParams, r: MaxRates) -> TradeoffResult:
    """The t = 0 tradeoff: net * 2/(n+1) + channel * (n-1)/(n+1) <= 1."""
    if params.t != 0:
        raise ValueError("the network/channel tradeoff is established only for t = 0")
    n = params.n
    slack = 1 - (Fraction(r.net) * Fraction(2, n + 1)
                 + Fraction(r.channel) * Fraction(n - 1, n + 1))
    return TradeoffResult(holds=slack >= 0, slack=slack)


def tradeoff_achieving_rates(n: int, lam: Fraction) -> MaxRates:
    """Same-key/pairwise hybrid reaching the tradeoff bound with equality."""
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ValueError("fraction must be in [0, 1]")
    return MaxRates(net=lam + Fraction(n, 2) * (1 - lam),
                    channel=lam + Fraction(1, n - 1) * (1 - lam))
