import itertools

import numpy as np

from netpad.maxflow import max_flow


def cut_capacity(arcs, side):
    return sum(c for u, v, c in arcs if u in side and v not in side)


def test_max_flow_matches_the_minimum_cut_by_enumeration():
    rng = np.random.default_rng(1970)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        s, t = (int(v) for v in rng.choice(n, 2, replace=False))
        arcs = []
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            c = int(rng.integers(0, 6))
            arcs.append((u, v, c))
            if rng.random() < 0.2:  # a parallel or a reverse arc
                arcs.append((u, v, c) if rng.random() < 0.5 else (v, u, c))
        value, flow, reached = max_flow(n, arcs, s, t)

        others = [v for v in range(n) if v not in (s, t)]
        sides = [{s, *extra} for size in range(len(others) + 1)
                 for extra in itertools.combinations(others, size)]
        caps = [cut_capacity(arcs, side) for side in sides]
        assert value == min(caps)

        assert len(flow) == len(arcs)
        assert all(0 <= f <= c for f, (_, _, c) in zip(flow, arcs))
        net = [0] * n
        for f, (u, v, _) in zip(flow, arcs):
            net[u] -= f
            net[v] += f
        assert all(net[v] == 0 for v in others)
        assert net[t] == value == -net[s]

        side = {v for v in range(n) if reached[v]}
        assert s in side and t not in side
        assert cut_capacity(arcs, side) == value
        for other, cap in zip(sides, caps):
            if cap == value:
                assert side <= other  # the minimum cut closest to s


def test_max_flow_without_arcs():
    assert max_flow(3, [], 0, 2) == (0, [], [True, False, False])
