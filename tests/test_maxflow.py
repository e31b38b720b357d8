import itertools

import numpy as np

from netpad.maxflow import FlowNetwork


def cut_capacity(arcs, caps, side):
    return sum(c for (u, v), c in zip(arcs, caps) if u in side and v not in side)


def test_max_flow_matches_the_minimum_cut_by_enumeration():
    # One network per graph, run with three capacity lists in turn: each
    # run must match its own minimum cut, so no run starts from the flow
    # the one before it left.
    rng = np.random.default_rng(1970)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        s, t = (int(v) for v in rng.choice(n, 2, replace=False))
        arcs = []
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            arcs.append((u, v))
            if rng.random() < 0.2:  # a parallel or a reverse arc
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        network = FlowNetwork(n, arcs)
        others = [v for v in range(n) if v not in (s, t)]
        sides = [{s, *extra} for size in range(len(others) + 1)
                 for extra in itertools.combinations(others, size)]
        for _ in range(3):
            caps = [int(c) for c in rng.integers(0, 6, len(arcs))]
            value, flow, reached = network.max_flow(caps, s, t)

            cuts = [cut_capacity(arcs, caps, side) for side in sides]
            assert value == min(cuts)

            assert len(flow) == len(arcs)
            assert all(0 <= f <= c for f, c in zip(flow, caps))
            net = [0] * n
            for f, (u, v) in zip(flow, arcs):
                net[u] -= f
                net[v] += f
            assert all(net[v] == 0 for v in others)
            assert net[t] == value == -net[s]

            side = {v for v in range(n) if reached[v]}
            assert s in side and t not in side
            assert cut_capacity(arcs, caps, side) == value
            for other, cap in zip(sides, cuts):
                if cap == value:
                    assert side <= other  # the minimum cut closest to s


def test_max_flow_without_arcs():
    assert FlowNetwork(3, []).max_flow([], 0, 2) == (0, [], [True, False, False])

