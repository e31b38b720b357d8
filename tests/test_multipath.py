import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import netpad
from netpad.cli import main
from netpad.gf2 import BitString
from netpad.multipath import (
    Topology,
    disjoint_paths,
    plan,
    reconstruct,
    share,
)

from helpers import menger_max_paths, paths_are_disjoint


def random_topology(rng, n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    p = rng.uniform(0.2, 0.8)
    edges = frozenset(pair for pair in pairs if rng.random() < p)
    return Topology(n, edges)


def reachable(edges, removed, s, dst):
    seen, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for edge in edges:
            if u in edge and not removed.intersection(edge):
                v = edge[0] + edge[1] - u
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return dst in seen


# ---------------------------------------------------------------------------
# topology


def test_topology_normalizes_and_validates():
    topo = Topology(3, frozenset({(2, 1), (3, 2)}))
    assert topo.edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(ValueError):
        Topology(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Topology(3, frozenset({(1, 4)}))


def test_topology_json_roundtrip():
    topo = Topology(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    assert Topology.from_json(topo.to_json()) == topo


@pytest.mark.parametrize("doc,message", [
    ({"n": 4, "edges": [[1, 2]], "weights": [1]}, "unknown keys"),
    ({"n": 4, "edges": [[1, 2], [2, 3], [1, 2]]}, "lists an edge twice"),
    ({"n": 4, "edges": [[1, 2], [2, 3], [2, 1]]}, "lists an edge twice"),
])
def test_topology_json_refuses_other_documents(doc, message):
    # Read as a set, a repeated edge would silently collapse into one.
    with pytest.raises(ValueError, match=message):
        Topology.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# disjoint paths vs Menger oracle


def test_three_disjoint_paths_in_the_double_star():
    topo = Topology(5, frozenset({(1, 2), (2, 5), (1, 3), (3, 5), (1, 4), (4, 5)}))
    res = disjoint_paths(topo, 1, 5, 3)
    assert res.feasible and res.max_count == 3
    assert paths_are_disjoint(res.paths, 1, 5)


def test_path_graph_has_one_path():
    topo = Topology(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    res = disjoint_paths(topo, 1, 4, 2)
    assert not res.feasible and res.max_count == 1
    assert res.separator  # a single cut vertex certifies the limit
    assert len(res.separator) == 1


def test_disconnected_terminals():
    topo = Topology(4, frozenset({(1, 2), (3, 4)}))
    res = disjoint_paths(topo, 1, 4, 1)
    assert not res.feasible and res.max_count == 0
    assert res.separator == ()


def test_adjacent_terminals_count_the_direct_edge():
    topo = Topology(4, frozenset({(1, 4), (1, 2), (2, 4), (1, 3), (3, 4)}))
    res = disjoint_paths(topo, 1, 4, 3)
    assert res.feasible and res.max_count == 3
    assert (1, 4) in res.paths[0] or any(len(p) == 2 for p in res.paths)


def test_deterministic_path_selection():
    topo = Topology(6, frozenset({(1, 2), (2, 6), (1, 3), (3, 6), (1, 4),
                                  (4, 6), (1, 5), (5, 6)}))
    a = disjoint_paths(topo, 1, 6, 2)
    b = disjoint_paths(topo, 1, 6, 2)
    assert a.paths == b.paths


def test_validation():
    topo = Topology(3, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        disjoint_paths(topo, 1, 1, 1)
    with pytest.raises(ValueError):
        disjoint_paths(topo, 1, 9, 1)
    with pytest.raises(ValueError):
        disjoint_paths(topo, 1, 2, 0)


@pytest.mark.parametrize("seed", range(6))
def test_max_count_matches_menger_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        topo = random_topology(rng, n)
        nodes = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        s, dst = int(nodes[0]), int(nodes[1])
        res = disjoint_paths(topo, s, dst, n)
        assert not res.feasible  # n paths never fit in n nodes
        assert res.max_count == menger_max_paths(topo, s, dst)
        assert paths_are_disjoint(res.paths, s, dst)
        for path in res.paths:
            for u, v in zip(path, path[1:]):
                assert (min(u, v), max(u, v)) in topo.edges
        # The separator is a Menger certificate: without its nodes and the
        # direct edge dst is unreachable, and it has one node per path.
        direct = (min(s, dst), max(s, dst))
        assert not reachable(topo.edges - {direct}, set(res.separator), s, dst)
        assert len(res.separator) == res.max_count - (direct in topo.edges)


# ---------------------------------------------------------------------------
# secret sharing


def test_share_reconstruct_roundtrip():
    rng = np.random.default_rng(1)
    for trial in range(100):
        m = int(rng.integers(1, 65))
        t = int(rng.integers(0, 6))
        x = BitString.random(m, rng)
        shares = share(x, t, seed=[7, trial])
        assert len(shares.packets) == t + 1
        assert reconstruct(shares.packets) == x


def test_any_proper_subset_is_uniform():
    # Exhaustive over the share randomness: every proper packet subset has
    # the same distribution for every message (hence leaks nothing).
    for m in (1, 2):
        for t in (1, 2):
            histograms = {}
            for x_val in range(1 << m):
                x = BitString([x_val >> b & 1 for b in range(m)])
                for subset in itertools.chain.from_iterable(
                    itertools.combinations(range(t + 1), k) for k in range(1, t + 1)
                ):
                    hist = {}
                    for rand in range(1 << (m * t)):
                        packets = [
                            BitString([rand >> (p * m + b) & 1 for b in range(m)])
                            for p in range(t)
                        ]
                        last = x
                        for p in packets:
                            last = last ^ p
                        packets.append(last)
                        key = tuple(packets[s].to01() for s in subset)
                        hist[key] = hist.get(key, 0) + 1
                    histograms.setdefault(subset, {})[x_val] = hist
            for subset, by_message in histograms.items():
                baseline = by_message[0]
                assert len(set(baseline.values())) == 1  # uniform
                for hist in by_message.values():
                    assert hist == baseline  # independent of the message


def test_share_packets_match_the_code_rule():
    x = BitString.from01("1101")
    shares = share(x, 3, seed=9)
    acc = shares.packets[0]
    for p in shares.packets[1:]:
        acc = acc ^ p
    assert acc == x


def test_reconstruct_validation():
    with pytest.raises(ValueError):
        reconstruct([])
    with pytest.raises(ValueError):
        reconstruct([BitString.zeros(2), BitString.zeros(3)])


# ---------------------------------------------------------------------------
# planning


def test_plan_costs_cover_every_hop():
    topo = Topology(5, frozenset({(1, 2), (2, 5), (1, 3), (3, 5), (1, 4), (4, 5)}))
    p = plan(topo, 1, 5, 2, message_bits=16)
    assert len(p.paths) == 3
    assert p.total_cost == sum(
        (len(path) - 1) * 16 for path in p.paths
    )
    assert p.total_cost >= 2 * (2 + 1) * 16  # >= 2 hops per share path
    doc = json.loads(p.to_json())
    assert doc["total_cost"] == p.total_cost


def test_plan_respects_blocked_channels():
    topo = Topology(5, frozenset({(1, 2), (2, 5), (1, 3), (3, 5), (1, 4), (4, 5)}))
    p = plan(topo, 1, 5, 1, message_bits=4, blocked_channels=[(1, 2)])
    used = {hop for path in p.paths for hop in zip(path, path[1:])}
    assert (1, 2) not in used and (2, 1) not in used


def test_plan_reports_separator_when_infeasible():
    topo = Topology(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    with pytest.raises(ValueError) as err:
        plan(topo, 1, 4, 1, message_bits=4)
    assert "separator" in str(err.value)


# ---------------------------------------------------------------------------
# cost follows the file, and multipath needs no graph library


def test_graph_holds_only_named_nodes():
    topo = Topology(10**9, frozenset({(1, 2)}))
    assert topo.nodes() == [1, 2]
    assert topo.nodes(7, 1) == [1, 2, 7]
    start = time.process_time()
    res = disjoint_paths(topo, 1, 2, 2)
    assert time.process_time() - start < 1
    assert (res.feasible, res.max_count, res.separator) == (False, 1, ())


def test_cli_multipath_on_a_huge_header_is_quick(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text('{"n": 1000000000, "edges": [[1, 2]]}')
    start = time.process_time()
    result = CliRunner().invoke(main, ["multipath", "--topology", str(path),
                                       "--s", "1", "--dst", "2", "--t", "1"])
    assert time.process_time() - start < 1
    assert result.exit_code == 1, result.output
    assert "only 1 node-disjoint paths" in result.output


def test_cli_multipath_runs_with_networkx_blocked(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(Topology(4, frozenset({(1, 2), (2, 4), (1, 3), (3, 4)})).to_json())
    env = {**os.environ, "PYTHONPATH": str(Path(netpad.__file__).parents[1])}
    probe = ("import runpy, sys; sys.modules['networkx'] = None; "
             "runpy.run_module('netpad.cli', run_name='__main__')")
    run = subprocess.run([sys.executable, "-c", probe, "multipath", "--topology",
                          str(path), "--s", "1", "--dst", "4", "--t", "1"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["paths"] == [[1, 2, 4], [1, 3, 4]]
