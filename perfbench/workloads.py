"""The three workloads: one fixed operation each, with inputs drawn from
the workload seed and correctness checks made apart from the program.

Every library call goes through a module attribute (``predistribution.
generate``, not a name imported from it) so that the traced run's wrappers
see it.  ``prepare`` draws an operation's inputs, ``run`` is the timed
part, and ``check`` validates the outputs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from netpad import adversary, amplify, cli, keystore_io, predistribution, secure_check
from netpad.gf2 import BitString
from netpad.predistribution import SchemeSpec
from netpad.secure_check import RateProfile, Status

# NPCT header: magic, version u16, i u32, j u32, counter u64, seed 16 bytes,
# body bit count u64 (see keystore_io/amplify).  Parsed here by layout so the
# key-stream check does not go through the program's decoder.
NPCT_HEADER = 4 + 2 + 4 + 4 + 8 + 16 + 8


class CliFailed(Exception):
    """An in-process CLI call exited with a non-zero code."""


class Messaging:
    """A deployed node sends 80-byte telemetry messages to its peers."""

    SCHEME, N, L = "comb:a=3", 4, 12600  # |u_ij| = (n-2) * l / C(n-1, 2) = 8400
    MESSAGE_BYTES = 80
    round_size = 6  # one message on each of the six channels

    def __init__(self, seed: int, workdir: Path, tracer):
        self.rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.tracer = tracer
        self.channels = list(itertools.combinations(range(1, self.N + 1), 2))
        self.key_streams: set[bytes] = set()
        self.sink = io.StringIO()
        self.ops = 0

    def setup(self) -> None:
        store = predistribution.generate(SchemeSpec.parse(self.SCHEME), self.N, self.L,
                                         int(self.rng.integers(2**62)))
        for node in range(1, self.N + 1):
            keystore_io.save_node_view(store, node, self._view(node))

    def _view(self, node: int) -> str:
        return str(self.workdir / f"node{node}.npks")

    def _cli(self, name: str, args: list[str]) -> None:
        self.sink.seek(0)
        self.sink.truncate()
        try:
            with contextlib.redirect_stdout(self.sink):
                self.tracer.call(name, cli.main.main, args, prog_name="netpad",
                                 self_name="cli.self_ms")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise CliFailed(f"netpad {args[0]} exited {exc.code}") from None
        else:
            raise CliFailed(f"netpad {args[0]} returned without exiting")

    def prepare(self) -> dict:
        i, j = self.channels[self.ops % len(self.channels)]
        counter = self.ops // len(self.channels) + 1
        self.ops += 1
        plaintext = self.rng.bytes(self.MESSAGE_BYTES)
        paths = {name: self.workdir / f"{name}.bin" for name in ("pt", "ct", "out")}
        paths["pt"].write_bytes(plaintext)
        return {"i": i, "j": j, "counter": counter, "seed": int(self.rng.integers(2**62)),
                "plaintext": plaintext, "paths": paths}

    def run(self, op: dict) -> None:
        paths = op["paths"]
        self._cli("cli.encrypt_ms", [
            "encrypt", "--keystore", self._view(op["i"]), "--peer", str(op["j"]),
            "--in", str(paths["pt"]), "--out", str(paths["ct"]),
            "--counter", str(op["counter"]), "--seed", str(op["seed"])])
        self._cli("cli.decrypt_ms", [
            "decrypt", "--keystore", self._view(op["j"]),
            "--in", str(paths["ct"]), "--out", str(paths["out"])])

    def check(self, op: dict) -> bool:
        """Exact round trip, and no key stream repeats (a two-time pad)."""
        paths, plaintext = op["paths"], op["plaintext"]
        if paths["out"].read_bytes() != plaintext:
            return False
        raw = paths["ct"].read_bytes()
        n_bits = int.from_bytes(raw[NPCT_HEADER - 8:NPCT_HEADER], "little")
        body = raw[NPCT_HEADER:]
        if raw[:4] != b"NPCT" or n_bits != 8 * len(plaintext) or len(body) != len(plaintext):
            return False
        stream = bytes(a ^ b for a, b in zip(body, plaintext))
        if stream in self.key_streams:
            return False
        self.key_streams.add(stream)
        return True

    def bits(self, op: dict) -> int:
        return 8 * len(op["plaintext"])


class Provisioning:
    """An operator provisions two networks and deploys every node view."""

    # (scheme, n, l): the random scheme runs the Feistel network once per
    # bit per node on generate and again on load; comb:a=3 has a
    # C(n-1,2)-group quota that divides l.
    NETWORKS = (("random:p=1/2", 8, 500), ("comb:a=3", 10, 1800))
    round_size = 1

    def __init__(self, seed: int, workdir: Path, tracer):
        self.rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.specs = [(SchemeSpec.parse(text), n, l) for text, n, l in self.NETWORKS]

    def setup(self) -> None:
        pass

    def prepare(self) -> dict:
        return {"seed": int(self.rng.integers(2**62))}

    def run(self, op: dict) -> None:
        op["results"] = []
        for spec, n, l in self.specs:
            full = str(self.workdir / "full.npks")
            views = [str(self.workdir / f"view{node}.npks") for node in range(1, n + 1)]
            store = predistribution.generate(spec, n, l, op["seed"])
            keystore_io.save(store, full)
            for node, path in enumerate(views, start=1):
                keystore_io.save_node_view(store, node, path)
            loaded = keystore_io.load(full)
            loaded_views = [keystore_io.load_node_view(path) for path in views]
            op["results"].append((spec, n, l, store, loaded, loaded_views))

    def check(self, op: dict) -> bool:
        return all(self._check_network(*result) for result in op["results"])

    @staticmethod
    def _check_network(spec, n, l, store, loaded, views) -> bool:
        if loaded.groups != store.groups or loaded.pool != store.pool:
            return False
        pool = store.pool.bits
        held = []
        for node, view in enumerate(views, start=1):
            expected = {k for nodes, idx in store.groups.items() if node in nodes for k in idx}
            if view.node != node or set(view.values) != expected:
                return False
            if any(view.values[k] != pool[k] for k in expected):
                return False
            held.append(expected)
        if spec.kind == "combinational":
            g = l // comb(n - 1, spec.a - 1)
            if any(len(h) != comb(n - 1, 2) * g for h in held):
                return False
            return all(len(held[i] & held[j]) == (n - 2) * g
                       for i, j in itertools.combinations(range(n), 2))
        # random scheme: F(., i) is a bijection, so each node fills its l
        # storage slots exactly once.
        return all(sorted(view.locations.values()) == list(range(1, l + 1))
                   for view in views)

    def bits(self, op: dict) -> int:
        return sum(store.u for _, _, _, store, _, _ in op["results"])


class Audit:
    """A planner checks a rate profile and certifies its transcript."""

    SCHEME, N, T, L = "comb:a=3", 7, 1, 1500
    HACKED = (7,)
    # Rates are k/3000 with k uniform in 60..240, so every triangle of
    # channels sums below 4/15 and the group-flow split of
    # check_feasibility always fits: the profile lies in the region.
    RATE_DEN, RATE_LO, RATE_HI = 3000, 60, 240
    # Two channels carry no traffic, so check_exact enumerates 2^19 channel
    # subsets for the empty hacked set.  With all 21 channels positive it
    # enumerates 2^21 and one operation takes about 0.65 s, too long for
    # 100 operations in one run.
    IDLE_CHANNELS = 2
    round_size = 1

    def __init__(self, seed: int, workdir: Path, tracer):
        self.rng = np.random.default_rng([seed, 3])
        self.pairs = list(itertools.combinations(range(1, self.N + 1), 2))
        self.store = None

    def setup(self) -> None:
        self.store = predistribution.generate(SchemeSpec.parse(self.SCHEME), self.N,
                                              self.L, int(self.rng.integers(2**62)))

    def prepare(self) -> dict:
        idle = set(self.rng.choice(len(self.pairs), self.IDLE_CHANNELS, replace=False))
        rates = {pair: Fraction(0) if k in idle else
                 Fraction(int(self.rng.integers(self.RATE_LO, self.RATE_HI + 1)),
                          self.RATE_DEN)
                 for k, pair in enumerate(self.pairs)}
        messages = {}
        for (i, j), r in rates.items():
            m_bits = int(r * self.L)
            if m_bits and i not in self.HACKED and j not in self.HACKED:
                messages[(i, j)] = BitString.random(m_bits, self.rng)
        return {"profile": RateProfile(self.N, rates), "messages": messages,
                "seed": int(self.rng.integers(2**62))}

    def run(self, op: dict) -> None:
        ks, profile = self.store, op["profile"]
        op["exact"] = secure_check.check_exact(ks, profile, self.T)
        op["feasibility"] = secure_check.check_feasibility(ks, profile, self.T)
        op["relaxed"] = secure_check.check_relaxed(ks.scheme, ks.n, self.T, profile)
        cts = []
        for (i, j), msg in op["messages"].items():
            state = amplify.ChannelCipherState(i, j)
            cts.append(amplify.encrypt(ks, state, msg, seed=[op["seed"], i, j]))
        op["ciphertexts"] = cts
        op["witness"] = adversary.build_security_matrix(
            ks, adversary.Transcript(ciphertexts=tuple(cts), hacked=self.HACKED))

    def check(self, op: dict) -> bool:
        """check_exact agrees with the group-flow proof of check_feasibility,
        and the witness matches an own construction: each key stream equals
        its sampling rows times the pool, the rows embed into the unhacked
        columns as built here, and the rank from an elimination over Python
        ints equals the witness rank.  check_relaxed is advisory (it never
        claims non-achievability), so its verdict is not compared."""
        if (op["feasibility"].status is not Status.ACHIEVABLE
                or op["exact"].status is not Status.ACHIEVABLE):
            return False
        ks = self.store
        groups = ks.groups.items()
        hacked_idx = {k for nodes, idx in groups if set(nodes) & set(self.HACKED) for k in idx}
        unhacked = [k for k in range(ks.u) if k not in hacked_idx]
        column = {k: pos for pos, k in enumerate(unhacked)}
        pool = ks.pool.bits.astype(np.int64)
        rows = []
        for ct in op["ciphertexts"]:
            common = sorted(k for nodes, idx in groups if ct.i in nodes and ct.j in nodes
                            for k in idx)
            local = amplify.sampling_matrix(len(ct.body), len(common), amplify.DEFAULT_WEIGHT,
                                            ct.sampling_seed).to_dense()
            key = (local.astype(np.int64) @ pool[common]) & 1
            if not np.array_equal(ct.body.bits ^ key, op["messages"][(ct.i, ct.j)].bits):
                return False
            block = np.zeros((local.shape[0], len(unhacked)), dtype=np.uint8)
            keep = [pos for pos, k in enumerate(common) if k in column]
            block[:, [column[common[pos]] for pos in keep]] = local[:, keep]
            rows.append(block)
        witness = op["witness"]
        dense = np.concatenate(rows) if rows else np.zeros((0, len(unhacked)), np.uint8)
        if not np.array_equal(witness.a_matrix.to_dense(), dense):
            return False
        packed = np.packbits(dense, axis=1, bitorder="little")
        return gf2_rank([int.from_bytes(row.tobytes(), "little") for row in packed]) \
            == witness.rank

    def bits(self, op: dict) -> int:
        return op["witness"].a_matrix.n_rows


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as Python ints, keeping one basis row
    per leading bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


WORKLOADS = {"messaging": Messaging, "provisioning": Provisioning, "audit": Audit}
