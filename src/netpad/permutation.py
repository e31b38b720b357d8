"""Seedable per-node bijections on {1..u} used by the random key scheme.

A 4-round keyed Feistel network over the smallest even-bit-width domain
covering u, restricted to the target range by cycle walking (Black &
Rogaway, "Ciphers with arbitrary finite domains", CT-RSA 2002).  Not a
cryptographic primitive: the mapping is public anyway, it only needs to
be a reproducible bijection.  The network runs on numpy lanes, one per
input, each half in uint32 so that products wrap mod 2^32 as the round
function needs; cycle walking repeats it on the lanes still out of range.
At most _CHUNK lanes are in flight, so the walk's temporaries stay
bounded however many lanes there are.  A family keeps its round keys and
its last n x l inverse table, which costs 8*n*l bytes, so each node's
slots are walked once.
"""

from __future__ import annotations

import numpy as np

_ROUNDS = 4
_CHUNK = 1 << 16  # lanes walked at once, bounding the walk's temporaries


def _mix32(x: np.ndarray, key: np.uint32) -> np.ndarray:
    # xxhash-style avalanche on uint32 lanes.
    x = x * 3266489917 + 374761397 + key
    x = (x << 17 | x >> 15) * 668265263
    x ^= x >> 15
    x *= 2246822519
    x ^= x >> 13
    x *= 3266489917
    return x ^ (x >> 16)


class PermutationFamily:
    """For each node i, F(., i) is a bijection on {1..u} (1-based)."""

    def __init__(self, u: int, n: int, master_seed):
        if u < 1:
            raise ValueError("domain size must be at least 1")
        if n < 1:
            raise ValueError("node count must be at least 1")
        self.u = u
        self.n = n
        self.master_seed = master_seed
        self._seed = _seed_int(master_seed)  # folded once, not once per node
        # Even bit width >= bit length of u-1, at least 2.
        half = max(1, -(-(max(u - 1, 1)).bit_length() // 2))
        self._half_bits = half
        self._half_mask = (1 << half) - 1
        self._round_keys = {}
        self._inverse = np.zeros((n, 0), dtype=np.int64)  # row i-1: F^-1(1..l, i)

    def _keys(self, node: int) -> np.ndarray:
        if not 1 <= node <= self.n:
            raise ValueError(f"node {node} outside 1..{self.n}")
        keys = self._round_keys.get(node)
        if keys is None:
            rng = np.random.default_rng([self._seed, node])
            keys = rng.integers(0, 1 << 32, size=_ROUNDS, dtype=np.uint64).astype(np.uint32)
            self._round_keys[node] = keys
        return keys

    def _walk(self, x: np.ndarray, keys: np.ndarray, inverse: bool, per: int = 1) -> np.ndarray:
        """x, with each value v in 0..u-1 mapped in place to F(v+1, node) - 1,
        or to F^-1(v+1, node) - 1, where keys[j // per] holds the round keys
        of lane j's node.  At most _CHUNK lanes are in flight: lanes that
        land in range leave, and fresh ones take their place."""
        keys = keys[:, ::-1] if inverse else keys
        todo, fresh = np.zeros(0, np.int64), 0
        while todo.size or fresh < x.size:
            admit = min(_CHUNK - todo.size, x.size - fresh)
            todo, fresh = np.concatenate([todo, np.arange(fresh, fresh + admit)]), fresh + admit
            lanes = x[todo]
            left = (lanes >> self._half_bits).astype(np.uint32)
            right = lanes.astype(np.uint32) & self._half_mask
            for key in keys[todo // per].T:
                if inverse:
                    left, right = right ^ (_mix32(left, key) & self._half_mask), left
                else:
                    left, right = right, left ^ (_mix32(right, key) & self._half_mask)
            x[todo] = lanes = left.astype(np.int64) << self._half_bits | right
            todo = todo[lanes >= self.u]
        return x

    def invert_all(self, node, l: int) -> np.ndarray:
        """[F^-1(1, node), ..., F^-1(l, node)] as an int64 array, l <= u;
        for an array of nodes, one such row per node.  A new l walks all n
        nodes at once into the kept table; each call copies its rows."""
        if not 0 <= l <= self.u:
            raise ValueError(f"slot count {l} outside 0..{self.u}")
        rows = np.asarray(node, dtype=np.int64) - 1
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise ValueError(f"node {node} outside 1..{self.n}")
        if self._inverse.shape[1] != l:
            keys = np.stack([self._keys(i) for i in range(1, self.n + 1)])
            table = np.tile(np.arange(l), self.n)  # lane row * l + s - 1: slot s of node row + 1
            self._walk(table, keys, inverse=True, per=l)
            table += 1
            self._inverse = table.reshape(self.n, l)
        return np.take(self._inverse, rows, axis=0)

    def permute(self, k: int, i: int) -> int:
        if not 1 <= k <= self.u:
            raise ValueError(f"index {k} outside 1..{self.u}")
        return int(self._walk(np.array([k - 1]), self._keys(i)[None], inverse=False)[0]) + 1


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed) & (2**63 - 1)
    # Fold arbitrary seed material into one integer deterministically.
    return int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
