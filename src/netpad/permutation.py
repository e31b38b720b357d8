"""Seedable per-node slot tables used by the random key scheme.

Each node of a random part stores a uniform ordered l-subset of the
part's u pool indices: its slot s holds index table[node - 1, s - 1].
The table is drawn when first read, by one generator seeded with the
part's seed that calls ``choice(u, l, replace=False)`` once per node in
node order, and kept: 8*n*l bytes and O(n*l) time.  NumPy's NEP 19 pins
the bit generator's stream but not ``choice``'s, so another numpy
release may draw other tables from the same seed.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class PermutationFamily:
    """For each node i, F(., i) is a bijection on {1..u} (1-based) with
    F(k, i) <= l exactly when node i holds pool index k - 1: a held
    index maps to its slot, the others to l + 1, l + 2, ... in order."""

    def __init__(self, u: int, n: int, l: int, master_seed):
        if u < 1:
            raise ValueError("domain size must be at least 1")
        if n < 1:
            raise ValueError("node count must be at least 1")
        if not 0 <= l <= u:
            raise ValueError(f"slot count {l} outside 0..{u}")
        self.u, self.n, self.l, self.master_seed = u, n, l, master_seed

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only n x l int64 table: row i - 1 holds the pool indices
        (0..u-1) in node i's slots 1..l."""
        rng = np.random.default_rng(self.master_seed)
        table = np.empty((self.n, self.l), dtype=np.int64)
        for row in table:
            row[:] = rng.choice(self.u, self.l, replace=False)
        table.flags.writeable = False
        return table

    def permute(self, k: int, i: int) -> int:
        if not 1 <= k <= self.u:
            raise ValueError(f"index {k} outside 1..{self.u}")
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} outside 1..{self.n}")
        row = self.table[i - 1]
        slot = np.flatnonzero(row == k - 1)
        if slot.size:
            return int(slot[0]) + 1
        return self.l + k - np.count_nonzero(row < k - 1)  # l + 1 + unheld indices below


def _seed_int(seed) -> int:
    """seed as an integer in 0..2^63-1: an int masked to 63 bits, other
    seed material folded deterministically and masked the same way, so
    that a folded seed replays as itself."""
    if not isinstance(seed, (int, np.integer)):
        seed = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    return int(seed) & (2**63 - 1)
