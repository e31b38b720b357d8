"""Exact GF(2) arithmetic: bit strings, bit matrices, rank and random
matrix generation.

A matrix row is one Python int, column c at bit c, from the moment a
constructor builds it.  Rank, left nullspace and cross-independence pass
those ints to one XOR-basis elimination (`_eliminate`), with a tracking
bit per row for the nullspace.  All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

# All randomness in this package goes through numpy's default generator.
# The identifier is persisted next to seeds in every output so runs can
# be replayed bit-for-bit.
RNG_ALGORITHM = "numpy-pcg64"

_SCATTER_BYTES = 1 << 20  # byte buffer of one BitMatrix.from_rows chunk


def _as_bit_array(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit sequence, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


class BitString:
    """Immutable sequence of bits with XOR and popcount."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray):
        arr = _as_bit_array(bits).copy()
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "BitString":
        return cls(rng.integers(0, 2, size=length, dtype=np.uint8))

    @classmethod
    def from01(cls, text: str) -> "BitString":
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_bytes(cls, raw: bytes, length: int | None = None) -> "BitString":
        """The first length bits of raw (all by default), read as to_bytes writes them."""
        return cls(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little",
                                 count=length))

    def to_bytes(self) -> bytes:
        """The bits packed little-endian within bytes, the last byte zero-padded."""
        return np.packbits(self._bits, bitorder="little").tobytes()

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i):
        return int(self._bits[i]) if np.isscalar(i) or isinstance(i, int) else BitString(self._bits[i])

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitString(self._bits ^ other._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits.shape == other._bits.shape and bool(
            np.array_equal(self._bits, other._bits)
        )

    def __hash__(self):
        return hash((self._bits.size, self._bits.tobytes()))

    def weight(self) -> int:
        return int(self._bits.sum())

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __repr__(self) -> str:
        s = self.to01()
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitString({s!r})"


class BitMatrix:
    """Dense bit matrix over GF(2); row r is the Python int ``_rows[r]``,
    column c at bit c, with no bit at or past n_cols."""

    __slots__ = ("n_rows", "n_cols", "_rows")

    def __init__(self, n_cols: int, rows: Iterable[int]):
        """The matrix with these rows; refuses a row with a bit at or past
        n_cols, or a negative one."""
        rows = tuple(map(operator.index, rows))
        if any(row >> n_cols for row in rows):
            raise ValueError(f"a row has a bit at or past column {n_cols}")
        self.n_rows, self.n_cols, self._rows = len(rows), n_cols, rows

    @classmethod
    def _of(cls, n_cols: int, rows: tuple[int, ...]) -> "BitMatrix":
        """The matrix of rows that have no bit at or past n_cols, unchecked."""
        m = object.__new__(cls)
        m.n_rows, m.n_cols, m._rows = len(rows), n_cols, rows
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls._of(n_cols, (0,) * n_rows)

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValueError("matrix entries must be 0 or 1")
        return cls._of(arr.shape[1], _ints(np.packbits(arr, axis=1, bitorder="little")))

    @classmethod
    def from_rows(cls, idx, columns, n_cols: int) -> "BitMatrix":
        """Row r has a one at column columns[k] for each k in idx[r], in any
        order, repeats allowed; a column of -1 sets nothing.  Each chunk of
        rows (at most _SCATTER_BYTES, or one row) is scattered into a zeroed
        byte buffer of n_cols + 1 columns, where -1 lands in the spare last
        one (row r's in row r-1's, the first row's in the last row's), and
        packed with one ``packbits``."""
        if columns.size and (columns.min() < -1 or columns.max() >= n_cols):
            raise ValueError("column index out of range")
        n_rows, width = idx.shape[0], n_cols + 1
        chunk = max(1, _SCATTER_BYTES // width)
        offsets = np.arange(0, min(chunk, n_rows) * width, width)[:, None]
        rows = []
        for start in range(0, n_rows, chunk):
            pos = columns[idx[start:start + chunk]]
            pos += offsets[:pos.shape[0]]
            buf = np.zeros((pos.shape[0], width), dtype=np.uint8)
            buf.reshape(-1)[pos] = 1
            rows.extend(_ints(np.packbits(buf[:, :-1], axis=1, bitorder="little")))
        return cls._of(n_cols, tuple(rows))

    @classmethod
    def vstack(cls, blocks: Sequence["BitMatrix"]) -> "BitMatrix":
        if not blocks:
            raise ValueError("vstack of an empty block list")
        n_cols = blocks[0].n_cols
        if any(b.n_cols != n_cols for b in blocks):
            raise ValueError("vstack blocks must share a column count")
        return cls._of(n_cols, tuple(row for b in blocks for row in b._rows))

    # -- accessors ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        return _unpack(self._rows, self.n_cols)

    def row(self, i: int) -> BitString:
        return BitString(_unpack((self._rows[i],), self.n_cols)[0])

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n_rows}x{self.n_cols} matrix")
        return self._rows[i] >> j & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n_cols == other.n_cols and self._rows == other._rows

    def __hash__(self):
        return hash((self.n_cols, self._rows))

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols})"

    # -- linear algebra -------------------------------------------------

    def rank(self) -> int:
        """GF(2) row rank."""
        return self.n_rows - len(_eliminate(self._rows, self.n_cols))

    def mul(self, v: BitString) -> BitString:
        """Matrix-vector product over GF(2)."""
        if len(v) != self.n_cols:
            raise ValueError(
                f"dimension mismatch: matrix has {self.n_cols} columns, vector has {len(v)} bits"
            )
        x = int.from_bytes(v.to_bytes(), "little")
        return BitString(np.array([(row & x).bit_count() & 1 for row in self._rows],
                                  dtype=np.uint8))

    def left_nullspace_masks(self) -> list[int]:
        """Basis of {c : c.M = 0}, each vector as a row-index bitmask."""
        return _eliminate(self._rows, self.n_cols, track=True)


def _ints(packed: np.ndarray) -> tuple[int, ...]:
    """Each line of a 2-d little-endian packbits array as one Python int."""
    raw, step = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(raw[r * step:(r + 1) * step], "little")
                 for r in range(packed.shape[0]))


def _unpack(rows: Sequence[int], n_cols: int) -> np.ndarray:
    """The rows as a len(rows) x n_cols uint8 array of bits."""
    n_bytes = -(-n_cols // 8)
    raw = b"".join(row.to_bytes(n_bytes, "little") for row in rows)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), n_bytes)
    return np.unpackbits(packed, axis=1, bitorder="little", count=n_cols)


def _eliminate(rows: Sequence[int], n_cols: int, track: bool = False) -> list[int]:
    """Insert the rows (Python ints, column c at bit c, none at or past
    *n_cols*) in order into an XOR basis; return what is left of each row
    that depends on earlier ones.

    The basis is a list indexed by leading column (``bit_length``), and a
    row is XORed with the basis row there until that slot is free or its
    columns are zero.  With *track*, columns shift left by n_rows and row i
    carries the tracking bit 1 << i, so a dependent row is left as a mask
    of rows XORing to 0.
    """
    shift = len(rows) if track else 0
    basis = [0] * (n_cols + shift + 1)
    dependent = []
    for i, row in enumerate(rows):
        row = row << shift | int(track) << i
        lead = row.bit_length()
        while lead > shift:
            pivot = basis[lead]
            if not pivot:
                basis[lead] = row
                break
            row ^= pivot
            lead = row.bit_length()
        else:
            dependent.append(row)
    return dependent


def random_bernoulli_matrix(
    n_rows: int, n_cols: int, density: float, seed
) -> BitMatrix:
    """Each entry is 1 independently with probability *density*."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
    return BitMatrix.from_dense(dense)


def _spare_draws(repeats: int, n_cols: int, d: int) -> int:
    """Values to draw ahead for *repeats* redraws and the rounds after them:
    a redraw repeats with probability below d/n_cols; d more is a margin."""
    return (repeats + d) * n_cols // (n_cols - d)


def sample_indices(n_rows: int, n_cols: int, d: int, seed) -> np.ndarray:
    """Row r is a uniform d-subset of range(n_cols), ascending, as int64.

    O(n_rows*d) time; the result is a pure function of the arguments.  Each
    row starts as d uniform draws, and the draws that repeat an earlier value
    are redrawn until the row is distinct.  That procedure commutes with any
    relabelling of the columns, so every d-subset is equally likely (Bentley
    & Floyd, "A sample of brilliance", CACM 30(9), 1987).  The draws are
    uint32 for n_cols <= 2^32, where numpy gives the same stream as int64
    draws.  A round marks the repeats by one compare over the row-major
    buffer, writes the next values of the stream there and re-sorts the rows
    it touched.  Every round's redraws come from one spare draw, sized from
    the first round's count and refilled only if it runs out; numpy yields
    the same values however the draws are split.  Peak memory is the result,
    the uint32 copy and the spare draw: 1.51x the result at 640 x 8400 and
    1.65x at 70 x 500 (d = 128).  When 2d >= n_cols redraws would be
    frequent, so the d smallest of n_cols uniform keys are taken instead, at
    O(n_rows*n_cols) = O(n_rows*d) time and 8*n_rows*n_cols bytes.
    """
    if d < 0:
        raise ValueError("row weight must be non-negative")
    if d > n_cols:
        raise ValueError(f"row weight {d} exceeds column count {n_cols}")
    rng = np.random.default_rng(seed)
    if d == 0 or n_rows == 0:
        return np.zeros((n_rows, d), dtype=np.int64)
    if 2 * d >= n_cols:
        keys = rng.random((n_rows, n_cols))
        idx = np.argpartition(keys, d - 1, axis=1)[:, :d].astype(np.int64)
        idx.sort(axis=1)
        return idx
    idx = rng.integers(0, n_cols, size=(n_rows, d),
                       dtype=np.uint32 if n_cols <= 1 << 32 else np.int64)
    idx.sort(axis=1)
    rows, sub = None, idx  # rows of idx held in sub; None while sub is idx
    spare = np.empty(0, dtype=idx.dtype)
    while True:
        flat = sub.reshape(-1)
        eq = np.empty(flat.size, dtype=bool)
        np.equal(flat[1:], flat[:-1], out=eq[1:])
        eq[::d] = False
        slots = np.flatnonzero(eq)
        if not slots.size:
            return idx.astype(np.int64, copy=False)
        if slots.size > spare.size:
            more = _spare_draws(slots.size - spare.size, n_cols, d)
            spare = np.concatenate((spare, rng.integers(0, n_cols, size=more, dtype=idx.dtype)))
        flat[slots] = spare[:slots.size]
        spare = spare[slots.size:]
        hit = np.flatnonzero(eq.reshape(-1, d).any(axis=1))
        if hit.size < sub.shape[0]:
            sub = sub[hit]
            rows = hit if rows is None else rows[hit]
        sub.sort(axis=1)
        if rows is not None:
            idx[rows] = sub


def random_fixed_weight_matrix(
    n_rows: int, n_cols: int, weight_d: int, seed
) -> BitMatrix:
    """Every row has exactly *weight_d* ones, at the columns that
    sample_indices draws for the same arguments."""
    return BitMatrix.from_rows(sample_indices(n_rows, n_cols, weight_d, seed),
                               np.arange(n_cols), n_cols)


def cross_independent(blocks: Sequence[BitMatrix]) -> bool:
    """True iff no row selection taking at least one row from every block
    XORs to zero.

    Exact, by inclusion-exclusion over the set S of blocks a selection
    avoids.  The zero-sum selections form the left nullspace of the stacked
    blocks; with basis masks m_1..m_k, those that avoid S form a space whose
    dimension is the nullity of the masks cut to S's rows.  So the sum over
    S of (-1)^|S| * 2^nullity counts the ones that touch every block: 2^b
    eliminations of k masks for b blocks, after one rank call that settles
    a stack of full row rank.
    """
    if not blocks:
        raise ValueError("cross_independent needs at least one block")
    if any(b.n_rows == 0 for b in blocks):
        raise ValueError("every block must have at least one row")
    if any(b.n_cols != blocks[0].n_cols for b in blocks):
        raise ValueError("blocks must share a column count")
    stacked = BitMatrix.vstack(blocks)
    if stacked.rank() == stacked.n_rows:
        return True
    masks = stacked.left_nullspace_masks()
    spans = np.cumsum([0] + [b.n_rows for b in blocks]).tolist()
    spans = [(1 << end) - (1 << start) for start, end in zip(spans, spans[1:])]
    touching = 0
    for avoided in range(1 << len(blocks)):
        rows = sum(span for k, span in enumerate(spans) if avoided >> k & 1)
        nullity = len(_eliminate([m & rows for m in masks], stacked.n_rows))
        touching += (-1) ** avoided.bit_count() * 2 ** nullity
    return touching == 0
