"""Exact GF(2) arithmetic: bit strings, packed bit matrices, rank and
random matrix generation.

Bits are addressed logically (bit 0 = first column); the packed uint64
word layout is an implementation detail.  Rank, left nullspace and
cross-independence share one XOR-basis elimination over Python-int rows
(`_eliminate`), with a tracking bit per row for the nullspace.  All
values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

import numpy as np

# All randomness in this package goes through numpy's default generator.
# The identifier is persisted next to seeds in every output so runs can
# be replayed bit-for-bit.
RNG_ALGORITHM = "numpy-pcg64"

_WORD = 64

if sys.byteorder != "little":  # pragma: no cover - packed layout assumes LE
    raise ImportError("netpad.gf2 requires a little-endian platform")


def _as_bit_array(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit sequence, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values must be 0 or 1")
    return arr


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 uint8 array into little-endian uint64 words."""
    n_words = max(1, -(-bits.size // _WORD)) if bits.size else 0
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros(n_words * 8, dtype=np.uint8)
    out[: packed.size] = packed
    return out.view(np.uint64)


def _unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    if n_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(words.view(np.uint8), bitorder="little", count=n_bits)


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
    """Dense bit matrix over GF(2), rows packed into uint64 words."""

    __slots__ = ("n_rows", "n_cols", "_words")

    def __init__(self, n_rows: int, n_cols: int, words: np.ndarray):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._words = words
        self._words.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        n_words = -(-n_cols // _WORD) if n_cols else 0
        return cls(n_rows, n_cols, np.zeros((n_rows, n_words), dtype=np.uint64))

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValueError("matrix entries must be 0 or 1")
        n_rows, n_cols = arr.shape
        n_words = -(-n_cols // _WORD)
        packed = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
        packed[:, : -(-n_cols // 8)] = np.packbits(arr, axis=1, bitorder="little")
        return cls(n_rows, n_cols, packed.view(np.uint64))

    @classmethod
    def from_positions(cls, n_rows: int, n_cols: int, rows, cols) -> "BitMatrix":
        """Matrix with a one at (rows[k], cols[k]) for every k, in any order
        and repeats allowed, built directly in packed words.

        Each position is a bit of word rows*n_words + cols//64; the bits of
        one word form a run of equal keys once the keys ascend (sorted only
        if they do not already, as for the row-major positions of a
        sampler), and one ``bitwise_or.reduceat`` ORs each run together."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        n_words = -(-n_cols // _WORD)
        words = np.zeros(n_rows * n_words, dtype=np.uint64)
        keys = rows * n_words + (cols >> 6)
        bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys)
            keys, bits = keys[order], bits[order]
        if keys.size:
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            words[keys[starts]] = np.bitwise_or.reduceat(bits, starts)
        return cls(n_rows, n_cols, words.reshape(n_rows, n_words))

    @classmethod
    def vstack(cls, blocks: Sequence["BitMatrix"]) -> "BitMatrix":
        if not blocks:
            raise ValueError("vstack of an empty block list")
        n_cols = blocks[0].n_cols
        if any(b.n_cols != n_cols for b in blocks):
            raise ValueError("vstack blocks must share a column count")
        words = np.concatenate([b._words for b in blocks], axis=0)
        return cls(sum(b.n_rows for b in blocks), n_cols, words)

    # -- accessors ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        as_bytes = np.ascontiguousarray(self._words).view(np.uint8)
        return np.unpackbits(as_bytes, axis=1, bitorder="little", count=self.n_cols)

    def row(self, i: int) -> BitString:
        return BitString(_unpack_bits(self._words[i], self.n_cols))

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n_rows}x{self.n_cols} matrix")
        w, b = divmod(j, _WORD)
        return int((self._words[i, w] >> np.uint64(b)) & np.uint64(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._words, other._words))

    def __hash__(self):
        return hash((self.shape, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols})"

    # -- linear algebra -------------------------------------------------

    def rank(self) -> int:
        """GF(2) row rank of the first *n_cols* columns."""
        return self.n_rows - len(_eliminate(self._row_ints(), self.n_cols))

    def mul(self, v: BitString) -> BitString:
        """Matrix-vector product over GF(2)."""
        if len(v) != self.n_cols:
            raise ValueError(
                f"dimension mismatch: matrix has {self.n_cols} columns, vector has {len(v)} bits"
            )
        if self.n_cols == 0:
            return BitString.zeros(self.n_rows)
        vwords = _pack_bits(np.asarray(v.bits, dtype=np.uint8))
        parities = np.bitwise_count(self._words & vwords[None, :]).sum(axis=1) & 1
        return BitString(parities.astype(np.uint8))

    def left_nullspace_masks(self) -> list[int]:
        """Basis of {c : c.M = 0}, each vector as a row-index bitmask."""
        return _eliminate(self._row_ints(), self.n_cols, track=True)

    def _row_ints(self) -> list[int]:
        """Each row as one Python int, column c at bit c."""
        return [int.from_bytes(packed, "little")
                for packed in np.ascontiguousarray(self._words).view(np.uint8)]


def _eliminate(rows: list[int], n_cols: int, track: bool = False) -> list[int]:
    """Insert the rows (Python ints, column c at bit c) in order into an XOR
    basis on their first *n_cols* columns; return what is left of each row
    that depends on earlier ones.

    Each row is masked once; the basis is a list indexed by leading column
    (``bit_length``), and a row is XORed with the basis row there until
    that slot is free or its columns are zero.  With *track*, columns
    shift left by n_rows and row i carries the tracking bit 1 << i, so a
    dependent row is left as a mask of rows XORing to 0.
    """
    keep = (1 << n_cols) - 1
    shift = len(rows) if track else 0
    basis = [0] * (n_cols + shift + 1)
    dependent = []
    for i, row in enumerate(rows):
        row = (row & keep) << shift | int(track) << i
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


def sample_indices(n_rows: int, n_cols: int, d: int, seed) -> np.ndarray:
    """Row r is a uniform d-subset of range(n_cols), ascending, as int64.

    O(n_rows*d) time; the result is a pure function of the arguments.  Each
    row starts as d uniform draws, and the draws that repeat an earlier value
    are redrawn until the row is distinct.  That procedure commutes with any
    relabelling of the columns, so every d-subset is equally likely (Bentley
    & Floyd, "A sample of brilliance", CACM 30(9), 1987).  The draws are
    uint32 for n_cols <= 2^32, where numpy gives the same stream as int64
    draws, and are sorted and redrawn in place: peak memory is the result
    plus that uint32 copy, 1.5x the result.  When 2d >= n_cols redraws would
    be frequent, so the d smallest of n_cols uniform keys are taken instead,
    at O(n_rows*n_cols) = O(n_rows*d) time and 8*n_rows*n_cols bytes.
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
    rows, sub = np.arange(n_rows), idx
    while True:
        eq = sub[:, 1:] == sub[:, :-1]
        hit = eq.any(axis=1)
        if not hit.any():
            return idx.astype(np.int64, copy=False)
        rows, sub, eq = rows[hit], sub[hit], eq[hit]
        sub[:, 1:][eq] = rng.integers(0, n_cols, size=int(eq.sum()), dtype=idx.dtype)
        sub.sort(axis=1)
        idx[rows] = sub


def random_fixed_weight_matrix(
    n_rows: int, n_cols: int, weight_d: int, seed
) -> BitMatrix:
    """Every row has exactly *weight_d* ones, at the columns that
    sample_indices draws for the same arguments."""
    idx = sample_indices(n_rows, n_cols, weight_d, seed)
    return BitMatrix.from_positions(n_rows, n_cols,
                                    np.repeat(np.arange(n_rows), weight_d), idx.ravel())


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
