"""Communication phase: derive secret-key bits as XOR of d sampled common
bits, apply the one-time pad, and cap the key bits a channel consumes at
|u_ij|, the secret bits its two endpoints share.

Sampling seeds are public and travel in the ciphertext header: secrecy
rests on the pool bits, not on the sampler.  Both endpoints and the
auditor draw the d positions of every key bit from one sampler,
``gf2.sample_indices``, in O(m*d) time and memory for m key bits: the
endpoints XOR the pool bits at those positions, and an auditor rebuilds
the same rows as a sampling matrix, bit-for-bit.  An in-memory
``CipherText`` keeps the rows of its key (``CipherText.rows``), so each
message is drawn once: ``encrypt`` stores the rows it gathered and the
auditor reads them back.  A ciphertext decoded from bytes, or a
``dataclasses.replace`` copy, starts without rows and draws them again
from its header.

The endpoints read the values of u_ij by one group mask
(``common_values``), with no Python list of pool indices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .gf2 import BitMatrix, BitString, random_fixed_weight_matrix, sample_indices
from .permutation import _seed_int

DEFAULT_WEIGHT = 128

MAGIC = b"NPCT"
VERSION = 2  # version 1 keys came from another sampler
HEADER_SIZE = 46  # magic, <HIIQ version/i/j/counter, 16-byte seed, <Q bit count


class BudgetError(ValueError):
    """Channel would use more key bits than the |u_ij| secret bits its
    endpoints share."""


class ReplayError(ValueError):
    """Message counter reuse on a channel."""


class ShortChannelError(ValueError):
    """A channel's endpoints share fewer than d bits, so none of its key
    bits can be sampled."""


@dataclass
class ChannelCipherState:
    """Per-endpoint state of one channel.  Single writer per endpoint."""

    i: int
    j: int
    d: int = DEFAULT_WEIGHT
    consumed: int = 0
    counter: int = 0
    seen_counters: set[int] = field(default_factory=set)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"sampling weight d={self.d} must be at least 1")
        if self.i == self.j:
            raise ValueError("a channel needs two distinct endpoints")
        if self.i > self.j:
            self.i, self.j = self.j, self.i

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class CipherText:
    i: int
    j: int
    counter: int
    sampling_seed: bytes  # 16 bytes, public
    body: BitString
    # Not part of the message: (sampler arguments, rows) of the last rows()
    # call, and the d of encrypt's key.
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _d: int | None = field(default=None, init=False, repr=False, compare=False)

    def rows(self, n_common: int, d: int) -> np.ndarray:
        """Row r holds the d positions in u_ij that key bit r XORs, as
        sample_indices draws them from this header for |u_ij| = n_common:
        read-only, in the narrowest unsigned dtype that holds them.  Drawn
        on first use and kept for the same sampler arguments."""
        args = (len(self.body), n_common, d, self.sampling_seed)
        if self._rows is None or self._rows[0] != args:
            self._keep(args, sample_indices(*args[:3], seed_to_int(self.sampling_seed)))
        return self._rows[1]

    def _keep(self, args: tuple, idx: np.ndarray) -> None:
        rows = idx.astype(np.min_scalar_type(max(args[1] - 1, 0)))
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", (args, rows))

    def to_bytes(self) -> bytes:
        if not (0 <= self.i < 2**32 and 0 <= self.j < 2**32 and 0 <= self.counter < 2**64):
            raise ValueError(f"NPCT holds node ids below 2^32 and counters below 2^64, "
                             f"not ({self.i},{self.j}) counter {self.counter}")
        out = bytearray()
        out += MAGIC
        out += struct.pack("<HIIQ", VERSION, self.i, self.j, self.counter)
        out += self.sampling_seed
        out += struct.pack("<Q", len(self.body))
        out += self.body.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipherText":
        if raw[:4] != MAGIC:
            raise ValueError("not a ciphertext (bad magic)")
        if len(raw) < HEADER_SIZE:
            raise ValueError(f"truncated ciphertext header ({len(raw)} bytes)")
        version, i, j, counter = struct.unpack("<HIIQ", raw[4:22])
        if version != VERSION:
            raise ValueError(f"unsupported ciphertext version {version}")
        seed = raw[22:38]
        (n_bits,) = struct.unpack("<Q", raw[38:HEADER_SIZE])
        n_bytes = -(-n_bits // 8)
        body_raw = raw[HEADER_SIZE:]
        if len(body_raw) < n_bytes:
            raise ValueError("truncated ciphertext body")
        if len(body_raw) > n_bytes:
            raise ValueError(f"{len(body_raw) - n_bytes} bytes after the ciphertext body")
        if n_bits % 8 and body_raw[-1] >> (n_bits % 8):
            raise ValueError("nonzero padding bits after the ciphertext body")
        return cls(i=i, j=j, counter=counter, sampling_seed=seed,
                   body=BitString.from_bytes(body_raw, n_bits))


def seed_to_int(sampling_seed: bytes) -> int:
    if len(sampling_seed) != 16:
        raise ValueError("sampling seeds are 16 bytes")
    return int.from_bytes(sampling_seed, "little")


def sampling_matrix(n_key_bits: int, n_common: int, d: int,
                    sampling_seed: bytes) -> BitMatrix:
    """The fixed-weight sampling matrix of one message: row r has its ones
    at the common-bit positions that derive_key XORs into key bit r."""
    return random_fixed_weight_matrix(n_key_bits, n_common, d,
                                      seed_to_int(sampling_seed))


def _shared_bits(ks, state: ChannelCipherState) -> np.ndarray:
    """The values of u_ij, the pool bits both endpoints hold; at least d."""
    common = ks.common_values(state.i, state.j)
    if state.d > len(common):
        raise ShortChannelError(f"channel ({state.i},{state.j}) has |u_ij| = {len(common)} "
                                f"common bits, fewer than the sampling weight d = {state.d}")
    return common


def _key(common: np.ndarray, idx: np.ndarray) -> BitString:
    """Key bit r is the XOR of the common bits at idx[r]."""
    return BitString(np.bitwise_xor.reduce(np.take(common, idx), axis=1))


def derive_key(ks, state: ChannelCipherState, n_bits: int,
               sampling_seed: bytes) -> BitString:
    """Secret key = M . u_ij with M the fixed-weight-d sampling matrix,
    computed as a gather of the d sampled common bits of each key bit and
    their parity, without building M.

    Deterministic: both endpoints derive identical keys from the same
    keystore views and header.
    """
    common = _shared_bits(ks, state)
    return _key(common, sample_indices(n_bits, len(common), state.d,
                                       seed_to_int(sampling_seed)))


def _derive_sampling_seed(seed, counter: int) -> bytes:
    rng = np.random.default_rng([_seed_int(seed), counter])
    return rng.bytes(16)


def encrypt(ks, state: ChannelCipherState, plaintext: BitString, seed) -> CipherText:
    """One-time pad plaintext with a fresh key; the channel's key bits over
    all its messages may not exceed |u_ij|, the secret bits its endpoints
    share."""
    common = _shared_bits(ks, state)
    if state.consumed + len(plaintext) > len(common):
        raise BudgetError(
            f"channel {state.pair} would consume {state.consumed + len(plaintext)} "
            f"of its |u_ij|={len(common)} shared secret bits"
        )
    counter = state.counter + 1
    sampling_seed = _derive_sampling_seed(seed, counter)
    args = (len(plaintext), len(common), state.d, sampling_seed)
    idx = sample_indices(*args[:3], seed_to_int(sampling_seed))
    ct = CipherText(i=state.i, j=state.j, counter=counter,
                    sampling_seed=sampling_seed, body=plaintext ^ _key(common, idx))
    ct._keep(args, idx)
    object.__setattr__(ct, "_d", state.d)
    state.counter = counter
    state.consumed += len(plaintext)
    return ct


def decrypt(ks, state: ChannelCipherState, ct: CipherText) -> BitString:
    if (ct.i, ct.j) != state.pair:
        raise ValueError(f"ciphertext for channel ({ct.i},{ct.j}), state is {state.pair}")
    if ct.counter in state.seen_counters:
        raise ReplayError(f"counter {ct.counter} already seen on channel {state.pair}")
    common = _shared_bits(ks, state)
    key = _key(common, ct.rows(len(common), state.d))
    state.seen_counters.add(ct.counter)
    return ct.body ^ key
