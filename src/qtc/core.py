"""Bit-level I/O, reproducible seed derivation, and the common quantizer contract.

Conventions used by every encoder/decoder pair in this package:

* Bit fields are MSB-first and packed back to back with no alignment padding,
  so every bit-budget assertion is exact.
* Encoder and decoder are driven by streams derived from the same SeedPath.
  Shared randomness (rotation signs, sampled subsets, dither uniforms that the
  decoder must regenerate) is always drawn *first* and in the same order on
  both sides; encoder-private randomness (randomized rounding) is drawn after
  all shared values, so the decoder never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "BitString",
    "BitReader",
    "SeedPath",
    "Quantizer",
    "MalformedStreamError",
    "TruncatedStreamError",
    "check_finite",
]

_MASK64 = (1 << 64) - 1


class MalformedStreamError(ValueError):
    """Raised by every decoder for a message it cannot have been sent:
    truncated, over-long, or carrying a field value out of range.

    A ValueError, so callers that catch ValueError keep working.
    """


class TruncatedStreamError(MalformedStreamError):
    """Raised when a read runs past the end of a BitString."""


def check_finite(x) -> np.ndarray:
    """`x` as a float array; raises ValueError if any entry is NaN or infinite.

    Encoders call this before their first draw.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    return x


class BitString:
    """Append-only bit sequence with exact length accounting."""

    __slots__ = ("_words", "_len")

    def __init__(self) -> None:
        self._words: list[int] = []  # 32-bit chunks, MSB-first within a chunk
        self._len = 0

    @property
    def nbits(self) -> int:
        return self._len

    def __len__(self) -> int:
        return self._len

    def write_uint(self, value: int, width: int) -> "BitString":
        """Append `value` as a `width`-bit MSB-first field."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        value = int(value)
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        used = self._len & 31
        if used:  # top up the partial last word first
            take = min(32 - used, width)
            width -= take
            self._words[-1] = (self._words[-1] << take) | (value >> width)
            value &= (1 << width) - 1
            self._len += take
        full, rest = divmod(width, 32)
        if full:
            chunk = (value >> rest).to_bytes(4 * full, "big")
            self._words.extend(np.frombuffer(chunk, dtype=">u4").tolist())
        if rest:
            self._words.append(value & ((1 << rest) - 1))
        self._len += width
        return self

    def write_fields(self, values, width: int) -> "BitString":
        """Append each of `values` as a `width`-bit field, back to back."""
        v = np.asarray(values, dtype=np.int64).ravel()
        if not 1 <= width <= 63:
            raise ValueError(f"field width must be in 1..63, got {width}")
        if v.size == 0:
            return self
        if v.min() < 0 or int(v.max()) >> width:
            bad = v[(v < 0) | (v >> width != 0)][0]
            raise ValueError(f"value {bad} does not fit in {width} bits")
        n = v.size * width
        bits = ((v[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
        packed = int.from_bytes(np.packbits(bits).tobytes(), "big")
        return self.write_uint(packed >> (-n % 8), n)

    def _slice(self, pos: int, width: int) -> int:
        """Bits [pos, pos + width) as one MSB-first integer."""
        last = len(self._words) - 1
        acc, end = 0, 0
        for w in range(pos >> 5, ((pos + width - 1) >> 5) + 1):
            # every word but the last holds 32 bits
            bits = 32 if w < last or (self._len & 31) == 0 else self._len & 31
            acc = (acc << bits) | self._words[w]
            end = 32 * w + bits
        return (acc >> (end - pos - width)) & ((1 << width) - 1)

    def to01(self) -> str:
        return format(self._slice(0, self._len), f"0{self._len}b") if self._len else ""

    def extend(self, other: "BitString") -> "BitString":
        return self.write_uint(other._slice(0, other._len), other._len) if other._len else self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._len == other._len
            and self._words == other._words
        )

    def __repr__(self) -> str:
        head = self.to01() if self._len <= 64 else self.to01()[:64] + "..."
        return f"BitString({head!r}, nbits={self._len})"


class BitReader:
    """Cursor over a BitString; reads advance the cursor."""

    def __init__(self, bs: BitString, cursor: int = 0) -> None:
        self._bs = bs
        self.cursor = cursor

    def read_uint(self, width: int) -> int:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if self.cursor + width > self._bs.nbits:
            raise TruncatedStreamError(
                f"read of {width} bits at {self.cursor} overruns length {self._bs.nbits}"
            )
        value = self._bs._slice(self.cursor, width)
        self.cursor += width
        return value

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_fields(self, count: int, width: int) -> np.ndarray:
        """Read `count` back-to-back `width`-bit fields as an int64 array."""
        if not 1 <= width <= 63:
            raise ValueError(f"field width must be in 1..63, got {width}")
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        n = count * width
        raw = self.read_uint(n).to_bytes((n + 7) // 8, "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[-n:].reshape(count, width)
        return bits @ (np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64))

    def finish(self) -> None:
        """Raise MalformedStreamError unless every bit has been read: no
        decoder accepts trailing bits."""
        if self.remaining:
            raise MalformedStreamError(f"malformed stream: {self.remaining} bits left over")

    @property
    def remaining(self) -> int:
        return self._bs.nbits - self.cursor


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fnv64(s: str) -> int:
    h = 0xCBF29CE484222325
    for byte in s.encode("utf8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


Label = Tuple[str, int]


@dataclass(frozen=True)
class SeedPath:
    """Deterministic derivation path for shared randomness.

    The same (root_seed, labels) always yields the same stream on every
    platform; distinct label lists yield streams that are independent for all
    practical purposes (64-bit keyed mixing, no cryptographic claim).
    """

    root_seed: int
    labels: Tuple[Label, ...] = ()

    def child(self, role: str, index: int = 0) -> "SeedPath":
        return SeedPath(self.root_seed, self.labels + ((role, int(index)),))

    def mixed(self) -> int:
        h = _splitmix64(self.root_seed & _MASK64)
        for role, index in self.labels:
            h = _splitmix64(h ^ _fnv64(role))
            h = _splitmix64(h ^ (index & _MASK64))
        return h

    def stream(self) -> np.random.Generator:
        """Derive the random stream for this path (uniform 64-bit words; reals
        are 53-bit mantissa draws in [0, 1))."""
        return np.random.Generator(np.random.PCG64(self.mixed()))


EncodeFn = Callable[[np.ndarray, Optional[np.ndarray], np.random.Generator], BitString]
DecodeFn = Callable[[BitString, Optional[np.ndarray], np.random.Generator], np.ndarray]


@dataclass
class Quantizer:
    """Encoder/decoder pair with a declared worst-case bit budget.

    ``bit_budget`` is the worst-case message length in bits; ``None`` marks a
    variable-length scheme whose guarantee is on expected length only.
    """

    encode: EncodeFn
    decode: DecodeFn
    bit_budget: Optional[int]
    name: str = "quantizer"
    uses_side_info: bool = False

    def roundtrip(
        self,
        x: np.ndarray,
        side: Optional[np.ndarray],
        path: SeedPath,
        check_budget: bool = True,
    ) -> Tuple[BitString, np.ndarray]:
        """Encode then decode with identically derived streams.

        Returns (message, reconstruction) and asserts the fixed-length budget.
        """
        msg = self.encode(np.asarray(x, dtype=float), side, path.stream())
        if check_budget and self.bit_budget is not None and msg.nbits > self.bit_budget:
            raise AssertionError(
                f"{self.name}: emitted {msg.nbits} bits > budget {self.bit_budget}"
            )
        xhat = self.decode(msg, side, path.stream())
        return msg, xhat
