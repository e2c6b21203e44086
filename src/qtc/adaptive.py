"""Adaptive dynamic-range quantizers.

ATUQ picks the smallest range out of a tetra-iterated ladder that contains
the whole input vector and applies CUQ there; AGUQ does the same for a
nonnegative scalar gain over a geometric ladder; AGUQ+ is the variable-length
gain variant (unary range code + per-range level field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitReader, BitString, MalformedStreamError
from .scalar import OVERFLOW, UniformGrid, cuq_decode, cuq_encode

__all__ = [
    "tetration",
    "log_star",
    "TetraLadder",
    "GeoLadder",
    "pick_range",
    "atuq_quantize",
    "aguq_quantize",
    "AguqPlus",
]

# e^^3 = e^(e^e); e^^4 overflows double precision (exp of ~3.8e6).
_TETRA = [1.0, math.e, math.exp(math.e), math.exp(math.exp(math.e))]


def tetration(i: int) -> float:
    """Iterated exponential e^^i; e^^0 = 1. Returns inf once past float range."""
    if i < 0:
        raise ValueError("tetration index must be nonnegative")
    if i > 5:
        raise OverflowError(f"e^^{i} is far beyond double precision")
    return _TETRA[i] if i < len(_TETRA) else math.inf


def log_star(b: float) -> int:
    """Smallest i with e^^i >= b (0 for b <= 1)."""
    if b <= 0:
        raise ValueError("log_star needs a positive argument")
    i = 0
    while b > 1.0:
        b = math.log(b)
        i += 1
    return i


@dataclass(frozen=True)
class TetraLadder:
    """Ranges M_i = sqrt(m * e^^i + m0), i = 0..h-1, strictly increasing.

    Levels whose square exceeds float range are stored as inf.  A CUQ grid
    over an infinite range has no finite spacing, so no encoder picks such a
    level (see `pick_range`) and decoders reject an index that names one.
    """

    m: float
    m0: float
    h: int

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("ladder needs h >= 1")
        if self.h > 8:
            raise ValueError("ladders beyond h = 8 are never needed; refusing")
        if self.m <= 0 or self.m0 < 0:
            raise ValueError("require m > 0 and m0 >= 0")

    @property
    def ranges(self) -> np.ndarray:
        out = np.empty(self.h)
        for i in range(self.h):
            t = tetration(i) if i <= 5 else math.inf
            out[i] = math.sqrt(self.m * t + self.m0) if math.isfinite(t) else math.inf
        return out

    @property
    def index_bits(self) -> int:
        return math.ceil(math.log2(self.h))  # 0 when h == 1: index is constant


@dataclass(frozen=True)
class GeoLadder:
    """Gain ranges M_j = B * a_g^(j/2) so that M_j^2 = B^2 * a_g^j exactly."""

    B: float
    a_g: float
    h_g: int

    def __post_init__(self):
        if self.a_g <= 1:
            raise ValueError("growth ratio a_g must exceed 1")
        if self.h_g < 1:
            raise ValueError("need h_g >= 1")

    @property
    def ranges(self) -> np.ndarray:
        j = np.arange(self.h_g)
        return self.B * np.power(self.a_g, j / 2.0)

    @property
    def index_bits(self) -> int:
        return math.ceil(math.log2(self.h_g))


def pick_range(values, ranges: np.ndarray):
    """Index of the smallest range covering each value, clamped to the largest
    finite range; values above it keep that range and overflow."""
    top = np.count_nonzero(np.isfinite(ranges)) - 1
    return np.minimum(np.searchsorted(ranges, values, side="left"), top)


def atuq_quantize(
    y: np.ndarray, ladder: TetraLadder, k: int, rng: np.random.Generator
) -> tuple[int, np.ndarray, np.ndarray]:
    """ATUQ one vector: returns (range index, symbols, reconstruction)."""
    y = np.asarray(y, dtype=float)
    ranges = ladder.ranges
    j = int(pick_range(float(np.max(np.abs(y))) if y.size else 0.0, ranges))
    grid = UniformGrid(ranges[j], k, "signed")
    sym = cuq_encode(y, grid, rng)
    return j, sym, cuq_decode(sym, grid)


def aguq_quantize(
    g: float, ladder: GeoLadder, k_g: int, rng: np.random.Generator
) -> tuple[int, int, float]:
    """AGUQ for a nonnegative gain: returns (range index, symbol, value).

    Gains above the top range emit the overflow symbol and decode to 0.
    """
    if g < 0:
        raise ValueError("gain must be nonnegative")
    ranges = ladder.ranges
    j = int(pick_range(g, ranges))
    if g > ranges[-1]:
        return ladder.h_g - 1, OVERFLOW, 0.0
    grid = UniformGrid(ranges[j], k_g, "nonneg")
    sym = int(cuq_encode(np.asarray([g]), grid, rng)[0])
    return j, sym, float(cuq_decode(np.asarray([sym]), grid)[0])


class AguqPlus:
    """Variable-length adaptive gain quantizer.

    Ranges grow geometrically (a_g = 2, h_g = 1 + ceil(log2(T)/2)); range j is
    sent as unary (j ones, then a zero -- the Huffman lengths for a
    Geometric(1/2) range distribution), followed by a (j+1)-bit level field.
    Every range except the top uses all 2^(j+1) codes as levels; the top range
    reserves its highest code for the overflow symbol, which decodes to 0.
    """

    def __init__(self, B: float, T: int):
        if T < 2:
            raise ValueError("horizon T must be at least 2")
        if B <= 0:
            raise ValueError("norm bound B must be positive")
        self.B = B
        self.T = T
        self.h_g = 1 + math.ceil(math.log2(T) / 2.0)
        self.ladder = GeoLadder(B, 2.0, self.h_g)

    def levels(self, j: int) -> int:
        n_codes = 1 << (j + 1)
        return n_codes - 1 if j == self.h_g - 1 else n_codes

    def encode(self, g: float, rng: np.random.Generator) -> tuple[BitString, float]:
        """Returns (message, reconstruction seen by the decoder)."""
        if g < 0:
            raise ValueError("gain must be nonnegative")
        ranges = self.ladder.ranges
        j = int(pick_range(g, ranges))
        bits = BitString()
        bits.write_uint(((1 << j) - 1) << 1, j + 1)  # j ones, then the 0 terminator
        field_width = j + 1
        if g > ranges[-1]:
            bits.write_uint((1 << field_width) - 1, field_width)  # overflow code
            return bits, 0.0
        grid = UniformGrid(ranges[j], self.levels(j), "nonneg")
        sym = int(cuq_encode(np.asarray([g]), grid, rng)[0])
        bits.write_uint(sym, field_width)
        return bits, float(cuq_decode(np.asarray([sym]), grid)[0])

    def decode(self, reader: BitReader) -> float:
        j = 0
        while reader.read_bit() == 1:
            j += 1
            if j >= self.h_g:
                raise MalformedStreamError("malformed stream: unary range overruns ladder")
        sym = reader.read_uint(j + 1)
        if j == self.h_g - 1 and sym == (1 << (j + 1)) - 1:
            return 0.0  # overflow
        grid = UniformGrid(self.ladder.ranges[j], self.levels(j), "nonneg")
        return float(cuq_decode(np.asarray([sym]), grid)[0])
