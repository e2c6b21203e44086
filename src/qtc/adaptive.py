"""Adaptive dynamic-range quantizers.

ATUQ picks the smallest range out of a tetra-iterated ladder that contains
the whole input vector and applies CUQ there (the ladder is defined here, the
quantizer in `qtc.vector`).  AGUQ does the same for nonnegative gains over a
geometric ladder (batched: `aguq_uniforms` draws, `aguq_fields` rounds);
AGUQ+ is its variable-length variant (`AguqPlus`: unary range code +
per-range level field).  The A-RATQ kernel in `qtc.vector` runs both and
packs their fields.  Each ladder works out its ranges and its `top`, the
largest index an encoder picks, once; encoders clamp to that top and
decoders pass it to `BitReader.read_fields` as the index block's largest
legal value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import BitReader, BitString, MalformedStreamError
from .scalar import OVERFLOW, cuq_levels, cuq_round_with

__all__ = [
    "tetration",
    "log_star",
    "TetraLadder",
    "GeoLadder",
    "pick_range",
    "aguq_uniforms",
    "aguq_fields",
    "aguq_levels",
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
    level (see `pick_range`) and decoders reject an index above `top`.
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

    @functools.cached_property
    def ranges(self) -> np.ndarray:
        """The h ranges, worked out once per ladder; read-only."""
        out = np.empty(self.h)
        for i in range(self.h):
            t = tetration(i) if i <= 5 else math.inf
            out[i] = math.sqrt(self.m * t + self.m0) if math.isfinite(t) else math.inf
        out.flags.writeable = False
        return out

    @functools.cached_property
    def top(self) -> int:
        """The index of the largest finite range: the largest an encoder picks."""
        return _top(self.ranges)

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

    @functools.cached_property
    def ranges(self) -> np.ndarray:
        """The h_g ranges, worked out once per ladder; read-only."""
        out = self.B * np.power(self.a_g, np.arange(self.h_g) / 2.0)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def top(self) -> int:
        """The index of the largest finite range: the largest an encoder picks."""
        return _top(self.ranges)

    @property
    def index_bits(self) -> int:
        return math.ceil(math.log2(self.h_g))


def _top(ranges: np.ndarray) -> int:
    """The index of the largest finite entry of increasing `ranges`."""
    return int(np.count_nonzero(np.isfinite(ranges))) - 1


def pick_range(values, ranges: np.ndarray, top: int | None = None):
    """Index of the smallest range covering each value, clamped to `top`, the
    index of the largest finite range (the ladders' cached `top`; counted
    from `ranges` when not given); values above it keep that range and
    overflow."""
    if top is None:
        top = _top(ranges)
    return np.minimum(np.searchsorted(ranges, values, side="left"), top)


def aguq_uniforms(g: np.ndarray, ladder: GeoLadder, rng: np.random.Generator) -> np.ndarray:
    """The rounding uniforms of AGUQ on the gains g: one per gain, drawn from
    rng, or zeros, with no draw, when every gain is above the top range (the
    overflow symbol of such a gain reads no uniform)."""
    g = np.asarray(g)
    return np.zeros(g.shape) if (g > ladder.ranges[-1]).all() else rng.random(g.shape)


def aguq_fields(g: np.ndarray, ladder: GeoLadder, levels: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AGUQ on nonnegative gains g, rounding with the `aguq_uniforms` draws
    u: the index j of the smallest range of `ladder` covering each gain, and
    its CUQ symbol on levels[j] levels over [0, M_j].  A gain above the top
    range gets the top index and the overflow symbol, which decodes to 0."""
    if (g < 0).any():
        raise ValueError("gains must be nonnegative")
    ranges = ladder.ranges
    j = pick_range(g, ranges, ladder.top)
    return j, cuq_round_with(g, ranges[j], levels[j], u, signed=False)


def aguq_levels(fields: tuple[np.ndarray, np.ndarray], ladder: GeoLadder,
                levels: np.ndarray) -> np.ndarray:
    """The gains that `aguq_fields` output stands for."""
    j, sym = fields
    return cuq_levels(sym, ladder.ranges[j], levels[j], signed=False)


class AguqPlus:
    """The ladder and level counts of the variable-length gain quantizer.

    Ranges grow geometrically (a_g = 2, h_g = 1 + ceil(log2(T)/2)); range j is
    sent as unary (j ones, then a zero -- the Huffman lengths for a
    Geometric(1/2) range distribution), followed by a (j+1)-bit level field.
    Every range except the top uses all 2^(j+1) codes as levels; the top range
    reserves its highest code for the overflow symbol, which decodes to 0.
    `levels[j]` is the level count of range j, so `aguq_fields` runs it.
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
        self.levels = 2 << np.arange(self.h_g)
        self.levels[-1] -= 1

    def write(self, bits: BitString, j: int, sym: int) -> BitString:
        """Append range j in unary and the (j+1)-bit level field of `sym`."""
        bits.write_uint(((1 << j) - 1) << 1, j + 1)  # j ones, then the 0 terminator
        return bits.write_uint(self.levels[j] if sym == OVERFLOW else sym, j + 1)

    def read(self, reader: BitReader) -> tuple[int, int]:
        """Read back what `write` wrote: (j, sym)."""
        j = 0
        while reader.read_bit() == 1:
            j += 1
            if j >= self.h_g:
                raise MalformedStreamError("malformed stream: unary range overruns ladder")
        sym = reader.read_uint(j + 1)
        return j, OVERFLOW if sym == self.levels[j] else sym
