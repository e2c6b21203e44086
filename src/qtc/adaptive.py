"""Adaptive dynamic-range quantizers.

Every adaptive quantizer picks the smallest range on an increasing
`Ladder` that covers its input and rounds on that range.  ATUQ does so for
whole subvectors over a tetra-iterated ladder (the quantizer is in
`qtc.vector`), the RDAQ scales in `qtc.sideinfo` use the same ladder, and
AGUQ does so for nonnegative gains over a geometric ladder (batched:
`aguq_uniforms` draws, `aguq_fields` rounds); AGUQ+ is its variable-length
variant, whose unary range code the A-RATQ kernel in `qtc.vector` writes
and reads.  A ladder works out its ranges and its `top`, the largest index
an encoder picks, once; encoders clamp to that top and decoders pass it to
`BitReader.read_fields` as the index block's largest legal value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scalar import cuq_levels, cuq_round_with

__all__ = [
    "tetration",
    "log_star",
    "Ladder",
    "aguq_uniforms",
    "aguq_fields",
    "aguq_levels",
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


def _tetra_log_h(b: float) -> int:
    """log2 h = ceil(log2(1 + log*(b))) of a tetra ladder: the fewest
    power-of-two rungs h with e^^(h-1) >= b, so that the top range squared
    reaches b times the bottom one (ATUQ, RDAQ and the no-side-info bound)."""
    return math.ceil(math.log2(1 + log_star(b)))


@dataclass(frozen=True)
class Ladder:
    """An increasing ladder of ranges: every adaptive quantizer picks the
    smallest range that covers its input and rounds on it.

    Build one with `tetra` (ATUQ, RDAQ) or `geometric` (AGUQ, AGUQ+).
    Ranges past float range are stored as inf.  A CUQ grid over an infinite
    range has no finite spacing, so no encoder picks such a range (see
    `pick`) and decoders reject an index above `top`.
    """

    rungs: tuple[float, ...]

    def __post_init__(self):
        if not self.rungs:
            raise ValueError("ladder needs h >= 1")

    @classmethod
    def tetra(cls, m: float, m0: float, h: int) -> "Ladder":
        """Ranges M_i = sqrt(m * e^^i + m0), i = 0..h-1: strictly increasing
        while finite, and inf from i = 4 on (e^^4 overflows double precision)."""
        if h > 8:
            raise ValueError("ladders beyond h = 8 are never needed; refusing")
        if m <= 0 or m0 < 0:
            raise ValueError("require m > 0 and m0 >= 0")
        rungs = []
        for i in range(h):
            t = tetration(i) if i <= 5 else math.inf
            rungs.append(math.sqrt(m * t + m0) if math.isfinite(t) else math.inf)
        return cls(tuple(rungs))

    @classmethod
    def geometric(cls, B: float, a: float, h: int) -> "Ladder":
        """Ranges M_j = B * a^(j/2), j = 0..h-1, so that M_j^2 = B^2 * a^j."""
        if a <= 1:
            raise ValueError("growth ratio a must exceed 1")
        return cls(tuple((B * np.power(a, np.arange(h) / 2.0)).tolist()))

    @functools.cached_property
    def ranges(self) -> np.ndarray:
        """The h ranges as an array, made once per ladder; read-only."""
        out = np.array(self.rungs, dtype=float)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def top(self) -> int:
        """The index of the largest finite range: the largest an encoder picks."""
        return int(np.count_nonzero(np.isfinite(self.ranges))) - 1

    @property
    def h(self) -> int:
        return len(self.rungs)

    @property
    def index_bits(self) -> int:
        return math.ceil(math.log2(self.h))  # 0 when h == 1: index is constant

    def pick(self, values):
        """Index of the smallest range covering each value, clamped to `top`;
        values above it keep that range and overflow."""
        return np.minimum(np.searchsorted(self.ranges, values, side="left"), self.top)


def aguq_uniforms(g: np.ndarray, ladder: Ladder, rng: np.random.Generator) -> np.ndarray:
    """The rounding uniforms of AGUQ on the gains g: one per gain, drawn from
    rng, or zeros, with no draw, when every gain is above the top range (the
    overflow symbol of such a gain reads no uniform)."""
    g = np.asarray(g)
    return np.zeros(g.shape) if (g > ladder.ranges[-1]).all() else rng.random(g.shape)


def aguq_fields(g: np.ndarray, ladder: Ladder, levels: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """AGUQ on nonnegative gains g, rounding with the `aguq_uniforms` draws
    u: the index j of the smallest range of `ladder` covering each gain, and
    its CUQ symbol on levels[j] levels over [0, M_j].  A gain above the top
    range gets the top index and the overflow symbol, which decodes to 0."""
    if (g < 0).any():
        raise ValueError("gains must be nonnegative")
    j = ladder.pick(g)
    return j, cuq_round_with(g, ladder.ranges[j], levels[j], u, signed=False)


def aguq_levels(fields: tuple[np.ndarray, np.ndarray], ladder: Ladder,
                levels: np.ndarray) -> np.ndarray:
    """The gains that `aguq_fields` output stands for."""
    j, sym = fields
    return cuq_levels(sym, ladder.ranges[j], levels[j], signed=False)
