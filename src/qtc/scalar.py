"""One-dimensional workhorses: the coordinate-wise uniform quantizer (CUQ)
with randomized rounding, and the modulo quantizer (MQ) for decoding with
side information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BitReader, BitString, MalformedStreamError

__all__ = [
    "UniformGrid",
    "ModuloParams",
    "OVERFLOW",
    "cuq_round",
    "cuq_round_with",
    "cuq_levels",
    "cuq_encode",
    "cuq_decode",
    "cuq_expected_decode",
    "cuq_conditional_mse",
    "mq_encode",
    "mq_encode_with",
    "mq_decode",
    "mq_quantize",
    "write_cuq_symbols",
    "read_cuq_symbols",
]

# Overflow is a symbol, not an error; encoded as value k in a ceil(log2(k+1))-bit field.
OVERFLOW = -1


def _spacing(M, k: int, signed: bool):
    return M * ((2.0 if signed else 1.0) / (k - 1))


def cuq_round(y: np.ndarray, M, k: int, rng: np.random.Generator, signed: bool = True) -> np.ndarray:
    """`cuq_round_with` on one fresh uniform per coordinate: draws
    rng.random(y.shape) once and passes the draws on."""
    return cuq_round_with(y, M, k, rng.random(np.shape(y)), signed)


def cuq_round_with(y: np.ndarray, M, k: int, u: np.ndarray, signed: bool = True) -> np.ndarray:
    """Randomized rounding onto the k-level CUQ grid over [-M, M] (signed) or
    [0, M] (nonneg): the one implementation of the rule every CUQ-based
    quantizer and sampler uses.

    `y` is an array of one or more dimensions; `M` is finite and positive and
    broadcasts against it, so the range may vary per coordinate.  `u` holds
    one uniform in [0, 1) per coordinate of `y`.  With t the fractional level
    index, the symbol is ceil(t) - 1 + (u < frac), clipped to 0..k-1: a value
    on a level B(l) belongs to the cell (B(l-1), B(l)] and is emitted as l
    deterministically.  Coordinates outside the range get OVERFLOW.  Returns
    float symbols.  A sampler that keeps only some coordinates draws the
    uniforms of all of them and rounds the kept ones with their own draws.
    """
    t = y / _spacing(M, k, signed)
    if signed:
        t += (k - 1) / 2.0
    sym = np.ceil(t)
    sym -= 1.0
    t -= sym  # rounding-up probability, in (0, 1]
    sym += u < t
    del t
    np.clip(sym, 0, k - 1, out=sym)
    sym[(np.abs(y) > M) if signed else ((y > M) | (y < 0.0))] = OVERFLOW
    return sym


def cuq_levels(symbols: np.ndarray, M, k: int, signed: bool = True) -> np.ndarray:
    """Level values of CUQ symbols on the grid of `cuq_round`; OVERFLOW decodes to 0."""
    out = symbols * _spacing(M, k, signed)
    if signed:
        out -= M
    out[symbols == OVERFLOW] = 0.0
    return out


@dataclass(frozen=True)
class UniformGrid:
    """Uniform level grid: signed mode spans [-M, M], nonnegative mode [0, M].

    Levels: signed  B(l) = -M + l * 2M/(k-1),  l = 0..k-1
            nonneg  B(l) = l * M/(k-1)
    A coordinate outside the range maps to the overflow symbol, decoded as 0.
    M is a positive scalar or an array of per-coordinate ranges.
    """

    M: float | np.ndarray
    k: int
    mode: str = "signed"  # "signed" | "nonneg"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"level count k must be >= 2, got {self.k}")
        if not np.all(np.asarray(self.M) > 0):
            raise ValueError(f"dynamic range M must be positive, got {self.M}")
        if self.mode not in ("signed", "nonneg"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def signed(self) -> bool:
        return self.mode == "signed"

    @property
    def lo(self):
        return -self.M if self.signed else 0.0

    @property
    def spacing(self):
        return _spacing(self.M, self.k, self.signed)

    def level(self, symbols: np.ndarray) -> np.ndarray:
        """Level values for symbols; OVERFLOW decodes to 0."""
        return cuq_levels(np.asarray(symbols, dtype=float), self.M, self.k, self.signed)

    @property
    def symbol_bits(self) -> int:
        return math.ceil(math.log2(self.k + 1))


def cuq_encode(y: np.ndarray, grid: UniformGrid, rng: np.random.Generator) -> np.ndarray:
    """Randomized-rounding encode (`cuq_round`); returns int symbols in
    {0..k-1} or OVERFLOW."""
    y = np.asarray(y, dtype=float)
    return cuq_round(y, grid.M, grid.k, rng, grid.signed).astype(np.int64)


def cuq_decode(symbols: np.ndarray, grid: UniformGrid) -> np.ndarray:
    sym = np.asarray(symbols)
    if np.any(sym >= grid.k):
        raise MalformedStreamError("malformed stream: symbol out of range")
    return grid.level(sym)


def cuq_expected_decode(y: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Analytic E[decode(encode(y))]: equals y inside the range, 0 outside."""
    y = np.asarray(y, dtype=float)
    if grid.mode == "signed":
        over = np.abs(y) > grid.M
    else:
        over = (y > grid.M) | (y < 0.0)
    return np.where(over, 0.0, y)


def cuq_conditional_mse(y: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Exact per-coordinate MSE of the two-branch rounding law (no overflow).

    For y in cell (B(l), B(l+1)]: E(Q-y)^2 = (y - B(l)) (B(l+1) - y).
    """
    y = np.asarray(y, dtype=float)
    t = (y - grid.lo) / grid.spacing
    lower = np.ceil(t) - 1
    lower = np.clip(lower, 0, grid.k - 2)
    lo_val = grid.lo + lower * grid.spacing
    hi_val = lo_val + grid.spacing
    return (y - lo_val) * (hi_val - y)


def write_cuq_symbols(bits: BitString, symbols: np.ndarray, grid: UniformGrid) -> BitString:
    """Pack symbols in symbol_bits-wide fields; OVERFLOW is sent as the value k."""
    sym = np.asarray(symbols)
    return bits.write_fields(np.where(sym == OVERFLOW, grid.k, sym), grid.symbol_bits)


def read_cuq_symbols(reader: BitReader, n: int, grid: UniformGrid) -> np.ndarray:
    v = reader.read_fields(n, grid.symbol_bits)
    if np.any(v > grid.k):
        raise MalformedStreamError("malformed stream: CUQ symbol out of range")
    v[v == grid.k] = OVERFLOW
    return v


@dataclass(frozen=True)
class ModuloParams:
    """Scalar lattice-modulo parameters.

    Recovery needs k*eps >= 2*(eps + delta); the default eps = 2*delta/(k-2)
    meets it with equality for k >= 4.
    """

    k: int
    delta: float  # known bound on |x - y_side|
    eps: float = field(default=0.0)

    def __post_init__(self):
        if self.eps == 0.0:
            if self.k < 3:
                raise ValueError("default eps rule needs k >= 3")
            object.__setattr__(self, "eps", 2.0 * self.delta / (self.k - 2))
        if self.eps <= 0:
            raise ValueError("lattice spacing eps must be positive")

    @property
    def symbol_bits(self) -> int:
        return math.ceil(math.log2(self.k))


def mq_encode(x: np.ndarray, params: ModuloParams, rng: np.random.Generator) -> np.ndarray:
    """`mq_encode_with` on one fresh uniform per coordinate: draws
    rng.random(x.shape) once and passes the draws on."""
    x = np.asarray(x, dtype=float)
    return mq_encode_with(x, params, rng.random(x.shape))


def mq_encode_with(x: np.ndarray, params: ModuloParams, u: np.ndarray) -> np.ndarray:
    """Unbiased dither to the integer lattice, transmitted modulo k: the one
    implementation of the MQ encoding rule.

    `u` holds one uniform in [0, 1) per coordinate of `x`; the lattice point
    above x/eps is taken when u falls below the fractional part.  A sampler
    that keeps only some coordinates draws the dither of all of them and
    encodes the kept ones with their own draws.
    """
    t = np.asarray(x, dtype=float) / params.eps
    z_lo = np.floor(t)
    frac = t - z_lo  # P(round up); exactly 0 on lattice points
    z_tilde = z_lo + (u < frac)
    return np.mod(z_tilde, params.k).astype(np.int64)


def mq_decode(w: np.ndarray, y_side: np.ndarray, params: ModuloParams) -> np.ndarray:
    """Closest point of {(z k + w) eps} to y_side, ties to the smaller value.

    In lattice units t = (y/eps - w)/k the closest z is the integer nearest
    t, and z = ceil(t - 1/2) sends a tie t = n + 1/2 to n.  Rounding in t can
    disagree with a comparison of distances in value space only when y lies
    within an ulp of a midpoint between two candidates; either answer is
    then one of the two nearest points.
    """
    w = np.asarray(w, dtype=np.int64)
    y = np.asarray(y_side, dtype=float)
    z = np.ceil((y / params.eps - w) / params.k - 0.5)
    return (z * params.k + w) * params.eps


def mq_quantize(
    x: float, y_side: float, params: ModuloParams, rng: np.random.Generator
) -> tuple[int, float]:
    """One-shot encode+decode; returns (coset symbol, reconstruction)."""
    w = mq_encode(np.asarray([x]), params, rng)
    rec = mq_decode(w, np.asarray([y_side]), params)
    return int(w[0]), float(rec[0])
