"""One-dimensional workhorses: the coordinate-wise uniform quantizer (CUQ)
with randomized rounding, and the modulo quantizer (MQ) for decoding with
side information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitReader, BitString, _check_int

__all__ = [
    "ModuloParams",
    "OVERFLOW",
    "cuq_round_with",
    "cuq_levels",
    "cuq_expected_decode",
    "cuq_conditional_mse",
    "mq_encode_with",
    "mq_decode",
    "gaussian_wz_params",
    "gaussian_wz_run",
    "write_cuq_symbols",
    "read_cuq_symbols",
]

# Overflow is a symbol, not an error; encoded as value k in a ceil(log2(k+1))-bit field.
OVERFLOW = -1


def _spacing(M, k: int, signed: bool):
    return M * ((2.0 if signed else 1.0) / (k - 1))


def _outside(y: np.ndarray, M, signed: bool) -> np.ndarray:
    """Where y lies outside the CUQ range, [-M, M] or [0, M]."""
    return (np.abs(y) > M) if signed else ((y > M) | (y < 0.0))


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
    sym[_outside(y, M, signed)] = OVERFLOW
    return sym


def cuq_levels(symbols: np.ndarray, M, k: int, signed: bool = True) -> np.ndarray:
    """Level values of CUQ symbols on the grid of `cuq_round_with`; OVERFLOW decodes to 0."""
    out = symbols * _spacing(M, k, signed)
    if signed:
        out -= M
    out[symbols == OVERFLOW] = 0.0
    return out


def cuq_expected_decode(y: np.ndarray, M, signed: bool = True) -> np.ndarray:
    """Analytic E[decode(encode(y))] on the CUQ grid of range M: equals y
    inside the range, 0 outside (any level count k)."""
    y = np.asarray(y, dtype=float)
    return np.where(_outside(y, M, signed), 0.0, y)


def cuq_conditional_mse(y: np.ndarray, M, k: int, signed: bool = True) -> np.ndarray:
    """Exact per-coordinate MSE of the two-branch rounding law (no overflow)
    on the k-level CUQ grid of range M.

    For y in cell (B(l), B(l+1)]: E(Q-y)^2 = (y - B(l)) (B(l+1) - y).
    """
    y = np.asarray(y, dtype=float)
    lo, spacing = (-M if signed else 0.0), _spacing(M, k, signed)
    lower = np.clip(np.ceil((y - lo) / spacing) - 1, 0, k - 2)
    lo_val = lo + lower * spacing
    return (y - lo_val) * (lo_val + spacing - y)


def write_cuq_symbols(bits: BitString, symbols: np.ndarray, k: int) -> BitString:
    """Pack the symbols of a k-level CUQ in ceil(log2(k + 1))-bit fields;
    OVERFLOW is sent as the value k."""
    sym = np.asarray(symbols)
    return bits.write_fields(np.where(sym == OVERFLOW, k, sym), math.ceil(math.log2(k + 1)))


def read_cuq_symbols(reader: BitReader, n: int, k: int) -> np.ndarray:
    """Read back n symbols written by `write_cuq_symbols` with the same k;
    a field above k (the overflow code) raises MalformedStreamError."""
    v = reader.read_fields(n, math.ceil(math.log2(k + 1)), k)
    v[v == k] = OVERFLOW
    return v


@dataclass(frozen=True)
class ModuloParams:
    """Scalar lattice-modulo parameters: k lattice classes and the known
    bound delta on |x - y_side|.

    Recovery needs k*eps >= 2*(eps + delta); the lattice spacing eps =
    2*delta/(k-2) meets it with equality.  A spacing eps is the lattice of
    delta = eps*(k-2)/2.
    """

    k: int
    delta: float

    def __post_init__(self):
        _check_int(self.k, "level count k", 3)
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"distance bound delta must be finite and > 0, got {self.delta!r}")

    @property
    def eps(self) -> float:
        """The lattice spacing 2*delta/(k-2)."""
        return 2.0 * self.delta / (self.k - 2)


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


def gaussian_wz_params(sigma_z: float, D: float) -> tuple[ModuloParams, int]:
    """Modulo-quantizer parameters for side-information rate distortion."""
    if not D <= sigma_z**2 / 308:
        raise ValueError("distortion target must satisfy D <= sigma_z^2/308")
    delta_small = math.sqrt(D / 308.0)
    log_k = math.ceil(
        math.log2(2 + (sigma_z / math.sqrt(D)) * 4 * math.sqrt(
            3 * math.log(2 * math.sqrt(77) * sigma_z / math.sqrt(D))))
    )
    delta_prime = math.sqrt(6 * sigma_z**2 * math.log(sigma_z / delta_small))
    return ModuloParams(1 << log_k, delta_prime), log_k


# The rate-distortion sources, by name: each draws `shape` values at scale
# `scale`.  The normal has standard deviation `scale`; the Laplace shape has
# scale `scale`/2 and is clipped to [-scale, scale] (bounded, hence
# subgaussian, but with heavier near-tails).
_SOURCES = {
    "gaussian": lambda rng, scale, shape: rng.normal(scale=scale, size=shape),
    "laplace": lambda rng, scale, shape: np.clip(
        rng.laplace(scale=scale / 2.0, size=shape), -scale, scale),
}


def _source(source: str):
    """The drawer of `source`; ValueError, before any draw, for an unknown name."""
    if source not in _SOURCES:
        raise ValueError(f"unknown source {source!r}")
    return _SOURCES[source]


def gaussian_wz_run(
    sigma_z: float,
    D: float,
    d: int,
    blocks: int,
    rng: np.random.Generator,
    source: str = "gaussian",
) -> tuple[float, int]:
    """X = Y + Z per coordinate, Y standard normal and Z from `source` at
    scale sigma_z; MQ with decoder side information Y.  Returns (empirical
    per-dimension MSE, log2 k bits per dimension)."""
    params, log_k = gaussian_wz_params(sigma_z, D)
    draw = _source(source)
    y = rng.normal(size=(blocks, d))
    x = y + draw(rng, sigma_z, (blocks, d))
    w = mq_encode_with(x, params, rng.random(x.shape))
    rec = mq_decode(w, y, params)
    mse = float(((rec - x) ** 2).mean())
    return mse, log_k
