"""Full-vector gradient quantizers.

RATQ (rotate, split into subvectors, ATUQ each), its subsampled variant for
fixed low precision, the gain-shape A-RATQ for mean-square-bounded inputs,
SimQ / SimQ+ over l1-ball corner points, and the small/large-coordinate split
quantizer for lq-bounded inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptive import AguqPlus, GeoLadder, TetraLadder, aguq_quantize, log_star, pick_range
from .core import BitReader, BitString, MalformedStreamError, Quantizer, check_finite
from .rotation import (
    check_sample_count,
    fwht,
    next_pow2,
    pad_to_pow2,
    rotate_batch,
    sample_signs,
    sample_signs_batch,
    sample_subset,
    sample_subset_masks,
    unrotate_batch,
)
from .scalar import (
    UniformGrid,
    cuq_decode,
    cuq_encode,
    cuq_levels,
    cuq_round_with,
    read_cuq_symbols,
    write_cuq_symbols,
)

__all__ = [
    "RatqConfig",
    "ratq_quantizer",
    "ratq_apply",
    "atuq_vector_apply",
    "ratq_sample",
    "rcs_wrap",
    "rcs_ratq_sample",
    "AratqConfig",
    "aratq_quantizer",
    "simq_encode",
    "simq_decode",
    "simq_quantizer",
    "SimqPlusConfig",
    "simq_plus_quantizer",
    "simq_plus_sample",
    "LpSplitConfig",
    "lp_split_quantizer",
]

_NORM_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class RatqConfig:
    """RATQ parameters; `default` is the high-precision setting and
    `for_subsampling` the fixed-precision one (s = 1, constant k)."""

    B: float
    d: int
    s: int
    k: int
    ladder: TetraLadder

    @staticmethod
    def _log_h(d: int) -> int:
        return max(0, math.ceil(math.log2(1 + log_star(max(d, 1) / 3.0))))

    @classmethod
    def default(cls, B: float, d: int) -> "RatqConfig":
        log_h = cls._log_h(d)
        s = max(1, log_h)
        k = (1 << math.ceil(math.log2(2 + math.sqrt(9 + 3 * math.log(s))))) - 1
        ladder = TetraLadder(3 * B * B / d, (2 * B * B / d) * math.log(s), 1 << log_h)
        return cls(B, d, s, k, ladder)

    @classmethod
    def for_subsampling(cls, B: float, d: int) -> "RatqConfig":
        log_h = cls._log_h(d)
        ladder = TetraLadder(3 * B * B / d, 0.0, 1 << log_h)
        return cls(B, d, 1, 7, ladder)  # log(k+1) = 3

    @property
    def d_pad(self) -> int:
        return next_pow2(self.d)

    @property
    def n_subvectors(self) -> int:
        return math.ceil(self.d_pad / self.s)

    @property
    def symbol_bits(self) -> int:
        return math.ceil(math.log2(self.k + 1))

    @property
    def bit_budget(self) -> int:
        return self.n_subvectors * self.ladder.index_bits + self.d_pad * self.symbol_bits


def _atuq_ranges(absy: np.ndarray, cfg: RatqConfig) -> tuple[np.ndarray, np.ndarray]:
    """ATUQ range choice for each row of |y| (m, width): the ladder index of
    every length-s subvector, and the picked range of every coordinate."""
    ranges = cfg.ladder.ranges
    if cfg.s == 1:
        j = pick_range(absy, ranges)
        return j, ranges[j]
    m, width = absy.shape
    n_sub = -(-width // cfg.s)
    if n_sub * cfg.s != width:
        absy = np.concatenate([absy, np.zeros((m, n_sub * cfg.s - width))], axis=1)
    # max over the s strided slices: numpy's reduce over a short last axis is slow
    sub = absy.reshape(m, n_sub, cfg.s)
    j = pick_range(functools.reduce(np.maximum, (sub[..., i] for i in range(cfg.s))), ranges)
    return j, ranges[j][:, np.arange(width) // cfg.s]


def _atuq_encode(yr: np.ndarray, cfg: RatqConfig, rng: np.random.Generator, bits: BitString) -> None:
    """Write the range-index block, then the symbol block, for one vector."""
    j, m_coord = _atuq_ranges(np.abs(yr)[None, :], cfg)
    if cfg.ladder.index_bits:
        bits.write_fields(j, cfg.ladder.index_bits)
    grid = UniformGrid(m_coord[0], cfg.k)
    write_cuq_symbols(bits, cuq_encode(yr, grid, rng), grid)


def _atuq_decode(reader: BitReader, cfg: RatqConfig, width: int) -> np.ndarray:
    """Read back what `_atuq_encode` wrote for a vector of `width` coordinates."""
    n_sub = -(-width // cfg.s)
    if cfg.ladder.index_bits:
        j = reader.read_fields(n_sub, cfg.ladder.index_bits)
    else:
        j = np.zeros(n_sub, dtype=np.int64)
    ranges = cfg.ladder.ranges
    # the largest index an encoder picks; above it lie inf levels or no level
    if np.any(j > pick_range(np.inf, ranges)):
        raise MalformedStreamError("malformed stream: range index out of ladder")
    grid = UniformGrid(np.repeat(ranges[j], cfg.s)[:width], cfg.k)
    return cuq_decode(read_cuq_symbols(reader, width, grid), grid)


def ratq_quantizer(cfg: RatqConfig) -> Quantizer:
    """Unbiased fixed-length quantizer for the l2 ball of radius B."""

    def encode(y: np.ndarray, side, rng: np.random.Generator) -> BitString:
        y = check_finite(y)
        if np.linalg.norm(y) > cfg.B * _NORM_SLACK:
            raise ValueError(f"input norm {np.linalg.norm(y):.6g} exceeds bound B={cfg.B}")
        signs = sample_signs(rng, cfg.d_pad)
        bits = BitString()
        _atuq_encode(rotate_batch(pad_to_pow2(y)[0], signs.signs), cfg, rng, bits)
        return bits

    def decode(bits: BitString, side, rng: np.random.Generator) -> np.ndarray:
        signs = sample_signs(rng, cfg.d_pad)
        reader = BitReader(bits)
        yr_hat = _atuq_decode(reader, cfg, cfg.d_pad)
        reader.finish()
        return unrotate_batch(yr_hat, signs.signs)[: cfg.d]

    return Quantizer(encode, decode, cfg.bit_budget, name=f"ratq(d={cfg.d},B={cfg.B:g})")


def _chunks(n: int, d: int, budget: int = 1 << 18):
    step = max(1, budget // max(d, 1))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _atuq_batch(yr: np.ndarray, cfg: RatqConfig, u: np.ndarray) -> np.ndarray:
    """ATUQ each row of an already-transformed (m, width) batch, rounding with
    the uniforms `u` (one per coordinate)."""
    _, m_coord = _atuq_ranges(np.abs(yr), cfg)
    return cuq_levels(cuq_round_with(yr, m_coord, cfg.k, u), m_coord, cfg.k)


def ratq_apply(ys: np.ndarray, cfg: RatqConfig, rng: np.random.Generator) -> np.ndarray:
    """Quantize each row of (n, d) once with independent randomness: (n, d)."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n = ys.shape[0]
    out = np.empty((n, cfg.d))
    root_scale = 1.0 / math.sqrt(cfg.d_pad)
    for lo, hi in _chunks(n, cfg.d_pad):
        signs = sample_signs_batch(rng, hi - lo, cfg.d_pad)
        scaled = signs * root_scale  # folds the 1/sqrt(d) of both transforms
        yr = fwht(pad_to_pow2(ys[lo:hi])[0] * scaled)
        rec = _atuq_batch(yr, cfg, rng.random(yr.shape))
        out[lo:hi] = (fwht(rec) * scaled)[:, : cfg.d]
    return out


def atuq_vector_apply(ys: np.ndarray, cfg: RatqConfig, rng: np.random.Generator) -> np.ndarray:
    """ATUQ without the rotation step (identity transform), row by row."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    out = np.empty_like(ys)
    for lo, hi in _chunks(ys.shape[0], cfg.d):
        out[lo:hi] = _atuq_batch(ys[lo:hi], cfg, rng.random(out[lo:hi].shape))
    return out


def ratq_sample(
    y: np.ndarray, cfg: RatqConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized Monte-Carlo draws of the RATQ reconstruction: (n, d)."""
    tiled = np.broadcast_to(np.asarray(y, dtype=float), (n, cfg.d))
    return ratq_apply(tiled, cfg, rng)


def _check_rcs(cfg: RatqConfig, mu_d: int) -> None:
    if cfg.s != 1:
        raise ValueError("subsampling needs per-coordinate symbols: set s = 1")
    check_sample_count(mu_d, cfg.d_pad)


def rcs_wrap(cfg: RatqConfig, mu_d: int, mode: str = "zero-fill") -> Quantizer:
    """Random coordinate sampling over a per-coordinate RATQ (s must be 1).

    zero-fill: decoder outputs (1/mu) * decoded(i) on the sampled coordinates
    and 0 elsewhere (before unrotation).  center: unsampled coordinates take
    the rotated side-information value and sampled ones are centered on it;
    with side = 0 the two modes coincide.
    """
    _check_rcs(cfg, mu_d)
    if mode not in ("zero-fill", "center"):
        raise ValueError(f"unknown RCS mode {mode!r}")
    mu = mu_d / cfg.d_pad
    bits_per_coord = cfg.ladder.index_bits + cfg.symbol_bits

    def _shared(rng):
        signs = sample_signs(rng, cfg.d_pad)
        coords = sample_subset(rng, cfg.d_pad, mu_d)
        return signs, coords

    def encode(y: np.ndarray, side, rng: np.random.Generator) -> BitString:
        y = check_finite(y)
        if np.linalg.norm(y) > cfg.B * _NORM_SLACK:
            raise ValueError(f"input norm {np.linalg.norm(y):.6g} exceeds bound B={cfg.B}")
        signs, coords = _shared(rng)
        bits = BitString()
        _atuq_encode(rotate_batch(pad_to_pow2(y)[0], signs.signs)[coords], cfg, rng, bits)
        return bits

    def decode(bits: BitString, side, rng: np.random.Generator) -> np.ndarray:
        signs, coords = _shared(rng)
        reader = BitReader(bits)
        vals = _atuq_decode(reader, cfg, mu_d)
        reader.finish()
        if mode == "center" and side is not None:
            side_rot = rotate_batch(pad_to_pow2(side)[0], signs.signs)
        else:
            side_rot = np.zeros(cfg.d_pad)
        xr = side_rot.copy()
        xr[coords] += (vals - side_rot[coords]) / mu
        return unrotate_batch(xr, signs.signs)[: cfg.d]

    return Quantizer(
        encode,
        decode,
        mu_d * bits_per_coord,
        name=f"rcs-ratq(d={cfg.d},mu_d={mu_d})",
        uses_side_info=(mode == "center"),
    )


def rcs_ratq_sample(
    y: np.ndarray, cfg: RatqConfig, mu_d: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized draws of the subsampled-RATQ reconstruction (zero-fill).

    Each chunk draws, in order, the signs, the subset masks and one rounding
    uniform per rotated coordinate, kept or not; ranges and CUQ rounding run
    on the kept coordinates only, each with its own uniform.
    """
    _check_rcs(cfg, mu_d)
    padded = pad_to_pow2(y)[0]
    mu = mu_d / cfg.d_pad
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        signs = sample_signs_batch(rng, hi - lo, cfg.d_pad)
        yr = rotate_batch(padded[None, :], signs)
        kept = np.flatnonzero(sample_subset_masks(rng, hi - lo, cfg.d_pad, mu_d))
        u = rng.random(yr.shape)
        # s = 1: every coordinate picks its own range, so the kept ones form one row
        vals = _atuq_batch(yr.ravel()[kept][None, :], cfg, u.ravel()[kept][None, :])
        rec = np.zeros_like(yr)
        rec.ravel()[kept] = vals[0] / mu
        out[lo:hi] = unrotate_batch(rec, signs)[:, : cfg.d]
    return out


@dataclass(frozen=True)
class AratqConfig:
    """Gain-shape quantizer: AGUQ (or AGUQ+) for the gain, unit-ball RATQ for
    the shape. Gain above the top range decodes to 0."""

    B: float
    d: int
    gain_ladder: GeoLadder
    k_g: int
    shape: RatqConfig
    gain_mode: str = "aguq"  # "aguq" | "aguq_plus"
    T: int = 0  # horizon, only used by aguq_plus

    @classmethod
    def default(cls, B: float, d: int, T: int, gain_mode: str = "aguq") -> "AratqConfig":
        log_hg = math.ceil(math.log2(1 + 0.5 * math.log2(T)))
        k_g = (1 << math.ceil(math.log2(2 + 0.5 * math.sqrt(math.log2(T) + 1)))) - 1
        ladder = GeoLadder(B, 2.0, 1 << log_hg)
        return cls(B, d, ladder, k_g, RatqConfig.default(1.0, d), gain_mode, T)

    def gain_grid(self, j: int) -> UniformGrid:
        return UniformGrid(self.gain_ladder.ranges[j], self.k_g, "nonneg")

    @property
    def gain_bits(self) -> int:
        return self.gain_ladder.index_bits + self.gain_grid(0).symbol_bits

    @property
    def bit_budget(self) -> Optional[int]:
        if self.gain_mode == "aguq_plus":
            return None  # variable-length gain field
        return self.gain_bits + self.shape.bit_budget


def aratq_quantizer(cfg: AratqConfig) -> Quantizer:
    shape_q = ratq_quantizer(cfg.shape)
    plus = AguqPlus(cfg.B, cfg.T) if cfg.gain_mode == "aguq_plus" else None

    def encode(y: np.ndarray, side, rng: np.random.Generator) -> BitString:
        y = check_finite(y)
        gain = float(np.linalg.norm(y))
        shape = y / gain if gain > 0 else _e1(cfg.d)
        signs = sample_signs(rng, cfg.shape.d_pad)  # shared draw first
        bits = BitString()
        if plus is not None:
            gbits, _ = plus.encode(gain, rng)
            bits.extend(gbits)
        else:
            j, sym, _ = aguq_quantize(gain, cfg.gain_ladder, cfg.k_g, rng)
            if cfg.gain_ladder.index_bits:
                bits.write_uint(j, cfg.gain_ladder.index_bits)
            write_cuq_symbols(bits, [sym], cfg.gain_grid(j))
        _atuq_encode(rotate_batch(pad_to_pow2(shape)[0], signs.signs), cfg.shape, rng, bits)
        return bits

    def decode(bits: BitString, side, rng: np.random.Generator) -> np.ndarray:
        signs = sample_signs(rng, cfg.shape.d_pad)
        reader = BitReader(bits)
        if plus is not None:
            gain_hat = plus.decode(reader)
        else:
            j = reader.read_uint(cfg.gain_ladder.index_bits) if cfg.gain_ladder.index_bits else 0
            grid = cfg.gain_grid(j)
            gain_hat = float(cuq_decode(read_cuq_symbols(reader, 1, grid), grid)[0])
        shape_rot = _atuq_decode(reader, cfg.shape, cfg.shape.d_pad)
        reader.finish()
        shape_hat = unrotate_batch(shape_rot, signs.signs)[: cfg.d]
        return gain_hat * shape_hat

    return Quantizer(
        encode, decode, cfg.bit_budget, name=f"aratq(d={cfg.d},B={cfg.B:g},{cfg.gain_mode})"
    )


def _e1(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[0] = 1.0
    return e


# ---------------------------------------------------------------------------
# SimQ / SimQ+


def simq_encode(y: np.ndarray, B: float, rng: np.random.Generator) -> int:
    """Sample a signed corner index: +-i with prob |y(i)|/B, 0 otherwise."""
    y = check_finite(y)
    l1 = float(np.abs(y).sum())
    if l1 > B * _NORM_SLACK:
        raise ValueError(f"l1 norm {l1:.6g} exceeds bound B={B}")
    u = rng.random() * B
    csum = np.cumsum(np.abs(y))
    idx = int(np.searchsorted(csum, u, side="right"))
    if idx >= y.size:
        return 0
    return (idx + 1) * (1 if y[idx] >= 0 else -1)


def simq_decode(symbol: int, B: float, d: int) -> np.ndarray:
    if symbol == 0:
        return np.zeros(d)
    i = abs(symbol) - 1
    out = np.zeros(d)
    out[i] = B * (1 if symbol > 0 else -1)
    return out


def simq_quantizer(B: float, d: int) -> Quantizer:
    width = math.ceil(math.log2(2 * d + 1))

    def encode(y, side, rng):
        s = simq_encode(y, B, rng)
        code = 0 if s == 0 else (s if s > 0 else d + (-s))
        return BitString().write_uint(code, width)

    def decode(bits, side, rng):
        reader = BitReader(bits)
        code = reader.read_uint(width)
        reader.finish()
        if code > 2 * d:
            raise MalformedStreamError(f"malformed stream: SimQ code {code} above 2d = {2 * d}")
        return simq_decode(code if code <= d else d - code, B, d)

    return Quantizer(encode, decode, width, name=f"simq(d={d},B={B:g})")


def _bar_positions(counts: np.ndarray) -> list[int]:
    # stars-and-bars: composition of k into m parts <-> increasing bar slots
    pos, acc = [], 0
    for i, c in enumerate(counts[:-1]):
        acc += int(c)
        pos.append(acc + i)
    return pos


def _rank_composition(counts: np.ndarray) -> int:
    """Combinadic rank of the stars-and-bars set; big-int safe."""
    rank = 0
    for j, p in enumerate(_bar_positions(counts)):
        rank += math.comb(p, j + 1)
    return rank


def _unrank_composition(rank: int, k: int, parts: int) -> np.ndarray:
    n_slots = k + parts - 1
    n_bars = parts - 1
    if rank >= math.comb(n_slots, n_bars):
        raise MalformedStreamError(f"malformed stream: type rank {rank} out of range")
    pos = [0] * n_bars
    for j in range(n_bars - 1, -1, -1):
        # largest p with comb(p, j+1) <= rank
        p = j
        while math.comb(p + 1, j + 1) <= rank:
            p += 1
        pos[j] = p
        rank -= math.comb(p, j + 1)
    counts = np.empty(parts, dtype=np.int64)
    prev = -1
    for j in range(n_bars):
        counts[j] = pos[j] - prev - 1
        prev = pos[j]
    counts[-1] = n_slots - 1 - prev
    return counts


@dataclass(frozen=True)
class SimqPlusConfig:
    """k averaged SimQ draws at scale B d^(1/p); the message carries the type
    (multiset of drawn indices) plus one sign bit per distinct nonzero index."""

    B: float
    d: int
    p: float
    k: int = 0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("SimQ+ covers p in [2, inf]")
        if self.k == 0:
            object.__setattr__(self, "k", max(1, round(self.d ** (2.0 / self.p))))

    @property
    def scale(self) -> float:
        return self.B * self.d ** (1.0 / self.p)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0) if self.p != math.inf else 1.0

    @property
    def type_bits(self) -> int:
        return max(1, math.ceil(math.log2(math.comb(self.d + self.k, self.k))))

    @property
    def bit_budget(self) -> int:
        return self.type_bits + self.k

    def analytic_budget(self) -> float:
        """Closed-form budget k log2(e) + k log2(d/k + 1) + k; the exact
        combinadic accounting in bit_budget never exceeds it."""
        return self.k * math.log2(math.e) + self.k * math.log2(self.d / self.k + 1) + self.k


def simq_plus_quantizer(cfg: SimqPlusConfig) -> Quantizer:
    def encode(y, side, rng):
        y = np.asarray(y, dtype=float)
        counts = np.zeros(cfg.d + 1, dtype=np.int64)
        for _ in range(cfg.k):
            s = simq_encode(y, cfg.scale, rng)
            counts[abs(s)] += 1
        bits = BitString().write_uint(_rank_composition(counts), cfg.type_bits)
        return bits.write_fields(y[np.nonzero(counts[1:])[0]] >= 0, 1)

    def decode(bits, side, rng):
        reader = BitReader(bits)
        counts = _unrank_composition(reader.read_uint(cfg.type_bits), cfg.k, cfg.d + 1)
        nz = np.nonzero(counts[1:])[0]
        positive = reader.read_fields(len(nz), 1)
        reader.finish()
        out = np.zeros(cfg.d)
        out[nz] = np.where(positive, 1.0, -1.0) * counts[nz + 1]
        return out * (cfg.scale / cfg.k)

    return Quantizer(encode, decode, cfg.bit_budget, name=f"simq+(d={cfg.d},k={cfg.k})")


def simq_plus_sample(
    y: np.ndarray, cfg: SimqPlusConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized reconstructions: multinomial type draws, (n, d)."""
    y = np.asarray(y, dtype=float)
    probs = np.empty(cfg.d + 1)
    probs[1:] = np.abs(y) / cfg.scale
    probs[0] = max(0.0, 1.0 - probs[1:].sum())
    probs /= probs.sum()
    counts = rng.multinomial(cfg.k, probs, size=n)
    return counts[:, 1:] * np.sign(y)[None, :] * (cfg.scale / cfg.k)


# ---------------------------------------------------------------------------
# Split quantizer for lq-bounded inputs, p in [1, 2]


@dataclass(frozen=True)
class LpSplitConfig:
    """Threshold split: small coordinates go to a fixed-range CUQ, the at most
    d/D1 large ones are flagged by a d-bit mask and quantized by RATQ on a
    fixed-dimension restriction (zero-filled, so the message length is fixed).
    """

    B: float
    d: int
    p: float

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("split quantizer covers p in [1, 2]")

    @property
    def q(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)

    @property
    def delta2(self) -> int:
        return math.ceil(math.log2(1 + log_star(self.d / 3.0)))

    @property
    def delta1(self) -> int:
        exp = 0.5 - (0.0 if self.q == math.inf else 1.0 / self.q)
        return math.ceil(
            math.log2(2 + math.sqrt(18 + 6 * math.log(self.delta2)) * self.d**exp)
        )

    @property
    def threshold(self) -> float:
        if self.q == math.inf:
            return self.B
        return self.B * (self.delta1 / self.d) ** (1.0 / self.q)

    @property
    def cuq_grid(self) -> UniformGrid:
        inv_q = 0.0 if self.q == math.inf else 1.0 / self.q
        k = (1 << math.ceil(math.log2(2 * math.sqrt(2) * self.delta1**inv_q + 2))) - 1
        return UniformGrid(self.threshold, k, "signed")

    @property
    def d_large(self) -> int:
        return max(1, self.d // self.delta1)

    @property
    def ratq_cfg(self) -> RatqConfig:
        inv_q = 0.0 if self.q == math.inf else 1.0 / self.q
        B2 = self.B * self.d ** (0.5 - inv_q)
        d2 = self.d_large
        log_h = math.ceil(math.log2(1 + log_star(d2 / 3.0))) if d2 >= 1 else 0
        s = max(1, log_h)
        k = (1 << self.delta1) - 1
        ladder = TetraLadder(3 * B2 * B2 / d2, (2 * B2 * B2 / d2) * math.log(s), 1 << log_h)
        return RatqConfig(B2, d2, s, k, ladder)

    @property
    def bit_budget(self) -> int:
        return self.d * self.cuq_grid.symbol_bits + self.d + self.ratq_cfg.bit_budget

    def analytic_budget(self) -> int:
        """Closed-form budget without the power-of-two framing overhead."""
        inv_q = 0.0 if self.q == math.inf else 1.0 / self.q
        return self.d * (math.ceil(math.log2(2 * math.sqrt(2) * self.delta1**inv_q + 2)) + 3) + self.delta2


def lp_split_quantizer(cfg: LpSplitConfig) -> Quantizer:
    grid = cfg.cuq_grid
    ratq_cfg = cfg.ratq_cfg

    def encode(y, side, rng):
        y = check_finite(y)
        q = cfg.q
        norm = np.max(np.abs(y)) if q == math.inf else np.sum(np.abs(y) ** q) ** (1 / q)
        if norm > cfg.B * _NORM_SLACK:
            raise ValueError(f"lq norm {norm:.6g} exceeds bound B={cfg.B}")
        signs = sample_signs(rng, ratq_cfg.d_pad)  # shared draw before any private one
        large = np.abs(y) > grid.M
        bits = BitString()
        write_cuq_symbols(bits, cuq_encode(np.where(large, 0.0, y), grid, rng), grid)
        bits.write_fields(large, 1)
        vals = y[large]
        if vals.size > ratq_cfg.d:
            raise AssertionError("more large coordinates than the lq bound allows")
        restriction = np.zeros(ratq_cfg.d_pad)
        restriction[: vals.size] = vals
        _atuq_encode(rotate_batch(restriction, signs.signs), ratq_cfg, rng, bits)
        return bits

    def decode(bits, side, rng):
        signs = sample_signs(rng, ratq_cfg.d_pad)  # same shared draw as the encoder
        reader = BitReader(bits)
        out = cuq_decode(read_cuq_symbols(reader, cfg.d, grid), grid)
        mask = reader.read_fields(cfg.d, 1).astype(bool)
        rot = _atuq_decode(reader, ratq_cfg, ratq_cfg.d_pad)
        reader.finish()
        n_large = int(mask.sum())
        if n_large > ratq_cfg.d:
            raise MalformedStreamError(
                f"malformed stream: {n_large} large coordinates, at most {ratq_cfg.d}"
            )
        out[mask] += unrotate_batch(rot, signs.signs)[:n_large]
        return out

    return Quantizer(encode, decode, cfg.bit_budget, name=f"lp-split(d={cfg.d},p={cfg.p:g})")
