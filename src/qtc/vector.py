"""Full-vector gradient quantizers.

RATQ (rotate, split into subvectors, ATUQ each), its subsampled variant for
fixed low precision, the gain-shape A-RATQ for mean-square-bounded inputs,
SimQ / SimQ+ over l1-ball corner points, and the small/large-coordinate split
quantizer for lq-bounded inputs.  RATQ and its subsampled variant state
their ATUQ rule on the sent rotated coordinates and leave the rotation, the
window of kept coordinates and the correction to `rotation.rotated_kernel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .adaptive import (
    AguqPlus,
    GeoLadder,
    TetraLadder,
    aguq_fields,
    aguq_levels,
    aguq_uniforms,
    log_star,
    pick_range,
)
from .core import (
    BitReader,
    BitString,
    Kernel,
    MalformedStreamError,
    Quantizer,
    _l2_norm,
    check_vector,
    kernel_quantizer,
)
from .rotation import next_pow2, rotated_kernel
from .scalar import (
    UniformGrid,
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
    "rcs_wrap",
    "gaussian_rd_config",
    "gaussian_rd_run",
    "AratqConfig",
    "aratq_quantizer",
    "simq_decode",
    "simq_quantizer",
    "SimqPlusConfig",
    "simq_plus_quantizer",
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

    @property
    def alpha2(self) -> float:
        """The bound B sqrt((9 + 3 ln s) / (k - 1)^2 + 1) on the root second
        moment of a RATQ output."""
        return self.B * math.sqrt((9 + 3 * math.log(self.s)) / (self.k - 1) ** 2 + 1)


@functools.lru_cache(maxsize=None)
def _subvector_of(width: int, s: int) -> np.ndarray:
    """The subvector of each of `width` coordinates cut into length-s
    subvectors, worked out once per shape; read-only."""
    out = np.arange(width) // s
    out.flags.writeable = False
    return out


def _coord_ranges(ranges: np.ndarray, j: np.ndarray, s: int, width: int) -> np.ndarray:
    """The range of each of `width` coordinates, (m, width), from the ladder
    index j of every length-s subvector, (m, n_sub)."""
    return ranges[j] if s == 1 else ranges[j][:, _subvector_of(width, s)]


def _atuq_ranges(absy: np.ndarray, cfg: RatqConfig) -> tuple[np.ndarray, np.ndarray]:
    """ATUQ range choice for each row of |y| (m, width): the ladder index of
    every length-s subvector, and the picked range of every coordinate."""
    ranges, top = cfg.ladder.ranges, cfg.ladder.top
    if cfg.s == 1:
        j = pick_range(absy, ranges, top)
        return j, ranges[j]
    m, width = absy.shape
    n_sub = -(-width // cfg.s)
    if n_sub * cfg.s != width:
        absy = np.concatenate([absy, np.zeros((m, n_sub * cfg.s - width))], axis=1)
    # max over the s strided slices: numpy's reduce over a short last axis is slow
    sub = absy.reshape(m, n_sub, cfg.s)
    j = pick_range(functools.reduce(np.maximum, (sub[..., i] for i in range(cfg.s))), ranges, top)
    return j, _coord_ranges(ranges, j, cfg.s, width)


def _atuq_fields(yr: np.ndarray, u: np.ndarray, cfg: RatqConfig) -> tuple[np.ndarray, np.ndarray]:
    """ATUQ each row of an (m, width) batch, rounding with the uniforms `u`
    (one per coordinate): the ladder index of every subvector and the CUQ
    symbol (OVERFLOW outside its range) of every coordinate."""
    j, m_coord = _atuq_ranges(np.abs(yr), cfg)
    return j, cuq_round_with(yr, m_coord, cfg.k, u)


def _atuq_levels(fields: tuple[np.ndarray, np.ndarray], cfg: RatqConfig) -> np.ndarray:
    """The values that `_atuq_fields` output stands for, (m, width)."""
    j, sym = fields
    return cuq_levels(sym, _coord_ranges(cfg.ladder.ranges, j, cfg.s, sym.shape[1]), cfg.k)


def _write_atuq(bits: BitString, fields, cfg: RatqConfig) -> BitString:
    """Append one row of fields: the range-index block, then the symbol block."""
    j, sym = fields
    if cfg.ladder.index_bits:
        bits.write_fields(j, cfg.ladder.index_bits)
    return write_cuq_symbols(bits, sym, cfg)


def _read_atuq(reader: BitReader, cfg: RatqConfig, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read back what `_write_atuq` wrote for `width` coordinates, as one row."""
    n_sub = -(-width // cfg.s)
    if cfg.ladder.index_bits:
        # above the ladder's top lie inf levels or no level
        j = reader.read_fields(n_sub, cfg.ladder.index_bits, cfg.ladder.top)
    else:
        j = np.zeros(n_sub, dtype=np.int64)
    return j[None], read_cuq_symbols(reader, width, cfg)[None]


def _ratq_kernel(cfg: RatqConfig, mu_d: Optional[int] = None, center: bool = False) -> Kernel:
    """The RATQ kernel pair, subsampled with mu_d and, with `center`,
    centered on the side information (on 0 without).  Ranges and CUQ
    rounding run on the sent rotated coordinates, each with its own
    rounding uniform, and each one's correction is its level minus the
    rotated side information (`rotation.rotated_kernel`).  A message takes
    ceil(d_pad / 32) 64-bit outputs of the stream for the signs, one for
    the window (subsampled only) and width for the rounding."""
    width = cfg.d_pad if mu_d is None else mu_d

    def check_input(y):
        y = check_vector(y, cfg.d)
        norm = _l2_norm(y)
        if norm > cfg.B * _NORM_SLACK:
            raise ValueError(f"input norm {norm:.6g} exceeds bound B={cfg.B}")
        return y

    def check_side(side):
        return check_vector(side, cfg.d, "side information") if center and side is not None else None

    return rotated_kernel(
        cfg.d, mu_d, cfg.d_pad, check_input, check_side,
        encode=lambda yr, yk, v, u: _atuq_fields(yk, u, cfg),
        decode=lambda fields, sr, sk, v: _atuq_levels(fields, cfg) - sk,
        write=lambda bits, fields: _write_atuq(bits, fields, cfg),
        read=lambda reader: _read_atuq(reader, cfg, width),
        noise=lambda rng, shape: rng.random(shape),
    )


def ratq_quantizer(cfg: RatqConfig) -> Quantizer:
    """Unbiased fixed-length quantizer for the l2 ball of radius B."""
    return kernel_quantizer(_ratq_kernel(cfg), cfg.bit_budget, f"ratq(d={cfg.d},B={cfg.B:g})")


def ratq_apply(ys: np.ndarray, cfg: RatqConfig, rng: np.random.Generator) -> np.ndarray:
    """Quantize each row of (n, d) once with independent randomness: (n, d).
    ValueError, as the codec's, if a row lies outside the l2 ball of radius B."""
    ys = np.atleast_2d(ys)
    return _ratq_kernel(cfg).sample(ys, None, len(ys), rng)


def atuq_vector_apply(ys: np.ndarray, cfg: RatqConfig, rng: np.random.Generator) -> np.ndarray:
    """ATUQ without the rotation step (identity transform), row by row: a
    kernel with no shared draws and no codec, whose noise is one rounding
    uniform per coordinate."""
    ys = np.atleast_2d(ys)
    kernel = Kernel(cfg.d, cfg.d, lambda y: check_vector(y, cfg.d), lambda side: None,
                    lambda rng, m: None, lambda rng, y, m: rng.random((m, cfg.d)),
                    lambda draws: None, lambda y, shared, u: _atuq_fields(y, u, cfg),
                    lambda fields, side, shared: _atuq_levels(fields, cfg), None, None)
    return kernel.sample(ys, None, len(ys), rng)


def rcs_wrap(cfg: RatqConfig, mu_d: int, mode: str = "zero-fill") -> Quantizer:
    """Random coordinate sampling over a per-coordinate RATQ (s must be 1).

    zero-fill: decoder outputs (1/mu) * decoded(i) on the sampled coordinates
    and 0 elsewhere (before unrotation).  center: unsampled coordinates take
    the rotated side-information value and sampled ones are centered on it;
    with side = 0 (or None) the two modes coincide.
    """
    if cfg.s != 1:
        raise ValueError("subsampling needs per-coordinate symbols: set s = 1")
    if mode not in ("zero-fill", "center"):
        raise ValueError(f"unknown RCS mode {mode!r}")
    center = mode == "center"
    return kernel_quantizer(
        _ratq_kernel(cfg, mu_d, center), mu_d * (cfg.ladder.index_bits + cfg.symbol_bits),
        f"rcs-ratq(d={cfg.d},mu_d={mu_d})", uses_side_info=center,
    )


def gaussian_rd_config(v: float, D: float, d: int) -> tuple[RatqConfig, float]:
    """Unrotated ATUQ tuned for subgaussian inputs with variance factor v and
    per-dimension distortion target D; returns (config, rate bits/dim)."""
    if not D < v / 4:
        raise ValueError("distortion target must satisfy D < v/4")
    log_h = math.ceil(math.log2(1 + log_star(4.0 * math.log(8 * math.sqrt(2) * v / D) / 3.0)))
    s = min(max(1, log_h), d)
    k = (1 << math.ceil(math.log2(2 + math.sqrt((18 * v + 6 * v * math.log(s)) / D)))) - 1
    ladder = TetraLadder(3 * v, 2 * v * math.log(s), 1 << log_h)
    cfg = RatqConfig(math.sqrt(v * d), d, s, k, ladder)
    rate = math.ceil(math.log2(k + 1)) + math.ceil(d / s) * max(1, log_h) / d
    return cfg, rate


def gaussian_rd_run(
    v: float, D: float, d: int, blocks: int, rng: np.random.Generator, source: str = "gaussian"
) -> tuple[float, float]:
    """`atuq_vector_apply` at `gaussian_rd_config` on blocks of d draws from
    `source`; returns (empirical per-dimension MSE, rate in bits/dim)."""
    cfg, rate = gaussian_rd_config(v, D, d)
    if source == "gaussian":
        xs = rng.normal(scale=math.sqrt(v), size=(blocks, d))
    elif source == "laplace":
        # Laplace shape clipped to [-sqrt(v), sqrt(v)]: bounded, hence
        # subgaussian with variance factor v, but with heavier near-tails
        xs = np.clip(rng.laplace(scale=math.sqrt(v) / 2.0, size=(blocks, d)),
                     -math.sqrt(v), math.sqrt(v))
    else:
        raise ValueError(f"unknown source {source!r}")
    rec = atuq_vector_apply(xs, cfg, rng)
    mse = float(((rec - xs) ** 2).mean())
    return mse, rate


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

    def __post_init__(self):
        if self.gain_mode not in ("aguq", "aguq_plus"):
            raise ValueError(f"unknown gain mode {self.gain_mode!r}")

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
    """A-RATQ declared as a kernel: the gain |y| of each row by AGUQ (or
    AGUQ+), the shape y/|y| (e1 for y = 0) by the unit-ball RATQ kernel.
    Its draws: the signs, one gain-rounding uniform per repetition (none
    when every gain of the chunk overflows), then the shape's RATQ
    uniforms."""
    plus = AguqPlus(cfg.B, cfg.T) if cfg.gain_mode == "aguq_plus" else None
    ladder = cfg.gain_ladder if plus is None else plus.ladder
    levels = np.full(ladder.h_g, cfg.k_g) if plus is None else plus.levels
    grid = cfg.gain_grid(0)  # the level count and field width of every range
    shape = _ratq_kernel(cfg.shape)

    def gains(y, m):
        """The gain of each of m repetitions of y, one vector or (m, d) rows."""
        return np.full(m, np.sqrt((y * y).sum(axis=-1)))

    def noise(rng, y, m):
        return aguq_uniforms(gains(y, m), ladder, rng), shape.noise(rng, y, m)

    def encode(y, shared, noise):
        g = gains(y, len(shared[0]))[:, None]
        unit = np.zeros((len(g), cfg.d))
        unit[:, 0] = 1.0
        np.divide(y, g, out=unit, where=g > 0)
        return aguq_fields(g[:, 0], ladder, levels, noise[0]), shape.encode(unit, shared, noise[1])

    def decode(fields, side, shared):
        return aguq_levels(fields[0], ladder, levels)[:, None] * shape.decode(fields[1], None, shared)

    def write(bits, fields):
        j, sym = int(fields[0][0][0]), int(fields[0][1][0])
        if plus is not None:
            plus.write(bits, j, sym)
        else:
            if ladder.index_bits:
                bits.write_uint(j, ladder.index_bits)
            write_cuq_symbols(bits, [sym], grid)
        return shape.write(bits, fields[1])

    def read(reader):
        if plus is not None:
            j, sym = plus.read(reader)
        else:
            j = reader.read_uint(ladder.index_bits) if ladder.index_bits else 0
            if j >= ladder.h_g:
                raise MalformedStreamError("malformed stream: gain range index out of ladder")
            sym = int(read_cuq_symbols(reader, 1, grid)[0])
        return (np.array([j]), np.array([sym])), shape.read(reader)

    def check_input(y):
        y = check_vector(y, cfg.d)
        if not math.isfinite(_l2_norm(y)):
            raise ValueError("input norm overflows double precision")
        return y

    kernel = Kernel(cfg.d, cfg.shape.d_pad, check_input, lambda side: None,
                    shape.draw, noise, shape.derive, encode, decode, write, read)
    return kernel_quantizer(kernel, cfg.bit_budget, f"aratq(d={cfg.d},B={cfg.B:g},{cfg.gain_mode})")


# ---------------------------------------------------------------------------
# SimQ / SimQ+


def simq_decode(symbols, B: float, d: int) -> np.ndarray:
    """The corners that signed corner indices stand for: B e_i for i, -B e_i
    for -i and 0 for 0, one length-d row per symbol."""
    s = np.asarray(symbols)[..., None]
    return np.where(np.arange(1, d + 1) == np.abs(s), B * np.sign(s), 0.0)


def simq_quantizer(B: float, d: int) -> Quantizer:
    """SimQ declared as a kernel.  It shares no draws; its noise is one
    uniform per repetition, and encode picks the signed corner index +-i
    with probability |y(i)|/B, 0 otherwise.  The message sends i as i and
    -i as d + i."""
    width = math.ceil(math.log2(2 * d + 1))

    def check_input(y):
        y = check_vector(y, d)
        l1 = np.max(np.abs(y).sum(axis=-1), initial=0.0)
        if l1 > B * _NORM_SLACK:
            raise ValueError(f"l1 norm {l1:.6g} exceeds bound B = {B:.6g}")
        return y

    def encode(y, shared, u):
        idx = np.count_nonzero(np.cumsum(np.abs(y), axis=-1) <= u[:, None] * B, axis=-1)
        hit = idx < d
        sign = np.take_along_axis(np.atleast_2d(y), np.where(hit, idx, 0)[:, None], axis=-1)[:, 0]
        return np.where(hit, idx + 1, 0) * np.where(sign >= 0, 1, -1)

    def write(bits, symbols):
        s = int(symbols[0])
        return bits.write_uint(s if s >= 0 else d - s, width)

    def read(reader):
        code = reader.read_uint(width)
        if code > 2 * d:
            raise MalformedStreamError(f"malformed stream: SimQ code {code} above 2d = {2 * d}")
        return np.array([code if code <= d else d - code])

    kernel = Kernel(d, d, check_input, lambda side: None, lambda rng, m: None,
                    lambda rng, y, m: rng.random(m), lambda draws: None, encode,
                    lambda symbols, side, shared: simq_decode(symbols, B, d), write, read)
    return kernel_quantizer(kernel, width, f"simq(d={d},B={B:g})")


def _rank_composition(counts: np.ndarray) -> int:
    """Combinadic rank of the stars-and-bars set of `counts` (a composition
    of k into parts <-> increasing bar slots): the sum over bars j of
    C(p_j, j + 1), p_j the slot of bar j.  Slot by slot, c = C(p, j + 1)
    steps from its neighbour by one multiply and one exact divide; it is 0
    until the first star (p == j).  Big-int safe."""
    rank, c, p = 0, 0, 0
    for j, stars in enumerate(counts[:-1].tolist()):
        for _ in range(stars):  # a star at slot p: C(p + 1, j + 1)
            c = 1 if p == j else c * (p + 1) // (p - j)
            p += 1
        rank += c  # bar j at slot p, then C(p + 1, j + 2)
        c = c * (p + 1) // (j + 2)
        p += 1
    return rank


def _unrank_composition(rank: int, k: int, parts: int) -> np.ndarray:
    """The counts of combinadic `rank`; MalformedStreamError unless it is
    below C(k + parts - 1, parts - 1).  Bar by bar from the last, the slot
    p moves down to the largest with C(p, j + 1) <= rank, c = C(p, j + 1)
    stepping from its neighbour by one multiply and one exact divide."""
    n_slots = k + parts - 1
    n_bars = parts - 1
    top = math.comb(n_slots, n_bars)
    if rank >= top:
        raise MalformedStreamError(f"malformed stream: type rank {rank} out of range")
    pos = [0] * n_bars
    p, c = n_slots - 1, top * k // n_slots  # the last bar's first slot, C(p, n_bars)
    for j in range(n_bars - 1, -1, -1):
        while c > rank:  # C(p - 1, j + 1)
            c = c * (p - j - 1) // p
            p -= 1
        pos[j] = p
        rank -= c
        if j:  # bar j - 1 lies below: C(p - 1, j)
            c = c * (j + 1) // p
            p -= 1
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
    """SimQ+ declared as a kernel.  It shares no draws; its noise is each
    repetition's type, the counts of k SimQ draws over the indices 0 (no
    corner) and 1..d, drawn as one multinomial, and the message carries the
    signs of the drawn indices."""

    def check_input(y):
        y = check_vector(y, cfg.d)
        l1 = np.max(np.abs(y).sum(axis=-1), initial=0.0)
        if l1 > cfg.scale * _NORM_SLACK:
            raise ValueError(
                f"l1 norm {l1:.6g} exceeds bound B d^(1/p) = {cfg.scale:.6g} (B = {cfg.B:.6g})")
        return y

    def noise(rng, y, m):
        probs = np.empty(y.shape[:-1] + (cfg.d + 1,))
        probs[..., 1:] = np.abs(y) / cfg.scale
        probs[..., 0] = np.maximum(0.0, 1.0 - probs[..., 1:].sum(axis=-1))
        probs /= probs.sum(axis=-1, keepdims=True)
        return rng.multinomial(cfg.k, probs, size=m)

    def encode(y, shared, counts):
        return counts, y >= 0

    def decode(fields, side, shared):
        counts, positive = fields
        return np.where(positive, 1.0, -1.0) * counts[:, 1:] * (cfg.scale / cfg.k)

    def write(bits, fields):
        counts, positive = fields
        bits.write_uint(_rank_composition(counts[0]), cfg.type_bits)
        return bits.write_fields(positive[np.nonzero(counts[0, 1:])[0]], 1)

    def read(reader):
        counts = _unrank_composition(reader.read_uint(cfg.type_bits), cfg.k, cfg.d + 1)
        positive = np.ones(cfg.d, dtype=bool)
        nz = np.nonzero(counts[1:])[0]
        positive[nz] = reader.read_fields(len(nz), 1)
        return counts[None], positive

    kernel = Kernel(cfg.d, cfg.d + 1, check_input, lambda side: None, lambda rng, m: None,
                    noise, lambda draws: None, encode, decode, write, read)
    return kernel_quantizer(kernel, cfg.bit_budget, f"simq+(d={cfg.d},k={cfg.k})")


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
        return RatqConfig._log_h(self.d)

    @property
    def delta1(self) -> int:
        exp = 0.5 - (0.0 if self.q == math.inf else 1.0 / self.q)
        return math.ceil(
            math.log2(2 + math.sqrt(18 + 6 * math.log(max(1, self.delta2))) * self.d**exp)
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
        return replace(RatqConfig.default(B2, self.d_large), k=(1 << self.delta1) - 1)

    @property
    def bit_budget(self) -> int:
        return self.d * self.cuq_grid.symbol_bits + self.d + self.ratq_cfg.bit_budget

    def analytic_budget(self) -> int:
        """Closed-form budget without the power-of-two framing overhead."""
        inv_q = 0.0 if self.q == math.inf else 1.0 / self.q
        return self.d * (math.ceil(math.log2(2 * math.sqrt(2) * self.delta1**inv_q + 2)) + 3) + self.delta2


def lp_split_quantizer(cfg: LpSplitConfig) -> Quantizer:
    """The split quantizer declared as a kernel.  Its draws: the RATQ signs,
    one CUQ uniform per coordinate, then the RATQ uniforms of the zero-filled
    restriction to the large coordinates.  Each row's large coordinates fill
    the restriction in coordinate order, and go back from it the same way."""
    grid = cfg.cuq_grid
    ratq_cfg = cfg.ratq_cfg
    ratq = _ratq_kernel(ratq_cfg)

    def check_input(y):
        y = check_vector(y, cfg.d)
        a, q = np.abs(y), cfg.q
        with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
            norm = np.max(a.max(axis=-1) if q == math.inf else (a**q).sum(axis=-1) ** (1 / q),
                          initial=0.0)
        if norm > cfg.B * _NORM_SLACK:
            raise ValueError(f"lq norm {norm:.6g} exceeds bound B={cfg.B}")
        if np.max(np.count_nonzero(a > grid.M, axis=-1), initial=0) > ratq_cfg.d:
            raise ValueError(f"more than {ratq_cfg.d} coordinates above the threshold {grid.M:.6g}")
        return y

    def noise(rng, y, m):
        return rng.random((m, cfg.d)), ratq.noise(rng, None, m)

    def slots(large):
        """The coordinate in each slot of the restriction of each row of the
        2-D `large`, (rows, d_large): the row's large coordinates first (a
        stable sort), and whether each slot holds a large one."""
        at = np.argsort(~large, axis=1, kind="stable")[:, : ratq_cfg.d]
        return at, np.take_along_axis(large, at, axis=1)

    def encode(y, shared, noise):
        u, ratq_u = noise
        y = np.atleast_2d(y)
        large = np.abs(y) > grid.M
        sym = cuq_round_with(np.broadcast_to(np.where(large, 0.0, y), u.shape), grid.M, grid.k, u)
        at, held = slots(large)
        restriction = np.where(held, np.take_along_axis(y, at, axis=1), 0.0)
        return sym, large, ratq.encode(restriction, shared, ratq_u)

    def decode(fields, side, shared):
        sym, large, ratq_fields = fields
        out = grid.level(sym)
        at, held = slots(np.broadcast_to(large, out.shape))
        r, s = np.nonzero(held)
        out[r, at[r, s]] += ratq.decode(ratq_fields, None, shared)[r, s]
        return out

    def write(bits, fields):
        sym, large, ratq_fields = fields
        write_cuq_symbols(bits, sym[0], grid)
        return ratq.write(bits.write_fields(large, 1), ratq_fields)

    def read(reader):
        sym = read_cuq_symbols(reader, cfg.d, grid)
        large = reader.read_fields(cfg.d, 1).astype(bool)
        if large.sum() > ratq_cfg.d:
            raise MalformedStreamError(
                f"malformed stream: {large.sum()} large coordinates, at most {ratq_cfg.d}")
        return sym[None], large, ratq.read(reader)

    kernel = Kernel(cfg.d, max(cfg.d, ratq_cfg.d_pad), check_input, lambda side: None,
                    ratq.draw, noise, ratq.derive, encode, decode, write, read)
    return kernel_quantizer(kernel, cfg.bit_budget, f"lp-split(d={cfg.d},p={cfg.p:g})")
