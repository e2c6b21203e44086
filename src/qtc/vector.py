"""Full-vector gradient quantizers.

RATQ (rotate, split into subvectors, ATUQ each), its subsampled variant for
fixed low precision, the gain-shape A-RATQ for mean-square-bounded inputs,
SimQ / SimQ+ over l1-ball corner points, and the small/large-coordinate split
quantizer for lq-bounded inputs.  RATQ and its subsampled variant state
their ATUQ rule on the sent rotated coordinates and leave the rotation, the
window of kept coordinates and the correction to `rotation.rotated_kernel`.
Each states its input domain in one `core.check_ball` call: the l2 ball of
radius B (RATQ), any l2 norm that does not overflow (A-RATQ), the l1 ball
of radius B (SimQ) or B d^(1/p) (SimQ+), and the lq ball of radius B (the
split quantizer, which also bounds its count of large coordinates).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .adaptive import (
    Ladder,
    _tetra_log_h,
    aguq_fields,
    aguq_levels,
    aguq_uniforms,
)
from .core import (
    Kernel,
    MalformedStreamError,
    Quantizer,
    _check_int,
    check_ball,
    check_config,
    check_vector,
    kernel_quantizer,
    next_pow2,
)
from .rotation import rotated_kernel
from .scalar import (
    OVERFLOW,
    _source,
    cuq_levels,
    cuq_round_with,
    read_cuq_symbols,
    write_cuq_symbols,
)

__all__ = [
    "RatqConfig",
    "ratq_quantizer",
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


@dataclass(frozen=True)
class RatqConfig:
    """RATQ parameters; `default` is the high-precision setting and
    `for_subsampling` the fixed-precision one (s = 1, constant k)."""

    B: float
    d: int
    s: int
    k: int
    ladder: Ladder

    def __post_init__(self):
        check_config(self.d, self.B)
        _check_int(self.s, "subvector length s", 1)
        _check_int(self.k, "RATQ level count k", 2)

    @classmethod
    def default(cls, B: float, d: int) -> "RatqConfig":
        check_config(d, B)
        log_h = _tetra_log_h(d / 3.0)
        s = max(1, log_h)
        k = (1 << math.ceil(math.log2(2 + math.sqrt(9 + 3 * math.log(s))))) - 1
        ladder = Ladder.tetra(3 * B * B / d, (2 * B * B / d) * math.log(s), 1 << log_h)
        return cls(B, d, s, k, ladder)

    @classmethod
    def for_subsampling(cls, B: float, d: int) -> "RatqConfig":
        check_config(d, B)
        log_h = _tetra_log_h(d / 3.0)
        ladder = Ladder.tetra(3 * B * B / d, 0.0, 1 << log_h)
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
    ladder = cfg.ladder
    if cfg.s == 1:
        j = ladder.pick(absy)
        return j, ladder.ranges[j]
    m, width = absy.shape
    n_sub = -(-width // cfg.s)
    if n_sub * cfg.s != width:
        absy = np.concatenate([absy, np.zeros((m, n_sub * cfg.s - width))], axis=1)
    # max over the s strided slices: numpy's reduce over a short last axis is slow
    sub = absy.reshape(m, n_sub, cfg.s)
    j = ladder.pick(functools.reduce(np.maximum, (sub[..., i] for i in range(cfg.s))))
    return j, _coord_ranges(ladder.ranges, j, cfg.s, width)


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


def _ratq_kernel(cfg: RatqConfig, mu_d: Optional[int] = None) -> Kernel:
    """The RATQ kernel pair, subsampled with mu_d.  Ranges and CUQ rounding
    run on the sent rotated coordinates, each with its own rounding
    uniform, and each one's correction is its level minus its rotated side
    information (`rotation.rotated_kernel`): the decoder centres on the
    side information when it is given, and on 0 without.  A message takes
    ceil(d_pad / 32) 64-bit outputs of the stream for the signs, one for
    the window (subsampled only) and width for the rounding."""
    width = cfg.d_pad if mu_d is None else mu_d
    n_sub = -(-width // cfg.s)
    index_bits, top, k = cfg.ladder.index_bits, cfg.ladder.top, cfg.k

    def write(bits, fields):
        """One row of fields: the range-index block, then the symbol block."""
        j, sym = fields
        if index_bits:
            bits.write_fields(j, index_bits)
        return write_cuq_symbols(bits, sym, k)

    def read(reader):
        """What `write` wrote, as one row."""
        if index_bits:
            # above the ladder's top lie inf levels or no level
            j = reader.read_fields(n_sub, index_bits, top)
        else:
            j = np.zeros(n_sub, dtype=np.int64)
        return j[None], read_cuq_symbols(reader, width, k)[None]

    d, B = cfg.d, cfg.B

    def check_side(side):
        return None if side is None else check_vector(side, d, "side information")

    return rotated_kernel(
        d, mu_d, cfg.d_pad, lambda y: check_ball(y, d, B), check_side,
        encode=lambda xk, v, u: _atuq_fields(xk, u, cfg),
        decode=lambda fields, yk, v: _atuq_levels(fields, cfg) - yk,
        write=write,
        read=read,
        noise=lambda rng, shape: rng.random(shape),
    )


def ratq_quantizer(cfg: RatqConfig) -> Quantizer:
    """Unbiased fixed-length quantizer for the l2 ball of radius B."""
    return kernel_quantizer(_ratq_kernel(cfg), cfg.bit_budget, f"ratq(d={cfg.d},B={cfg.B:g})")


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


def rcs_wrap(cfg: RatqConfig, mu_d: int) -> Quantizer:
    """Random coordinate sampling over a per-coordinate RATQ (s must be 1):
    mu_d sent rotated coordinates.

    Without side information the decoder outputs (1/mu) * decoded(i) on the
    sent coordinates and 0 elsewhere (before unrotation).  With side
    information the unsent coordinates take its rotated value and the sent
    ones are centred on it; side = 0 gives the zero-filled output.
    """
    if cfg.s != 1:
        raise ValueError("subsampling needs per-coordinate symbols: set s = 1")
    budget = mu_d * (cfg.ladder.index_bits + cfg.symbol_bits)
    return kernel_quantizer(_ratq_kernel(cfg, mu_d), budget, f"rcs-ratq(d={cfg.d},mu_d={mu_d})")


def gaussian_rd_config(v: float, D: float, d: int) -> tuple[RatqConfig, float]:
    """Unrotated ATUQ tuned for subgaussian inputs with variance factor v and
    per-dimension distortion target D; returns (config, rate bits/dim)."""
    if not D < v / 4:
        raise ValueError("distortion target must satisfy D < v/4")
    log_h = _tetra_log_h(4.0 * math.log(8 * math.sqrt(2) * v / D) / 3.0)
    s = min(max(1, log_h), d)
    k = (1 << math.ceil(math.log2(2 + math.sqrt((18 * v + 6 * v * math.log(s)) / D)))) - 1
    ladder = Ladder.tetra(3 * v, 2 * v * math.log(s), 1 << log_h)
    cfg = RatqConfig(math.sqrt(v * d), d, s, k, ladder)
    rate = math.ceil(math.log2(k + 1)) + math.ceil(d / s) * max(1, log_h) / d
    return cfg, rate


def gaussian_rd_run(
    v: float, D: float, d: int, blocks: int, rng: np.random.Generator, source: str = "gaussian"
) -> tuple[float, float]:
    """`atuq_vector_apply` at `gaussian_rd_config` on blocks of d draws from
    `source`; returns (empirical per-dimension MSE, rate in bits/dim).
    ValueError for an unknown source, before any draw."""
    cfg, rate = gaussian_rd_config(v, D, d)
    xs = _source(source)(rng, math.sqrt(v), (blocks, d))
    rec = atuq_vector_apply(xs, cfg, rng)
    mse = float(((rec - xs) ** 2).mean())
    return mse, rate


def _aguq_plus_levels(h: int) -> tuple[int, ...]:
    """AGUQ+'s level counts on h gain ranges: range j sends a (j+1)-bit level
    field and uses all 2^(j+1) codes as levels, except the top range, which
    keeps its highest code for the overflow symbol."""
    return tuple(2 << j for j in range(h - 1)) + ((2 << (h - 1)) - 1,)


@dataclass(frozen=True)
class AratqConfig:
    """Gain-shape quantizer: AGUQ (or AGUQ+) for the gain, unit-ball RATQ for
    the shape.  Gain range j rounds on gain_levels[j] levels; a gain above
    the top range decodes to 0.  AGUQ sends a fixed-width range index and a
    CUQ symbol, with the same level count on every range.  AGUQ+ sends range
    j in unary (j ones, then a zero -- the Huffman lengths for a
    Geometric(1/2) range distribution) and a (j+1)-bit level field on
    `_aguq_plus_levels`."""

    B: float
    d: int
    gain_ladder: Ladder
    gain_levels: tuple[int, ...]
    shape: RatqConfig
    gain_mode: str = "aguq"  # "aguq" | "aguq_plus"

    def __post_init__(self):
        check_config(self.d, self.B)
        if self.gain_mode not in ("aguq", "aguq_plus"):
            raise ValueError(f"unknown gain mode {self.gain_mode!r}")
        h = self.gain_ladder.h
        fit = tuple(self.gain_levels[:1]) * h if self.gain_mode == "aguq" else _aguq_plus_levels(h)
        if tuple(self.gain_levels) != fit:
            raise ValueError(f"gain_levels {self.gain_levels} do not fit {self.gain_mode} "
                             f"on {h} gain ranges")

    @classmethod
    def default(cls, B: float, d: int, T: int, gain_mode: str = "aguq") -> "AratqConfig":
        if T < 2:
            raise ValueError(f"horizon T must be at least 2, got {T}")
        if gain_mode == "aguq_plus":
            h = 1 + math.ceil(math.log2(T) / 2.0)
            levels = _aguq_plus_levels(h)
        else:
            h = 1 << math.ceil(math.log2(1 + 0.5 * math.log2(T)))
            levels = ((1 << math.ceil(math.log2(2 + 0.5 * math.sqrt(math.log2(T) + 1)))) - 1,) * h
        return cls(B, d, Ladder.geometric(B, 2.0, h), levels, RatqConfig.default(1.0, d), gain_mode)

    @property
    def bit_budget(self) -> Optional[int]:
        if self.gain_mode == "aguq_plus":
            return None  # variable-length gain field
        symbol_bits = math.ceil(math.log2(self.gain_levels[0] + 1))
        return self.gain_ladder.index_bits + symbol_bits + self.shape.bit_budget


def aratq_quantizer(cfg: AratqConfig) -> Quantizer:
    """A-RATQ declared as a kernel: the gain |y| of each row by AGUQ (or
    AGUQ+), the shape y/|y| (e1 for y = 0) by the unit-ball RATQ kernel.
    Its draws: the signs, one gain-rounding uniform per repetition (none
    when every gain of the chunk overflows), then the shape's RATQ
    uniforms."""
    plus = cfg.gain_mode == "aguq_plus"
    ladder, k = cfg.gain_ladder, cfg.gain_levels
    levels = np.array(k)
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
        if plus:
            bits.write_uint(((1 << j) - 1) << 1, j + 1)  # j ones, then the 0 terminator
            bits.write_uint(k[j] if sym == OVERFLOW else sym, j + 1)
        else:
            if ladder.index_bits:
                bits.write_uint(j, ladder.index_bits)
            write_cuq_symbols(bits, [sym], k[j])
        return shape.write(bits, fields[1])

    def read(reader):
        if plus:
            j = 0
            while reader.read_bit() == 1:
                j += 1
                if j >= ladder.h:
                    raise MalformedStreamError("malformed stream: unary range overruns ladder")
            sym = reader.read_uint(j + 1)
            sym = OVERFLOW if sym == k[j] else sym
        else:
            j = reader.read_uint(ladder.index_bits) if ladder.index_bits else 0
            if j >= ladder.h:
                raise MalformedStreamError("malformed stream: gain range index out of ladder")
            sym = int(read_cuq_symbols(reader, 1, k[j])[0])
        return (np.array([j]), np.array([sym])), shape.read(reader)

    d = cfg.d
    kernel = Kernel(d, cfg.shape.d_pad, lambda y: check_ball(y, d), lambda side: None,
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
    check_config(d, B)
    width = math.ceil(math.log2(2 * d + 1))

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

    kernel = Kernel(d, d, lambda y: check_ball(y, d, B, 1), lambda side: None, lambda rng, m: None,
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
        check_config(self.d, self.B)
        if not self.p >= 2:
            raise ValueError(f"SimQ+ covers p in [2, inf], got p = {self.p!r}")
        _check_int(self.k, "SimQ+ draw count k (0: d^(2/p))", 0)
        if self.k == 0:
            object.__setattr__(self, "k", max(1, round(self.d ** (2.0 / self.p))))

    @property
    def scale(self) -> float:
        return self.B * self.d ** (1.0 / self.p)

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
    d, scale = cfg.d, cfg.scale

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

    kernel = Kernel(d, d + 1, lambda y: check_ball(y, d, scale, 1), lambda side: None,
                    lambda rng, m: None, noise, lambda draws: None, encode, decode, write, read)
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
        check_config(self.d, self.B)
        if not (1.0 <= self.p <= 2.0):
            raise ValueError("split quantizer covers p in [1, 2]")

    @property
    def q(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)

    @property
    def _inv_q(self) -> float:
        return 0.0 if self.q == math.inf else 1.0 / self.q

    @property
    def delta2(self) -> int:
        return _tetra_log_h(self.d / 3.0)

    @property
    def delta1(self) -> int:
        exp = 0.5 - self._inv_q
        return math.ceil(
            math.log2(2 + math.sqrt(18 + 6 * math.log(max(1, self.delta2))) * self.d**exp)
        )

    @property
    def threshold(self) -> float:
        return self.B * (self.delta1 / self.d) ** self._inv_q  # B itself at q = inf

    @property
    def cuq_k(self) -> int:
        """The level count of the small coordinates' CUQ, whose range is the
        threshold."""
        return (1 << math.ceil(math.log2(2 * math.sqrt(2) * self.delta1**self._inv_q + 2))) - 1

    @property
    def d_large(self) -> int:
        return max(1, self.d // self.delta1)

    @property
    def ratq_cfg(self) -> RatqConfig:
        B2 = self.B * self.d ** (0.5 - self._inv_q)
        return replace(RatqConfig.default(B2, self.d_large), k=(1 << self.delta1) - 1)

    @property
    def bit_budget(self) -> int:
        return self.d * math.ceil(math.log2(self.cuq_k + 1)) + self.d + self.ratq_cfg.bit_budget

    def analytic_budget(self) -> int:
        """Closed-form budget without the power-of-two framing overhead."""
        cuq_bits = math.ceil(math.log2(2 * math.sqrt(2) * self.delta1**self._inv_q + 2))
        return self.d * (cuq_bits + 3) + self.delta2


def lp_split_quantizer(cfg: LpSplitConfig) -> Quantizer:
    """The split quantizer declared as a kernel.  Its draws: the RATQ signs,
    one CUQ uniform per coordinate, then the RATQ uniforms of the zero-filled
    restriction to the large coordinates.  Each row's large coordinates fill
    the restriction in coordinate order, and go back from it the same way."""
    M, k = cfg.threshold, cfg.cuq_k
    ratq_cfg = cfg.ratq_cfg
    ratq = _ratq_kernel(ratq_cfg)

    def check_input(y):
        y = check_ball(y, cfg.d, cfg.B, cfg.q)
        if np.max(np.count_nonzero(np.abs(y) > M, axis=-1), initial=0) > ratq_cfg.d:
            raise ValueError(f"more than {ratq_cfg.d} coordinates above the threshold {M:.6g}")
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
        large = np.abs(y) > M
        sym = cuq_round_with(np.broadcast_to(np.where(large, 0.0, y), u.shape), M, k, u)
        at, held = slots(large)
        restriction = np.where(held, np.take_along_axis(y, at, axis=1), 0.0)
        return sym, large, ratq.encode(restriction, shared, ratq_u)

    def decode(fields, side, shared):
        sym, large, ratq_fields = fields
        out = cuq_levels(sym, M, k)
        at, held = slots(np.broadcast_to(large, out.shape))
        r, s = np.nonzero(held)
        out[r, at[r, s]] += ratq.decode(ratq_fields, None, shared)[r, s]
        return out

    def write(bits, fields):
        sym, large, ratq_fields = fields
        write_cuq_symbols(bits, sym[0], k)
        return ratq.write(bits.write_fields(large, 1), ratq_fields)

    def read(reader):
        sym = read_cuq_symbols(reader, cfg.d, k)
        large = reader.read_fields(cfg.d, 1).astype(bool)
        if large.sum() > ratq_cfg.d:
            raise MalformedStreamError(
                f"malformed stream: {large.sum()} large coordinates, at most {ratq_cfg.d}")
        return sym[None], large, ratq.read(reader)

    kernel = Kernel(cfg.d, max(cfg.d, ratq_cfg.d_pad), check_input, lambda side: None,
                    ratq.draw, noise, ratq.derive, encode, decode, write, read)
    return kernel_quantizer(kernel, cfg.bit_budget, f"lp-split(d={cfg.d},p={cfg.p:g})")
