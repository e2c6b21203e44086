"""Wyner-Ziv quantizers: the decoder holds a side-information vector.

Known-distance route: rotate, then per-coordinate modulo quantization (RMQ),
optionally subsampled.  Unknown-distance route: correlated-sampling indicator
quantizers (DAQ, rotated multiscale RDAQ, subsampled RDAQ, boosted RDAQ)
whose error scales with the actual input/side-information distance without
anyone knowing it.  Each quantizer is one encode/decode kernel pair, run on
one row by its bit-exact codec and on n rows by its sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptive import TetraLadder, log_star
from .core import BitReader, BitString, MalformedStreamError, Quantizer, check_vector
from .rotation import (
    check_sample_count,
    gather_kept,
    next_pow2,
    pad_to_pow2,
    rotate_batch,
    sample_shared,
    sample_signs_batch,
    sample_subset_masks,
    sparse_correction,
    unrotate_batch,
)
from .scalar import ModuloParams, mq_decode, mq_encode_with
from .vector import _chunks

__all__ = [
    "RmqConfig",
    "wz_known_quantizer",
    "daq_quantizer",
    "daq_exact_mse",
    "RdaqConfig",
    "rdaq_quantizer",
    "wz_unknown_quantizer",
    "wz_known_sample",
    "daq_sample",
    "wz_unknown_sample",
    "boosted_rdaq_sample",
]

_BALL_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class RmqConfig:
    """Rotated modulo quantizer parameters.

    delta is the known l2 bound on ||x - y||; the bias-control parameter
    delta_small trades a 154*delta_small^2 bias term against resolution.
    """

    d: int
    delta: float
    delta_small: float
    k: int

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("RMQ guarantees need k >= 4")
        if not (0 < self.delta_small < self.delta):
            raise ValueError("need 0 < delta_small < delta")

    @property
    def d_pad(self) -> int:
        return next_pow2(self.d)

    @property
    def delta_prime(self) -> float:
        return math.sqrt(6.0 * (self.delta**2 / self.d) * math.log(self.delta / self.delta_small))

    @functools.cached_property
    def mq(self) -> ModuloParams:
        return ModuloParams(self.k, self.delta_prime)

    @property
    def symbol_bits(self) -> int:
        return math.ceil(math.log2(self.k))

    @property
    def bit_budget(self) -> int:
        return self.d_pad * self.symbol_bits


def _rmq_encode(cfg: RmqConfig, rows, signs, kept, u) -> np.ndarray:
    """The RMQ kernel: the coset symbols of each row of `rows` (or of one
    vector for all of them), rotated by its row of `signs` and restricted to
    the `kept` coordinates (`rotation.sample_shared`; None keeps all).  `u`
    holds one dither uniform per rotated coordinate, kept or not."""
    xr = rotate_batch(pad_to_pow2(rows)[0], signs)
    return mq_encode_with(gather_kept(xr, kept), cfg.mq, gather_kept(u, kept))


def _rmq_decode(cfg: RmqConfig, w, side, signs, kept) -> np.ndarray:
    """Inverse of `_rmq_encode` against the side information: the (m, d)
    reconstructions.  With `kept`, unkept coordinates fall back to the
    rotated side information and kept ones get the 1/mu-scaled correction."""
    yr = rotate_batch(pad_to_pow2(side)[0], signs)
    yk = gather_kept(yr, kept)
    vals = mq_decode(w, yk, cfg.mq)
    if kept is not None:
        vals = sparse_correction(yr, vals - yk, kept)
    return unrotate_batch(vals, signs)[:, : cfg.d]


def _check_side(side, d: int, name: str) -> np.ndarray:
    if side is None:
        raise ValueError(f"{name} decoding requires side information")
    return check_vector(side, d, "side information")


def _check_ball(v: np.ndarray, name: str, what: str = "input") -> np.ndarray:
    """The checked vector `v`, or ValueError unless it lies in the unit l2 ball."""
    if np.linalg.norm(v) > _BALL_SLACK:
        raise ValueError(f"{name} {what} must lie in the unit l2 ball")
    return v


def wz_known_quantizer(cfg: RmqConfig, mu_d: Optional[int]) -> Quantizer:
    """Rotated modulo quantizer: rotate x and y with the same shared signs and
    MQ each rotated coordinate.  mu_d = None is plain RMQ; otherwise
    (subsampled RMQ) coset symbols go out for a shared random subset only,
    and unsampled coordinates fall back to the rotated side information."""
    if mu_d is not None:
        check_sample_count(mu_d, cfg.d_pad)
    width = cfg.d_pad if mu_d is None else mu_d

    def encode(x, side, rng):
        x = check_vector(x, cfg.d)
        signs, kept = sample_shared(rng, 1, cfg.d_pad, mu_d)
        w = _rmq_encode(cfg, x, signs, kept, rng.random(signs.shape))
        return BitString().write_fields(w, cfg.symbol_bits)

    def decode(bits, side, rng):
        side = _check_side(side, cfg.d, "RMQ")
        signs, kept = sample_shared(rng, 1, cfg.d_pad, mu_d)
        reader = BitReader(bits)
        w = reader.read_fields(width, cfg.symbol_bits)
        reader.finish()
        if np.any(w >= cfg.k):
            raise MalformedStreamError("malformed stream: coset symbol out of range")
        return _rmq_decode(cfg, w[None], side, signs, kept)[0]

    name = f"rmq(d={cfg.d})" if mu_d is None else f"wz-known(d={cfg.d},mu_d={mu_d})"
    return Quantizer(encode, decode, width * cfg.symbol_bits, name=name, uses_side_info=True)


def _daq_encode(x, u) -> np.ndarray:
    """The DAQ kernel: the bits u <= x for the (n, d) uniforms u on [-1, 1]."""
    return u <= x


def _daq_decode(w, side, u) -> np.ndarray:
    """Inverse of `_daq_encode` against the side information y: 2 (w - [u <= y]) + y."""
    return 2.0 * (w - (u <= side).astype(float)) + side


def daq_quantizer(d: int) -> Quantizer:
    """Distance-adaptive 1-bit-per-coordinate quantizer on the unit ball."""

    def encode(x, side, rng):
        x = _check_ball(check_vector(x, d), "DAQ")
        return BitString().write_fields(_daq_encode(x, rng.uniform(-1.0, 1.0, size=(1, d)))[0], 1)

    def decode(bits, side, rng):
        y = _check_ball(_check_side(side, d, "DAQ"), "DAQ", "side information")
        u = rng.uniform(-1.0, 1.0, size=(1, d))
        reader = BitReader(bits)
        w = reader.read_fields(d, 1)
        reader.finish()
        return _daq_decode(w, y, u)[0]

    return Quantizer(encode, decode, d, name=f"daq(d={d})", uses_side_info=True)


def daq_exact_mse(x: np.ndarray, y: np.ndarray) -> float:
    """Exact estimator MSE by integrating each coordinate's uniform regions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for xi, yi in zip(x, y):
        lo, hi = min(xi, yi), max(xi, yi)
        # U <= lo: both indicators fire; U in (lo, hi]: exactly one; U > hi: none.
        p_mid = (hi - lo) / 2.0
        jump = 2.0 if xi >= yi else -2.0
        err_mid = (jump - (xi - yi)) ** 2
        err_same = (xi - yi) ** 2
        total += p_mid * err_mid + (1.0 - p_mid) * err_same
    return total


@dataclass(frozen=True)
class RdaqConfig:
    """Multiscale correlated-sampling quantizer for the unit ball.

    Scales M_j^2 = (6/d) e^^j for j = 0..h-1 with log2(h) = ceil(log2(1 +
    log*(d/6))); the top scale always covers the unit ball, which is what
    makes the estimator unbiased.  N > 1 averages N indicator draws per
    (coordinate, scale) and transmits their sums.
    """

    d: int
    N: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("repetition count N must be >= 1")
        if self.ranges[-1] < 1.0:
            raise AssertionError("top scale fails to cover the unit ball")

    @property
    def d_pad(self) -> int:
        return next_pow2(self.d)

    @functools.cached_property
    def h(self) -> int:
        return 1 << max(0, math.ceil(math.log2(1 + log_star(self.d / 6.0))))

    @functools.cached_property
    def ranges(self) -> np.ndarray:
        """The h scales M_j, worked out once per config; read-only."""
        return TetraLadder(6 / self.d, 0.0, self.h).ranges

    @property
    def index_bits(self) -> int:
        return max(0, math.ceil(math.log2(self.h)))

    @property
    def count_bits(self) -> int:
        return math.ceil(math.log2(self.N + 1))

    @property
    def bit_budget(self) -> int:
        return self.d_pad * (self.index_bits + self.h * self.count_bits)


def _rdaq_draws(cfg: RdaqConfig, rng: np.random.Generator, m: int, mu_d: Optional[int]):
    """The shared draws of m repetitions, in the one order of codecs and
    samplers: (m, d_pad) signs, then v, N uniforms on [-1, 1] per rotated
    coordinate shared by all h scales, then (with mu_d) the subset masks.
    Returns (signs, kept, v), kept as in `sample_shared`."""
    signs = sample_signs_batch(rng, m, cfg.d_pad)
    v = rng.uniform(-1.0, 1.0, size=(m, cfg.d_pad, cfg.N))
    kept = None if mu_d is None else np.flatnonzero(sample_subset_masks(rng, m, cfg.d_pad, mu_d))
    return signs, kept, v


def _scale_index(rot: np.ndarray, kept, ranges: np.ndarray) -> np.ndarray:
    """The scale of each kept entry of the rotated `rot`, the index of the
    smallest range >= |value|; every entry, kept or not, must fit the top one."""
    a = np.abs(rot)
    if not np.all(a <= ranges[-1]):
        raise ValueError("value escapes the top scale; inputs must be unit-ball")
    a = gather_kept(a, kept)
    z = np.zeros(a.shape, dtype=np.intp)
    for r in ranges[:-1]:
        z += a > r
    return z


def _rdaq_encode(cfg: RdaqConfig, rows, signs, kept, v) -> tuple[np.ndarray, np.ndarray]:
    """The RDAQ kernel: each row of `rows` (or one vector for all of them) is
    rotated by its row of `signs` and restricted to the `kept` coordinates;
    returns their scale indices z, (m, width), and their counts at every
    scale j, (h, m, width): how many of their N uniforms v have v M_j <= value."""
    xr = rotate_batch(pad_to_pow2(rows)[0], signs)
    z = _scale_index(xr, kept, cfg.ranges)
    xk, vk = gather_kept(xr, kept), gather_kept(v, kept)
    counts = np.zeros((cfg.h,) + xk.shape, dtype=np.min_scalar_type(cfg.N))
    for c, r in zip(counts, cfg.ranges):
        for i in range(cfg.N):
            c += vk[..., i] * r <= xk
    return z, counts


def _rdaq_decode(cfg: RdaqConfig, fields, side, signs, kept, v) -> np.ndarray:
    """Inverse of `_rdaq_encode` against the side information y: the (m, d)
    reconstructions.  Each coordinate moves from y by 2 M_z* (count -
    count(y)) / N at z* = max(z, z(y)), by 1/mu times that with `kept`."""
    z, counts = fields
    yr = rotate_batch(pad_to_pow2(side)[0], signs)
    z_star = np.maximum(z, _scale_index(yr, kept, cfg.ranges))
    m_sel = cfg.ranges[z_star]
    yk, vk = gather_kept(yr, kept), gather_kept(v, kept)
    diff = counts[0].astype(np.intp)
    for j in range(1, cfg.h):
        np.copyto(diff, counts[j], where=z_star == j)
    for i in range(cfg.N):
        diff -= vk[..., i] * m_sel <= yk
    corr = 2.0 * m_sel * diff / cfg.N
    vals = yr + corr if kept is None else sparse_correction(yr, corr, kept)
    return unrotate_batch(vals, signs)[:, : cfg.d]


def _rdaq_codec(cfg: RdaqConfig, mu_d: Optional[int], name: str) -> Quantizer:
    """The RDAQ kernel on one row: the scale-index block, then the counts
    scale by scale (plane-major), packed into the message."""
    width = cfg.d_pad if mu_d is None else mu_d

    def encode(x, side, rng):
        x = _check_ball(check_vector(x, cfg.d), "RDAQ")
        signs, kept, v = _rdaq_draws(cfg, rng, 1, mu_d)
        z, counts = _rdaq_encode(cfg, x, signs, kept, v)
        bits = BitString()
        if cfg.index_bits:
            bits.write_fields(z, cfg.index_bits)
        return bits.write_fields(counts, cfg.count_bits)

    def decode(bits, side, rng):
        y = _check_ball(_check_side(side, cfg.d, "RDAQ"), "RDAQ", "side information")
        signs, kept, v = _rdaq_draws(cfg, rng, 1, mu_d)
        reader = BitReader(bits)
        z = reader.read_fields(width, cfg.index_bits) if cfg.index_bits else np.zeros(width, int)
        if np.any(z >= cfg.h):
            raise MalformedStreamError("malformed stream: scale index out of range")
        counts = reader.read_fields(cfg.h * width, cfg.count_bits)
        reader.finish()
        if np.any(counts > cfg.N):
            raise MalformedStreamError("malformed stream: count exceeds repetition budget")
        fields = (z[None], counts.reshape(cfg.h, 1, width))
        return _rdaq_decode(cfg, fields, y, signs, kept, v)[0]

    budget = width * (cfg.index_bits + cfg.h * cfg.count_bits)
    return Quantizer(encode, decode, budget, name=name, uses_side_info=True)


def rdaq_quantizer(cfg: RdaqConfig) -> Quantizer:
    """RDAQ with N indicator draws per (coordinate, scale), N = 1 being plain
    RDAQ; counts are sent raw in ceil(log2(N+1))-bit fields."""
    name = f"rdaq(d={cfg.d})" if cfg.N == 1 else f"brdaq(d={cfg.d},N={cfg.N})"
    return _rdaq_codec(cfg, None, name)


def _check_wz_unknown(cfg: RdaqConfig, mu_d: int) -> None:
    if cfg.N != 1:
        raise ValueError("subsampled RDAQ uses N = 1")
    check_sample_count(mu_d, cfg.d_pad)


def wz_unknown_quantizer(cfg: RdaqConfig, mu_d: int) -> Quantizer:
    """Subsampled RDAQ with the 1/mu-scaled centered correction."""
    _check_wz_unknown(cfg, mu_d)
    return _rdaq_codec(cfg, mu_d, f"wz-unknown(d={cfg.d},mu_d={mu_d})")


# ---------------------------------------------------------------------------
# Vectorized Monte-Carlo reconstructions for benchmarks and statistical
# tests: the codecs' kernels on n rows, with the codecs' draws.


def wz_known_sample(x, y, cfg: RmqConfig, mu_d, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the subsampled-RMQ reconstruction; mu_d = None is plain RMQ.

    The `wz_known_quantizer` codec's kernel on n rows: each chunk draws, in
    order, the signs, the subset masks (subsampled only) and one dither
    uniform per rotated coordinate, kept or not.  MQ encode and decode run on
    the kept coordinates only, each with its own dither.
    """
    if mu_d is not None:
        check_sample_count(mu_d, cfg.d_pad)
    xp = pad_to_pow2(check_vector(x, cfg.d))[0]
    yp = pad_to_pow2(check_vector(y, cfg.d, "side information"))[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        signs, kept = sample_shared(rng, hi - lo, cfg.d_pad, mu_d)
        w = _rmq_encode(cfg, xp, signs, kept, rng.random(signs.shape))
        out[lo:hi] = _rmq_decode(cfg, w, yp, signs, kept)
    return out


def daq_sample(x, y, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The `daq_quantizer` codec's kernel on n rows, each with its own d uniforms."""
    x = _check_ball(check_vector(x, d), "DAQ")
    y = _check_ball(check_vector(y, d, "side information"), "DAQ", "side information")
    u = rng.uniform(-1.0, 1.0, size=(n, d))
    return _daq_decode(_daq_encode(x, u), y, u)


def _rdaq_sample(x, y, cfg: RdaqConfig, mu_d: Optional[int], n: int, rng) -> np.ndarray:
    """The RDAQ codecs' kernel on n rows: boosted, or with mu_d subsampled."""
    x = _check_ball(check_vector(x, cfg.d), "RDAQ")
    y = _check_ball(check_vector(y, cfg.d, "side information"), "RDAQ", "side information")
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad * cfg.h * cfg.N):
        signs, kept, v = _rdaq_draws(cfg, rng, hi - lo, mu_d)
        fields = _rdaq_encode(cfg, xp, signs, kept, v)
        out[lo:hi] = _rdaq_decode(cfg, fields, yp, signs, kept, v)
    return out


def wz_unknown_sample(x, y, cfg: RdaqConfig, mu_d: int, n: int, rng) -> np.ndarray:
    _check_wz_unknown(cfg, mu_d)
    return _rdaq_sample(x, y, cfg, mu_d, n, rng)


def boosted_rdaq_sample(x, y, cfg: RdaqConfig, n: int, rng) -> np.ndarray:
    return _rdaq_sample(x, y, cfg, None, n, rng)
