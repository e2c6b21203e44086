"""Wyner-Ziv quantizers: the decoder holds a side-information vector.

Known-distance route: rotate, then per-coordinate modulo quantization (RMQ),
optionally subsampled.  Unknown-distance route: correlated-sampling indicator
quantizers (DAQ, rotated multiscale RDAQ, subsampled RDAQ, boosted RDAQ)
whose error scales with the actual input/side-information distance without
anyone knowing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import log_star, tetration
from .core import BitReader, BitString, Quantizer, check_finite
from .rotation import (
    check_sample_count,
    next_pow2,
    pad_to_pow2,
    rotate_batch,
    sample_signs,
    sample_signs_batch,
    sample_subset,
    sample_subset_masks,
    unrotate_batch,
)
from .scalar import ModuloParams, mq_decode, mq_encode
from .vector import _chunks

__all__ = [
    "RmqConfig",
    "rmq_quantizer",
    "wz_known_quantizer",
    "daq_quantizer",
    "daq_exact_mse",
    "RdaqConfig",
    "rdaq_quantizer",
    "wz_unknown_quantizer",
    "boosted_rdaq_quantizer",
    "rmq_sample",
    "wz_known_sample",
    "daq_sample",
    "rdaq_sample",
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

    @property
    def mq(self) -> ModuloParams:
        return ModuloParams(self.k, self.delta_prime)

    @property
    def symbol_bits(self) -> int:
        return math.ceil(math.log2(self.k))

    @property
    def bit_budget(self) -> int:
        return self.d_pad * self.symbol_bits


def _rotated(x, signs) -> np.ndarray:
    return rotate_batch(pad_to_pow2(x)[0], signs)


def rmq_quantizer(cfg: RmqConfig) -> Quantizer:
    """Rotate x and y with the same shared signs, MQ each rotated coordinate."""
    params = cfg.mq

    def encode(x, side, rng):
        x = check_finite(x)
        signs = sample_signs(rng, cfg.d_pad)
        w = mq_encode(_rotated(x, signs.signs), params, rng)
        return BitString().write_fields(w, cfg.symbol_bits)

    def decode(bits, side, rng):
        if side is None:
            raise ValueError("RMQ decoding requires side information")
        signs = sample_signs(rng, cfg.d_pad)
        yr = _rotated(side, signs.signs)
        w = _read_cosets(bits, cfg.d_pad, cfg)
        return unrotate_batch(mq_decode(w, yr, params), signs.signs)[: cfg.d]

    q = Quantizer(encode, decode, cfg.bit_budget, name=f"rmq(d={cfg.d})", uses_side_info=True)
    return q


def _read_cosets(bits: BitString, n: int, cfg: RmqConfig) -> np.ndarray:
    """The n coset symbols that make up a whole (subsampled) RMQ message."""
    reader = BitReader(bits)
    w = reader.read_fields(n, cfg.symbol_bits)
    reader.finish()
    if np.any(w >= cfg.k):
        raise ValueError("malformed stream: coset symbol out of range")
    return w


def wz_known_quantizer(cfg: RmqConfig, mu_d: int) -> Quantizer:
    """Subsampled RMQ: send coset symbols for a shared random subset only;
    unsampled coordinates fall back to the rotated side information."""
    check_sample_count(mu_d, cfg.d_pad)
    params = cfg.mq
    mu = mu_d / cfg.d_pad

    def _shared(rng):
        signs = sample_signs(rng, cfg.d_pad)
        coords = sample_subset(rng, cfg.d_pad, mu_d)
        return signs, coords

    def encode(x, side, rng):
        x = check_finite(x)
        signs, coords = _shared(rng)
        w = mq_encode(_rotated(x, signs.signs)[coords], params, rng)
        return BitString().write_fields(w, cfg.symbol_bits)

    def decode(bits, side, rng):
        if side is None:
            raise ValueError("subsampled RMQ decoding requires side information")
        signs, coords = _shared(rng)
        yr = _rotated(side, signs.signs)
        vals = mq_decode(_read_cosets(bits, mu_d, cfg), yr[coords], params)
        xr_hat = yr.copy()
        xr_hat[coords] += (vals - yr[coords]) / mu
        return unrotate_batch(xr_hat, signs.signs)[: cfg.d]

    return Quantizer(
        encode, decode, mu_d * cfg.symbol_bits, name=f"wz-known(d={cfg.d},mu_d={mu_d})",
        uses_side_info=True,
    )


def daq_quantizer(d: int) -> Quantizer:
    """Distance-adaptive 1-bit-per-coordinate quantizer on the unit ball."""

    def encode(x, side, rng):
        x = check_finite(x)
        if np.linalg.norm(x) > _BALL_SLACK:
            raise ValueError("DAQ input must lie in the unit l2 ball")
        u = rng.uniform(-1.0, 1.0, size=d)
        return BitString().write_fields(u <= x, 1)

    def decode(bits, side, rng):
        if side is None:
            raise ValueError("DAQ decoding requires side information")
        y = np.asarray(side, dtype=float)
        if np.linalg.norm(y) > _BALL_SLACK:
            raise ValueError("DAQ side information must lie in the unit l2 ball")
        u = rng.uniform(-1.0, 1.0, size=d)
        reader = BitReader(bits)
        w = reader.read_fields(d, 1)
        reader.finish()
        y_ind = (u <= y).astype(float)
        return 2.0 * (w - y_ind) + y

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

    @property
    def h(self) -> int:
        return 1 << max(0, math.ceil(math.log2(1 + log_star(self.d / 6.0))))

    @property
    def ranges(self) -> np.ndarray:
        tet = [tetration(j) if j <= 5 else math.inf for j in range(self.h)]
        return np.sqrt((6.0 / self.d) * np.array(tet))

    @property
    def index_bits(self) -> int:
        return max(0, math.ceil(math.log2(self.h)))

    @property
    def count_bits(self) -> int:
        return math.ceil(math.log2(self.N + 1))

    @property
    def bit_budget(self) -> int:
        return self.d_pad * (self.index_bits + self.h * self.count_bits)


def _rdaq_shared(cfg: RdaqConfig, rng: np.random.Generator):
    """Shared draws, same order on both sides: signs, then scaled uniforms."""
    signs = sample_signs(rng, cfg.d_pad)
    v = rng.uniform(-1.0, 1.0, size=(cfg.d_pad, cfg.h, cfg.N))
    u = v * cfg.ranges[None, :, None]
    return signs, u


def _scale_index(vals: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(ranges, np.abs(vals), side="left")
    if np.any(idx >= len(ranges)):
        raise ValueError("value escapes the top scale; inputs must be unit-ball")
    return idx


def _rdaq_encode(cfg: RdaqConfig, x, rng, coords=None) -> BitString:
    x = check_finite(x)
    if np.linalg.norm(x) > _BALL_SLACK:
        raise ValueError("RDAQ input must lie in the unit l2 ball")
    signs, u = _rdaq_shared(cfg, rng)
    xr = _rotated(x, signs.signs)
    if coords is None:
        coords = np.arange(cfg.d_pad)
    z = _scale_index(xr[coords], cfg.ranges)
    counts = (u[coords] <= xr[coords, None, None]).sum(axis=2)  # (m, h)
    bits = BitString()
    if cfg.index_bits:
        bits.write_fields(z, cfg.index_bits)
    return bits.write_fields(counts.T, cfg.count_bits)  # plane-major


def _rdaq_decode(cfg: RdaqConfig, bits, side, rng, coords=None, mu: float = 1.0) -> np.ndarray:
    if side is None:
        raise ValueError("RDAQ decoding requires side information")
    y = np.asarray(side, dtype=float)
    if np.linalg.norm(y) > _BALL_SLACK:
        raise ValueError("RDAQ side information must lie in the unit l2 ball")
    signs, u = _rdaq_shared(cfg, rng)
    yr = _rotated(y, signs.signs)
    if coords is None:
        coords = np.arange(cfg.d_pad)
    m = len(coords)
    reader = BitReader(bits)
    if cfg.index_bits:
        z = reader.read_fields(m, cfg.index_bits)
        if np.any(z >= cfg.h):
            raise ValueError("malformed stream: scale index out of range")
    else:
        z = np.zeros(m, dtype=int)
    counts = reader.read_fields(m * cfg.h, cfg.count_bits).reshape(cfg.h, m).T
    reader.finish()
    if np.any(counts > cfg.N):
        raise ValueError("malformed stream: count exceeds repetition budget")
    z_side = _scale_index(yr[coords], cfg.ranges)
    z_star = np.maximum(z, z_side)
    rows = np.arange(m)
    y_counts = (u[coords, z_star, :] <= yr[coords, None]).sum(axis=1)
    diff = counts[rows, z_star] - y_counts
    xr_hat = yr.copy()
    xr_hat[coords] += (2.0 * cfg.ranges[z_star] * diff / cfg.N) / mu
    return unrotate_batch(xr_hat, signs.signs)[: cfg.d]


def rdaq_quantizer(cfg: RdaqConfig) -> Quantizer:
    if cfg.N != 1:
        raise ValueError("plain RDAQ has N = 1; use boosted_rdaq_quantizer")

    def encode(x, side, rng):
        return _rdaq_encode(cfg, x, rng)

    def decode(bits, side, rng):
        return _rdaq_decode(cfg, bits, side, rng)

    return Quantizer(encode, decode, cfg.bit_budget, name=f"rdaq(d={cfg.d})", uses_side_info=True)


def _check_wz_unknown(cfg: RdaqConfig, mu_d: int) -> None:
    if cfg.N != 1:
        raise ValueError("subsampled RDAQ uses N = 1")
    check_sample_count(mu_d, cfg.d_pad)


def wz_unknown_quantizer(cfg: RdaqConfig, mu_d: int) -> Quantizer:
    """Subsampled RDAQ with the 1/mu-scaled centered correction."""
    _check_wz_unknown(cfg, mu_d)
    mu = mu_d / cfg.d_pad

    # the subset is drawn before the signs/uniforms inside _rdaq_encode; decode mirrors this
    def encode(x, side, rng):
        x = check_finite(x)
        return _rdaq_encode(cfg, x, rng, coords=sample_subset(rng, cfg.d_pad, mu_d))

    def decode(bits, side, rng):
        coords = sample_subset(rng, cfg.d_pad, mu_d)
        return _rdaq_decode(cfg, bits, side, rng, coords=coords, mu=mu)

    return Quantizer(
        encode,
        decode,
        mu_d * (cfg.index_bits + cfg.h * cfg.count_bits),
        name=f"wz-unknown(d={cfg.d},mu_d={mu_d})",
        uses_side_info=True,
    )


def boosted_rdaq_quantizer(cfg: RdaqConfig) -> Quantizer:
    """RDAQ with N indicator draws per (coordinate, scale); counts are sent
    raw in ceil(log2(N+1))-bit fields."""

    def encode(x, side, rng):
        return _rdaq_encode(cfg, x, rng)

    def decode(bits, side, rng):
        return _rdaq_decode(cfg, bits, side, rng)

    return Quantizer(
        encode, decode, cfg.bit_budget, name=f"brdaq(d={cfg.d},N={cfg.N})", uses_side_info=True
    )


# ---------------------------------------------------------------------------
# Vectorized Monte-Carlo reconstruction paths (same distributions as the
# bit-exact codecs; used by benchmarks and statistical tests).


def rmq_sample(x, y, cfg: RmqConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    return wz_known_sample(x, y, cfg, None, n, rng)


def wz_known_sample(x, y, cfg: RmqConfig, mu_d, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the subsampled-RMQ reconstruction; mu_d = None is plain RMQ."""
    if mu_d is not None:
        check_sample_count(mu_d, cfg.d_pad)
    params = cfg.mq
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        m = hi - lo
        signs = sample_signs_batch(rng, m, cfg.d_pad)
        xr, yr = rotate_batch(np.stack([xp, yp])[:, None, :], signs)
        if mu_d is not None:
            keep = sample_subset_masks(rng, m, cfg.d_pad, mu_d)
        vals = mq_decode(mq_encode(xr, params, rng), yr, params)
        if mu_d is not None:
            vals = yr + np.where(keep, (vals - yr) / (mu_d / cfg.d_pad), 0.0)
        out[lo:hi] = unrotate_batch(vals, signs)[:, : cfg.d]
    return out


def daq_sample(x, y, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = rng.uniform(-1.0, 1.0, size=(n, d))
    return 2.0 * ((u <= x).astype(float) - (u <= y).astype(float)) + y


def _rdaq_core_sample(x, y, cfg: RdaqConfig, n, rng, mu_d=None) -> np.ndarray:
    ranges = cfg.ranges
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad * cfg.h * max(1, cfg.N)):
        m = hi - lo
        signs = sample_signs_batch(rng, m, cfg.d_pad)
        xr, yr = rotate_batch(np.stack([xp, yp])[:, None, :], signs)
        zx = np.searchsorted(ranges, np.abs(xr).ravel(), side="left").reshape(m, cfg.d_pad)
        zy = np.searchsorted(ranges, np.abs(yr).ravel(), side="left").reshape(m, cfg.d_pad)
        if np.any(zx >= cfg.h) or np.any(zy >= cfg.h):
            raise ValueError("value escapes the top scale; inputs must be unit-ball")
        z_star = np.maximum(zx, zy)
        m_sel = ranges[z_star]
        # only the z* scale matters for the estimate; draw N uniforms there
        u = rng.uniform(-1.0, 1.0, size=(m, cfg.d_pad, cfg.N)) * m_sel[..., None]
        cx = (u <= xr[..., None]).sum(axis=2)
        cy = (u <= yr[..., None]).sum(axis=2)
        corr = 2.0 * m_sel * (cx - cy) / cfg.N
        if mu_d is not None:
            keep = sample_subset_masks(rng, m, cfg.d_pad, mu_d)
            corr = np.where(keep, corr / (mu_d / cfg.d_pad), 0.0)
        out[lo:hi] = unrotate_batch(yr + corr, signs)[:, : cfg.d]
    return out


def rdaq_sample(x, y, cfg: RdaqConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    return _rdaq_core_sample(x, y, cfg, n, rng)


def wz_unknown_sample(x, y, cfg: RdaqConfig, mu_d: int, n: int, rng) -> np.ndarray:
    _check_wz_unknown(cfg, mu_d)
    return _rdaq_core_sample(x, y, cfg, n, rng, mu_d=mu_d)


def boosted_rdaq_sample(x, y, cfg: RdaqConfig, n: int, rng) -> np.ndarray:
    return _rdaq_core_sample(x, y, cfg, n, rng)
