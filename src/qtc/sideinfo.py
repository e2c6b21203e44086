"""Wyner-Ziv quantizers: the decoder holds a side-information vector.

Known-distance route: rotate, then per-coordinate modulo quantization (RMQ),
optionally subsampled.  Unknown-distance route: correlated-sampling indicator
quantizers (DAQ, rotated multiscale RDAQ, subsampled RDAQ, boosted RDAQ)
whose error scales with the actual input/side-information distance without
anyone knowing it.  Each quantizer is declared once as a `core.Kernel`:
its bit-exact codec runs the kernel on one row and `Quantizer.sample` on n.
RMQ and the RDAQ family state only their rule on the sent rotated
coordinates; `rotation.rotated_kernel` rotates, subsamples and moves the
rotated side information by their correction.  DAQ and the RDAQ family
take x and y in the unit l2 ball (`core.check_ball`); RMQ takes any finite
pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adaptive import Ladder, _tetra_log_h
from .core import (
    Kernel,
    Quantizer,
    _check_int,
    check_ball,
    check_config,
    check_vector,
    kernel_quantizer,
    next_pow2,
)
from .rotation import rotated_kernel
from .scalar import ModuloParams, mq_decode, mq_encode_with

__all__ = [
    "RmqConfig",
    "wz_known_quantizer",
    "daq_quantizer",
    "daq_exact_mse",
    "RdaqConfig",
    "rdaq_quantizer",
    "wz_unknown_quantizer",
    "boosted_rdaq_sample",
]


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
        check_config(self.d)
        _check_int(self.k, "RMQ level count k", 4)
        if not math.isfinite(self.delta):
            raise ValueError(f"distance bound delta must be finite, got {self.delta!r}")
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


def _check_side(side, d: int, name: str, bound: Optional[float] = None) -> np.ndarray:
    """The side information: any finite vector or rows for RMQ, one in the
    l2 ball of radius `bound` for DAQ and the RDAQ family."""
    if side is None:
        raise ValueError(f"{name} decoding requires side information")
    if bound is None:
        return check_vector(side, d, "side information")
    return check_ball(side, d, bound, what="side information")


def wz_known_quantizer(cfg: RmqConfig, mu_d: Optional[int]) -> Quantizer:
    """Rotated modulo quantizer: rotate x and y with the same shared signs and
    MQ each rotated coordinate.  mu_d = None is plain RMQ; otherwise
    (subsampled RMQ) coset symbols go out for a shared random window of
    mu_d rotated coordinates only, and unsampled coordinates fall back to
    the rotated side information.  Each sent coordinate is MQ encoded with
    its own dither uniform, and its correction is its MQ decode against the
    rotated side information minus that side information
    (`rotation.rotated_kernel`).  A message takes
    ceil(d_pad / 32) 64-bit outputs of the stream for the signs, one for
    the window (subsampled only) and width for the dither."""
    width = cfg.d_pad if mu_d is None else mu_d
    mq, symbol_bits = cfg.mq, cfg.symbol_bits
    kernel = rotated_kernel(
        cfg.d, mu_d, cfg.d_pad,
        check_input=lambda x: check_vector(x, cfg.d),
        check_side=lambda side: _check_side(side, cfg.d, "RMQ"),
        encode=lambda xk, v, u: mq_encode_with(xk, mq, u),
        decode=lambda w, yk, v: mq_decode(w, yk, mq) - yk,
        write=lambda bits, w: bits.write_fields(w, symbol_bits),
        read=lambda reader: reader.read_fields(width, symbol_bits, mq.k - 1)[None],
        noise=lambda rng, shape: rng.random(shape),
    )
    name = f"rmq(d={cfg.d})" if mu_d is None else f"wz-known(d={cfg.d},mu_d={mu_d})"
    return kernel_quantizer(kernel, width * cfg.symbol_bits, name, uses_side_info=True)


def daq_quantizer(d: int) -> Quantizer:
    """Distance-adaptive 1-bit-per-coordinate quantizer on the unit ball: the
    bits w = [u <= x] for d shared uniforms u on [-1, 1], decoded against the
    side information y as 2 (w - [u <= y]) + y."""
    check_config(d)
    kernel = Kernel(
        d, d,
        check_input=lambda x: check_ball(x, d, 1.0),
        check_side=lambda side: _check_side(side, d, "DAQ", 1.0),
        draw=lambda rng, m: rng.uniform(-1.0, 1.0, size=(m, d)),
        noise=lambda rng, x, m: None,
        derive=lambda u: u,
        encode=lambda x, u, noise: u <= x,
        decode=lambda w, y, u: 2.0 * (w - (u <= y).astype(float)) + y,
        write=lambda bits, w: bits.write_fields(w, 1),
        read=lambda reader: reader.read_fields(d, 1)[None],
    )
    return kernel_quantizer(kernel, d, f"daq(d={d})", uses_side_info=True)


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
        check_config(self.d)
        _check_int(self.N, "repetition count N", 1)
        if self.ranges[-1] < 1.0:
            raise AssertionError("top scale fails to cover the unit ball")

    @property
    def d_pad(self) -> int:
        return next_pow2(self.d)

    @functools.cached_property
    def h(self) -> int:
        return 1 << self.index_bits

    @functools.cached_property
    def ranges(self) -> np.ndarray:
        """The h scales M_j, worked out once per config; read-only."""
        return Ladder.tetra(6 / self.d, 0.0, self.h).ranges

    @functools.cached_property
    def index_bits(self) -> int:
        return _tetra_log_h(self.d / 6.0)

    @property
    def count_bits(self) -> int:
        return math.ceil(math.log2(self.N + 1))

    @property
    def bit_budget(self) -> int:
        return self.d_pad * (self.index_bits + self.h * self.count_bits)


def _scale_index(sent: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """The scale of each sent rotated coordinate, the index of the smallest
    range >= |value|; each must fit the top one.  An unsent coordinate
    takes the side information's value and is given no scale."""
    a = np.abs(sent)
    if not (a <= ranges[-1]).all():
        raise ValueError("value escapes the top scale; inputs must be unit-ball")
    z = np.zeros(a.shape, dtype=np.intp)
    for r in ranges[:-1]:
        z += a > r
    return z


def _rdaq_counts(cfg: RdaqConfig, xk, v) -> tuple[np.ndarray, np.ndarray]:
    """The RDAQ rule at the encoder: the scale indices z of the sent rotated
    coordinates xk, (m, width), and their counts at every scale j, (h, m,
    width): how many of their N uniforms v, (m, width, N), have v M_j <=
    value.  Each repetition's products are compared against all h scales in
    one broadcast: the same products and comparisons as scale by scale."""
    ranges = cfg.ranges
    z = _scale_index(xk, ranges)
    counts = np.zeros((len(ranges),) + xk.shape, dtype=np.min_scalar_type(cfg.N))
    scales = ranges[:, None, None]
    for i in range(cfg.N):  # repetition i against every scale at once
        counts += v[..., i] * scales <= xk
    return z, counts


def _rdaq_correction(cfg: RdaqConfig, fields, yk, v) -> np.ndarray:
    """The RDAQ rule at the decoder: each sent coordinate moves from the
    rotated side information by 2 M_z* (count - count(y)) / N at z* =
    max(z, z(y)), (m, width)."""
    z, counts = fields
    z_star = np.maximum(z, _scale_index(yk, cfg.ranges))
    m_sel = cfg.ranges[z_star]
    diff = counts[0].astype(np.intp)
    for j in range(1, cfg.h):
        np.copyto(diff, counts[j], where=z_star == j)
    for i in range(cfg.N):
        diff -= v[..., i] * m_sel <= yk
    return 2.0 * m_sel * diff / cfg.N


def _rdaq_kernel(cfg: RdaqConfig, mu_d: Optional[int]) -> Kernel:
    """The RDAQ kernel pair, subsampled with mu_d.  Its message is the
    scale-index block, then the counts scale by scale (plane-major).  A
    message takes ceil(d_pad / 32) 64-bit outputs of the stream for the
    signs, one for the window (subsampled only) and N width for v."""
    d, width = cfg.d, cfg.d_pad if mu_d is None else mu_d
    h, index_bits, count_bits, N = cfg.h, cfg.index_bits, cfg.count_bits, cfg.N

    def write(bits, fields):
        z, counts = fields
        if index_bits:
            bits.write_fields(z, index_bits)
        return bits.write_fields(counts, count_bits)

    def read(reader):
        if index_bits:
            z = reader.read_fields(width, index_bits, h - 1)
        else:
            z = np.zeros(width, int)
        counts = reader.read_fields(h * width, count_bits, N)
        return z[None], counts.reshape(h, 1, width)

    return rotated_kernel(
        d, mu_d, cfg.d_pad * cfg.h * cfg.N,
        check_input=lambda x: check_ball(x, d, 1.0),
        check_side=lambda y: _check_side(y, d, "RDAQ", 1.0),
        encode=lambda xk, v, u: _rdaq_counts(cfg, xk, v),
        decode=lambda fields, yk, v: _rdaq_correction(cfg, fields, yk, v),
        write=write,
        read=read,
        shared=lambda rng, shape: rng.uniform(-1.0, 1.0, size=shape + (cfg.N,)),
    )


def rdaq_quantizer(cfg: RdaqConfig) -> Quantizer:
    """RDAQ with N indicator draws per (coordinate, scale), N = 1 being plain
    RDAQ; counts are sent raw in ceil(log2(N+1))-bit fields."""
    name = f"rdaq(d={cfg.d})" if cfg.N == 1 else f"brdaq(d={cfg.d},N={cfg.N})"
    return kernel_quantizer(_rdaq_kernel(cfg, None), cfg.bit_budget, name, uses_side_info=True)


def wz_unknown_quantizer(cfg: RdaqConfig, mu_d: int) -> Quantizer:
    """Subsampled RDAQ with the 1/mu-scaled centered correction."""
    if cfg.N != 1:
        raise ValueError("subsampled RDAQ uses N = 1")
    return kernel_quantizer(_rdaq_kernel(cfg, mu_d), mu_d * (cfg.index_bits + cfg.h),
                            f"wz-unknown(d={cfg.d},mu_d={mu_d})", uses_side_info=True)


def boosted_rdaq_sample(x, y, cfg: RdaqConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of the `rdaq_quantizer` reconstruction of x against y: (n, d)."""
    return rdaq_quantizer(cfg).sample(x, y, n, rng)
