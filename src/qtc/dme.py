"""n-client simultaneous-message distributed mean estimation.

Each client quantizes its vector with an independently seeded stream; the
server decodes against its side information and averages.  Parameter
configuration helpers cover the no-side-information, known-distance, and
unknown-distance settings in both the small- (r <= d) and large-precision
regimes, and `theoretical_bound` evaluates the matching closed-form MSE
bound for benchmark overlays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adaptive import log_star
from .core import Quantizer, SeedPath
from .sideinfo import RdaqConfig, RmqConfig
from .vector import RatqConfig

__all__ = [
    "DmeInstance",
    "DmeResult",
    "run_dme",
    "configure_no_side_info",
    "configure_known_delta",
    "configure_unknown_delta",
    "theoretical_bound",
]


@dataclass
class DmeInstance:
    xs: np.ndarray  # (n, d) client inputs
    ys: Optional[np.ndarray]  # (n, d) server-side information, or None
    deltas: Optional[np.ndarray]  # declared per-client ||x_i - y_i|| bounds
    r: int  # per-client precision in bits

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        if self.xs.ndim != 2:
            raise ValueError(f"client inputs have shape {self.xs.shape}, expected (n, d)")
        if self.ys is not None:
            self.ys = np.asarray(self.ys, dtype=float)
            if self.ys.shape != self.xs.shape:
                raise ValueError("side information shape mismatch")
        if self.deltas is not None:
            self.deltas = np.asarray(self.deltas, dtype=float)
            if self.deltas.shape != (self.n,):
                raise ValueError(f"deltas have shape {self.deltas.shape}, expected ({self.n},)")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def true_mean(self) -> np.ndarray:
        return self.xs.mean(axis=0)


@dataclass
class DmeResult:
    mse: float
    band: float  # 3 sigma Monte-Carlo band on the MSE estimate
    bits_per_client: list
    trials: int
    delta_violations: int = 0


def run_dme(
    instance: DmeInstance,
    quantizers: Sequence[Quantizer],
    root: SeedPath,
    trials: int,
    sampled: bool = False,
) -> DmeResult:
    """Estimate the protocol MSE over `trials` independent runs, client i
    sending with `quantizers[i]`.

    By default every (trial, client) pair runs the bit-exact encode/decode
    round trip.  With `sampled`, client i's reconstructions are
    `quantizers[i].sample` drawn from the client's stream: the same kernel
    and draws without packing any message.  Every qtc quantizer can sample;
    one built without a kernel makes `sample` raise TypeError.
    """
    n, d = instance.n, instance.d
    if len(quantizers) != n:
        raise ValueError(f"{len(quantizers)} quantizers for {n} clients")
    bits = []
    for i, q in enumerate(quantizers):
        if q.bit_budget is not None and q.bit_budget > instance.r:
            raise ValueError(
                f"client {i}: quantizer budget {q.bit_budget} exceeds precision r={instance.r}"
            )
        bits.append(q.bit_budget)
    violations = 0
    if instance.deltas is not None and instance.ys is not None:
        dist = np.linalg.norm(instance.xs - instance.ys, axis=1)
        violations = int(np.sum(dist > instance.deltas * (1 + 1e-9)))

    acc = np.zeros((trials, d))
    for i in range(n):
        x = instance.xs[i]
        y = instance.ys[i] if instance.ys is not None else None
        q = quantizers[i]
        if sampled:
            acc += q.sample(x, y, trials, root.child("client", i).stream())
        else:
            for t in range(trials):
                path = root.child("client", i).child("trial", t)
                _, xhat = q.roundtrip(x, y, path)
                acc[t] += xhat
    err = acc / n - instance.true_mean[None, :]
    sq = np.einsum("td,td->t", err, err)
    mse = float(sq.mean())
    band = float(3.0 * sq.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return DmeResult(mse, band, bits, trials, violations)


def configure_no_side_info(n: int, d: int, r: int) -> tuple[RatqConfig, int]:
    """Subsampled unit-ball RATQ: s = 1, log(k+1) = 3, mu_d = floor(r / (3 + log h))."""
    cfg = RatqConfig.for_subsampling(1.0, d)
    per_coord = 3 + cfg.ladder.index_bits
    if r < 2 * per_coord:
        raise ValueError(f"precision r={r} below the minimum {2 * per_coord}")
    mu_d = min(cfg.d_pad, r // per_coord)
    return cfg, mu_d


def configure_known_delta(
    n: int, d: int, r: int, deltas: Sequence[float]
) -> tuple[list[RmqConfig], int]:
    """Known-distance parameters per client.

    Small precision (r <= d): delta_small = Delta_i / sqrt(n), log k =
    ceil(log2(2 + sqrt(12 ln n))), mu_d = floor(r / log k).  Large precision
    (r = m d, integer m >= 2): log k = r/d, delta_small = Delta_i / (sqrt(n)
    (2^(r/d) - 2)), no subsampling.
    """
    if n < 2:
        raise ValueError("known-distance configuration needs n >= 2")
    deltas = [float(x) for x in deltas]
    if r <= d:
        log_k = math.ceil(math.log2(2 + math.sqrt(12 * math.log(n))))
        if r < 2 * log_k:
            raise ValueError(
                f"precision r={r} below the minimum 2*log k = {2 * log_k} for n={n}"
            )
        cfgs = [RmqConfig(d, delta, delta / math.sqrt(n), 1 << log_k) for delta in deltas]
        mu_d = r // log_k
        return cfgs, min(mu_d, cfgs[0].d_pad)
    if r % d != 0 or r // d < 2:
        raise ValueError("large-precision mode needs r = m*d with integer m >= 2")
    log_k = r // d
    k = 1 << log_k
    cfgs = [
        RmqConfig(d, delta, delta / (math.sqrt(n) * (k - 2)), k) for delta in deltas
    ]
    return cfgs, cfgs[0].d_pad


def configure_unknown_delta(d: int, r: int) -> tuple[RdaqConfig, int]:
    """Unknown-distance parameters.

    Small precision: subsampled RDAQ with mu_d = floor(r / (h + log h)).
    Large precision (r = m d with m >= h + log h): boosted RDAQ with
    N = 2^floor((m - log h)/h) repetitions, no subsampling.
    """
    probe = RdaqConfig(d)
    h, log_h = probe.h, probe.index_bits
    if r <= d:
        if r < 2 * (h + log_h):
            raise ValueError(f"precision r={r} below the minimum {2 * (h + log_h)}")
        mu_d = min(probe.d_pad, r // (h + log_h))
        return probe, mu_d
    if r % d != 0:
        raise ValueError("large-precision mode needs r = m*d with integer m")
    m = r // d
    if m < h + log_h:
        raise ValueError(f"per-dimension budget m={m} below h + log h = {h + log_h}")
    N = 1 << ((m - log_h) // h)
    return RdaqConfig(d, N=max(1, N)), probe.d_pad


def theoretical_bound(
    setting: str,
    n: int,
    d: int,
    r: int,
    deltas: Optional[Sequence[float]] = None,
) -> float:
    """Closed-form worst-case protocol MSE bound for the given setting."""
    if setting == "no-side-info":
        c = 6 + 2 * math.ceil(math.log2(1 + log_star(d / 3.0)))
        return c * sum((1.0 / n) * (d / (n * r)) for _ in range(n))
    if deltas is None:
        raise ValueError(f"setting {setting!r} needs per-client deltas")
    deltas = [float(x) for x in deltas]
    if len(deltas) != n:
        raise ValueError("need one delta per client")
    if setting == "known-delta":
        c = 79 * math.ceil(math.log2(2 + math.sqrt(12 * math.log(n)))) + 26
        return c * sum((delta**2 / n) * (d / (n * r)) for delta in deltas)
    if setting == "unknown-delta":
        c = 128 * math.sqrt(3) * (1 + log_star(d / 6.0))
        return c * sum((delta / n) * (d / (n * r)) for delta in deltas)
    if setting == "known-delta-large-r":
        c = 12 * math.log(n) + 24 * r / d + 154 / n + 166
        denom = n * (2 ** (r / d) - 2) ** 2
        return c * sum((delta**2 / n) * (1.0 / denom) for delta in deltas)
    if setting == "unknown-delta-large-r":
        expo = r / (d * (2 + 2 * log_star(d / 6.0)))
        return sum((delta / n) * (64 * math.sqrt(3) / (n * 2**expo)) for delta in deltas)
    raise ValueError(f"unknown setting {setting!r}")
