"""n-client simultaneous-message distributed mean estimation.

Each client quantizes its vector with an independently seeded stream; the
server decodes against its side information and averages.  `configure`
builds the clients' quantizers and the closed-form MSE bound of the
no-side-information, known-distance or unknown-distance setting; the
precision r picks the regime, small (r <= d, subsampled) or large (r = m d,
every rotated coordinate).  Its steps, the `configure_*` parameter helpers
and `theoretical_bound`, are public too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adaptive import _tetra_log_h, log_star
from .core import _NORM_SLACK, Quantizer, SeedPath, next_pow2
from .sideinfo import RdaqConfig, RmqConfig, rdaq_quantizer, wz_known_quantizer, wz_unknown_quantizer
from .vector import RatqConfig, rcs_wrap

__all__ = [
    "DmeInstance",
    "DmeResult",
    "run_dme",
    "configure",
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
) -> DmeResult:
    """Estimate the protocol MSE over `trials` independent runs, client i
    sending with `quantizers[i]`.

    Each run of consecutive clients that share one quantizer object takes
    one path, chosen by the kind of quantizer.  With a kernel (every qtc
    quantizer), the run goes to one `Kernel.run`, client i drawing from
    ``root.child("client", i).stream()``: the codec's checks, draws and
    arithmetic without packing any message, few-trial clients joined into
    arithmetic blocks.  A codec built without a kernel is round-tripped
    once per (client, trial), client by client, under
    ``root.child("client", i).child("trial", t)``; a caller who wants every
    message packed passes such codecs.  Rows are added into the sum in
    client order, so the result is the same bits as client by client.
    """
    n, d = instance.n, instance.d
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
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
        violations = int(np.sum(dist > instance.deltas * _NORM_SLACK))

    acc = np.zeros((trials, d))
    ys = instance.ys if instance.ys is not None else [None] * n
    for _, run in itertools.groupby(range(n), key=lambda i: id(quantizers[i])):
        run = list(run)
        q = quantizers[run[0]]
        k = q.kernel
        if k is None:
            for i in run:
                client = root.child("client", i)
                for t in range(trials):
                    acc[t] += q.roundtrip(instance.xs[i], ys[i], client.child("trial", t))[1]
            continue
        clients = [(instance.xs[i], ys[i], root.child("client", i).stream()) for i in run]
        for _, lo, hi, recs in k.run(clients, trials):
            acc[lo:hi] += recs
    acc /= n  # the error, in place: no (trials, d) temporaries
    acc -= instance.true_mean
    sq = np.einsum("td,td->t", acc, acc)
    mse = float(sq.mean())
    band = float(3.0 * sq.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return DmeResult(mse, band, bits, trials, violations)


def _known_delta_log_k(n: int) -> int:
    """log k = ceil(log2(2 + sqrt(12 ln n))) of small-precision known-distance RMQ."""
    return math.ceil(math.log2(2 + math.sqrt(12 * math.log(n))))


def _subsample_count(cfg, r: int) -> int:
    """mu_d = floor(r / c) for a config sending c = bit_budget / d_pad bits per
    kept coordinate; ValueError when r is below 2c, or when mu_d would pass
    d_pad, where the code would send d_pad c bits whatever r is."""
    per_coord = cfg.bit_budget // cfg.d_pad
    if r < 2 * per_coord:
        raise ValueError(f"precision r={r} below the minimum {2 * per_coord}")
    if r // per_coord > cfg.d_pad:
        raise ValueError(f"precision r={r} above the d_pad * c = {cfg.d_pad} * {per_coord} = "
                         f"{cfg.d_pad * per_coord} bits this code can send")
    return r // per_coord


def _large_precision_m(d: int, r: int) -> int:
    """m = r/d of the large-precision regime, which sends all d_pad rotated
    coordinates: d must be a power of two and r a multiple of d."""
    d_pad = next_pow2(d)
    if d != d_pad:
        raise ValueError(f"large-precision mode needs d a power of two (d={d}, d_pad={d_pad})")
    if r % d != 0:
        raise ValueError("large-precision mode needs r = m*d with integer m >= 2")
    return r // d


def configure_no_side_info(n: int, d: int, r: int) -> tuple[RatqConfig, int]:
    """Subsampled unit-ball RATQ: s = 1, log(k+1) = 3, and mu_d = floor(r / c)
    for the config's c = 3 + log h bits per kept coordinate.  The setting
    has no large-precision code, so r must lie in 2c..d_pad c + c - 1."""
    cfg = RatqConfig.for_subsampling(1.0, d)
    return cfg, _subsample_count(cfg, r)


def configure_known_delta(
    n: int, d: int, r: int, deltas: Sequence[float]
) -> tuple[list[RmqConfig], int]:
    """Known-distance parameters per client.

    Small precision (r <= d): delta_small = Delta_i / sqrt(n), log k =
    ceil(log2(2 + sqrt(12 ln n))), mu_d = floor(r / log k).  Large precision
    (r = m d, integer m >= 2, d a power of two): log k = m, delta_small =
    Delta_i / (sqrt(n) (2^m - 2)), no subsampling.  Every client's budget is
    at most r.
    """
    if n < 2:
        raise ValueError("known-distance configuration needs n >= 2")
    deltas = [float(x) for x in deltas]
    if r <= d:
        k = 1 << _known_delta_log_k(n)
        cfgs = [RmqConfig(d, delta, delta / math.sqrt(n), k) for delta in deltas]
        return cfgs, _subsample_count(cfgs[0], r)
    k = 1 << _large_precision_m(d, r)
    cfgs = [
        RmqConfig(d, delta, delta / (math.sqrt(n) * (k - 2)), k) for delta in deltas
    ]
    return cfgs, cfgs[0].d_pad


def configure_unknown_delta(d: int, r: int) -> tuple[RdaqConfig, int]:
    """Unknown-distance parameters.

    Small precision: subsampled RDAQ with mu_d = floor(r / (h + log h)).
    Large precision (r = m d with m >= h + log h, d a power of two): boosted
    RDAQ with the most repetitions N = 2^b - 1, b = floor((m - log h)/h),
    whose b-bit counts fit the budget r; no subsampling.
    """
    probe = RdaqConfig(d)
    if r <= d:
        return probe, _subsample_count(probe, r)
    m = _large_precision_m(d, r)
    h, log_h = probe.h, probe.index_bits
    if m < h + log_h:
        raise ValueError(f"per-dimension budget m={m} below h + log h = {h + log_h}")
    return RdaqConfig(d, N=(1 << ((m - log_h) // h)) - 1), probe.d_pad


def theoretical_bound(
    setting: str,
    n: int,
    d: int,
    r: int,
    deltas: Optional[Sequence[float]] = None,
) -> float:
    """Closed-form worst-case protocol MSE bound for the given setting, in
    the regime r picks: small precision for r <= d, large precision above."""
    if setting == "no-side-info":
        c = 6 + 2 * _tetra_log_h(d / 3.0)
        return c * sum((1.0 / n) * (d / (n * r)) for _ in range(n))
    if deltas is None:
        raise ValueError(f"setting {setting!r} needs per-client deltas")
    deltas = [float(x) for x in deltas]
    if len(deltas) != n:
        raise ValueError("need one delta per client")
    if setting == "known-delta":
        if r <= d:
            c = 79 * _known_delta_log_k(n) + 26
            return c * sum((delta**2 / n) * (d / (n * r)) for delta in deltas)
        c = 12 * math.log(n) + 24 * r / d + 154 / n + 166
        denom = n * (2 ** (r / d) - 2) ** 2
        return c * sum((delta**2 / n) * (1.0 / denom) for delta in deltas)
    if setting == "unknown-delta":
        if r <= d:
            c = 128 * math.sqrt(3) * (1 + log_star(d / 6.0))
            return c * sum((delta / n) * (d / (n * r)) for delta in deltas)
        expo = r / (d * (2 + 2 * log_star(d / 6.0)))
        return sum((delta / n) * (64 * math.sqrt(3) / (n * 2**expo)) for delta in deltas)
    raise ValueError(f"unknown setting {setting!r}")


def configure(
    setting: str,
    n: int,
    d: int,
    r: int,
    deltas: Optional[Sequence[float]] = None,
) -> tuple[list[Quantizer], float]:
    """The n clients' quantizers for `setting` at precision r, and the
    setting's `theoretical_bound`.

    No side information: subsampled unit-ball RATQ (`rcs_wrap`).  Known
    distance: RMQ (`wz_known_quantizer`), one quantizer per distinct delta,
    shared by every client that declares it.  Unknown distance: subsampled
    RDAQ (`wz_unknown_quantizer`) for r <= d, boosted RDAQ
    (`rdaq_quantizer`) above.  Clients that share a quantizer share the
    object, so `run_dme` runs them in one `Kernel.run`.  ValueError for an
    unknown setting, missing or miscounted deltas, or an r the setting's
    code cannot fit, before any quantizer is built.
    """
    bound = theoretical_bound(setting, n, d, r, deltas)
    if setting == "no-side-info":
        return [rcs_wrap(*configure_no_side_info(n, d, r))] * n, bound
    if setting == "known-delta":
        deltas = [float(x) for x in deltas]
        distinct = list(dict.fromkeys(deltas))
        cfgs, mu_d = configure_known_delta(n, d, r, distinct)
        shared = {delta: wz_known_quantizer(cfg, mu_d) for delta, cfg in zip(distinct, cfgs)}
        return [shared[delta] for delta in deltas], bound
    cfg, mu_d = configure_unknown_delta(d, r)
    q = rdaq_quantizer(cfg) if r > d else wz_unknown_quantizer(cfg, mu_d)
    return [q] * n, bound
