"""The table of every code the library builds, one entry per code: how to
build it, its input domain, the distance of its side information and the
thesis's bound on E||Q(x) - x||^2, which `quantize-bench` and the tests that
run every quantizer read.  The bound is None where the library does not
state it yet: subsampled RATQ with side information, subsampled RMQ and
RDAQ, A-RATQ and the split quantizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .core import next_pow2
from .sideinfo import (
    RdaqConfig,
    RmqConfig,
    daq_exact_mse,
    daq_quantizer,
    rdaq_quantizer,
    wz_known_quantizer,
    wz_unknown_quantizer,
)
from .vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    SimqPlusConfig,
    aratq_quantizer,
    lp_split_quantizer,
    ratq_quantizer,
    rcs_wrap,
    simq_plus_quantizer,
    simq_quantizer,
)

__all__ = ["Entry", "CATALOG"]


@dataclass(frozen=True)
class Entry:
    """One code.  ``build(d, B, param=None)`` returns its quantizer at
    dimension d and bound B, and ``bound(x, side)`` (or None).  ``param``
    is the family's one free parameter, None for its default: mu_d of a
    subsampled code, N of the RDAQ family, k of SimQ+, p of the split
    quantizer.  ``domain(g, r)`` maps a Gaussian row, or (m, d) rows, into
    the input domain at radius r (a scalar, or (m, 1)); ``radius`` is the
    largest radius it takes at B = 1, inf for any finite input.
    ``distance`` is that of the side information (None without any), and
    ``bias`` bounds ||E Q(x) - x||^2 (0: unbiased, so the second-moment
    bounds of RATQ, SimQ and SimQ+ bound the error as well)."""

    name: str
    build: Callable[..., tuple]
    domain: Callable[[np.ndarray, Any], np.ndarray]
    radius: float = 1.0
    distance: Optional[float] = None
    bias: float = 0.0

    def inputs(self, g: np.ndarray, h: np.ndarray, r) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """`domain` of g at radius r, and side information `distance` from
        it along the Gaussian row(s) h (None without side information)."""
        x = self.domain(g, r)
        return x, None if self.distance is None else x + _scaled(h, self.distance)


def _scaled(v: np.ndarray, r, ord=None) -> np.ndarray:
    """v, one row or (m, d) rows, scaled to lp norm r (l2 for ord None); a
    zero row stays zero."""
    n = np.linalg.norm(v, ord) if v.ndim == 1 else np.linalg.norm(v, ord, axis=1, keepdims=True)
    return v * np.divide(r, n, out=np.zeros(np.shape(n)), where=n > 0)


def _l1(g, r):
    """The l1 sphere of radius r, by way of the l2 sphere."""
    return _scaled(_scaled(g, r), r, 1)


def _spiky(g, r):
    """g at l2 norm 0.3 r, its largest coordinate and its second and third
    largest where positive set to +-0.65 r: l3 norm below r (the split's lq
    ball, p <= 1.5), spikes above the p = 1.5 threshold from d = 32, r >= 0.8."""
    x = _scaled(g, 0.3 * r)
    top = np.argsort(-np.abs(g), axis=-1)[..., :3]
    top = np.where(np.take_along_axis(g, top, axis=-1) > 0, top, top[..., :1])  # else the largest
    np.put_along_axis(x, top, 0.65 * r * np.sign(np.take_along_axis(g, top, axis=-1)), axis=-1)
    return x


def _mu(d, mu_d):
    return max(1, next_pow2(d) // 8) if mu_d is None else mu_d


def _ratq(d, B, param=None):
    cfg = RatqConfig.default(B, d)
    return ratq_quantizer(cfg), lambda x, side: cfg.alpha2**2


def _rcs(d, B, mu_d=None):
    cfg, mu_d = RatqConfig.for_subsampling(B, d), _mu(d, mu_d)
    # without side information each sent coordinate is scaled by 1/mu = d_pad / mu_d
    return rcs_wrap(cfg, mu_d), lambda x, side: cfg.d_pad / mu_d * cfg.alpha2**2


def _rmq(d, B, mu_d=None):
    cfg = RmqConfig(d, 0.5, 0.05, 16)
    if mu_d is not None:
        return wz_known_quantizer(cfg, mu_d), None
    bound = (24 * cfg.delta**2 / (cfg.k - 2) ** 2 * math.log(cfg.delta / cfg.delta_small)
             + 154 * cfg.delta_small**2)
    return wz_known_quantizer(cfg, None), lambda x, side: bound


def _rdaq(d, B, N=None):
    N = 1 if N is None else N  # N draws average to 1/N of one's error
    bound = lambda x, side: 16 * math.sqrt(3) * np.linalg.norm(x - side) / N  # noqa: E731
    return rdaq_quantizer(RdaqConfig(d, N)), bound


def _simq_plus(d, B, k=None):
    cfg = SimqPlusConfig(B, d, 2.0, 0 if k is None else k)
    return simq_plus_quantizer(cfg), lambda x, side: B**2 * d ** (2.0 / cfg.p) / cfg.k + B**2


def _aratq(mode):
    return lambda d, B, param=None: (
        aratq_quantizer(AratqConfig.default(B, d, T=1024, gain_mode=mode)), None)


# DAQ and the RDAQ family take unit-ball pairs: an input of radius 0.7 keeps
# side information at 0.3 inside the unit ball.
_PAIR = dict(radius=0.7, distance=0.3)
_KNOWN = dict(radius=math.inf, distance=0.4, bias=154 * 0.05**2)  # 154 delta_small^2

CATALOG: dict[str, Entry] = {e.name: e for e in (
    Entry("ratq", _ratq, _scaled),
    Entry("rcs_ratq", _rcs, _scaled),
    # the same code, decoded around side information
    Entry("rcs_ratq_center", lambda d, B, mu_d=None: (_rcs(d, B, mu_d)[0], None),
          _scaled, distance=0.4),
    Entry("rmq", _rmq, _scaled, **_KNOWN),
    Entry("wz_known", lambda d, B, mu_d=None: _rmq(d, B, _mu(d, mu_d)), _scaled, **_KNOWN),
    Entry("daq", lambda d, B, param=None: (daq_quantizer(d), daq_exact_mse), _scaled, **_PAIR),
    Entry("rdaq", _rdaq, _scaled, **_PAIR),
    Entry("boosted_rdaq", lambda d, B, N=None: _rdaq(d, B, 3 if N is None else N),
          _scaled, **_PAIR),  # N = 2^b - 1 fills b-bit counts
    Entry("wz_unknown", lambda d, B, mu_d=None: (
        wz_unknown_quantizer(RdaqConfig(d), _mu(d, mu_d)), None), _scaled, **_PAIR),
    Entry("simq", lambda d, B, param=None: (simq_quantizer(B, d), lambda x, side: B**2), _l1),
    # SimQ+ at p = 2 takes the l2 ball: SimQ's input rescaled to it
    Entry("simq_plus", _simq_plus, lambda g, r: _scaled(_l1(g, r), r)),
    Entry("aratq", _aratq("aguq"), _scaled, radius=math.inf),
    Entry("aratq_plus", _aratq("aguq_plus"), _scaled, radius=math.inf),
    Entry("lp_split", lambda d, B, p=None: (
        lp_split_quantizer(LpSplitConfig(B, d, 1.5 if p is None else p)), None), _spiky),
)}
