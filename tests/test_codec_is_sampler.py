"""A rotated codec's reconstruction is its sampler's first row, bit for bit.

The RATQ, subsampled-RATQ, RMQ and subsampled-RMQ codecs and their samplers
run one kernel pair and draw from a stream in one order: signs, then subset
masks, then one private uniform per rotated coordinate.  So a round trip
under a SeedPath equals the sampler's single draw from that path's stream.
"""

import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.sideinfo import RmqConfig, wz_known_quantizer, wz_known_sample
from qtc.vector import RatqConfig, ratq_quantizer, ratq_sample, rcs_ratq_sample, rcs_wrap

INPUTS = 10
D_SUB = 40  # the subsampled cases pad it to 64


def _ratq(d):
    cfg = RatqConfig.default(1.0, d)
    return ratq_quantizer(cfg), lambda x, y, n, g: ratq_sample(x, cfg, n, g), d, None


def _rcs(mu_d):
    cfg = RatqConfig.for_subsampling(1.0, D_SUB)
    mu_d = mu_d or cfg.d_pad
    return rcs_wrap(cfg, mu_d), lambda x, y, n, g: rcs_ratq_sample(x, cfg, mu_d, n, g), D_SUB, None


def _wz_known(mu_d):
    cfg = RmqConfig(D_SUB, 0.5, 0.05, 16)
    mu_d = cfg.d_pad if mu_d == "d_pad" else mu_d
    sampler = lambda x, y, n, g: wz_known_sample(x, y, cfg, mu_d, n, g)  # noqa: E731
    return wz_known_quantizer(cfg, mu_d), sampler, D_SUB, 0.4


# name -> () -> (codec, sampler, d, distance of the side information or None)
CASES = {
    "ratq-d24": lambda: _ratq(24),
    "ratq-d64": lambda: _ratq(64),
    "ratq-d256": lambda: _ratq(256),
    "rcs-mu1": lambda: _rcs(1),
    "rcs-mu8": lambda: _rcs(8),
    "rcs-mu-dpad": lambda: _rcs(None),
    "rmq": lambda: _wz_known(None),
    "wz-known-mu1": lambda: _wz_known(1),
    "wz-known-mu8": lambda: _wz_known(8),
    "wz-known-mu-dpad": lambda: _wz_known("d_pad"),
}


def _vec(rng, d, norm):
    v = rng.normal(size=d)
    return v * (norm / np.linalg.norm(v))


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_reconstruction_is_the_first_sampler_row(name):
    q, sampler, d, delta = CASES[name]()
    rng = SeedPath(90).child(name).stream()
    for i in range(INPUTS):
        x = _vec(rng, d, 0.9)
        side = None if delta is None else x + _vec(rng, d, delta)
        path = SeedPath(91).child(name, i)
        rec = q.roundtrip(x, side, path)[1]
        assert np.array_equal(rec, sampler(x, side, 1, path.stream())[0])
