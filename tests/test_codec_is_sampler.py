"""A codec's reconstruction is its sampler's first row, bit for bit.

Every codec and its sampler run one kernel pair and draw from a stream in one
order: for the rotated fixed-length codes (RATQ, RMQ and their subsampled
forms) signs, then subset masks, then one private uniform per rotated
coordinate; for the RDAQ family signs, then N uniforms per rotated
coordinate shared by all scales, then subset masks; for DAQ one uniform per
coordinate; for SimQ+ one multinomial type.  So a round trip under a
SeedPath equals the sampler's single draw from that path's stream.
"""

import numpy as np
import pytest

from qtc import sideinfo, vector
from qtc.core import SeedPath
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    boosted_rdaq_sample,
    daq_quantizer,
    daq_sample,
    rdaq_quantizer,
    wz_known_quantizer,
    wz_known_sample,
    wz_unknown_quantizer,
    wz_unknown_sample,
)
from qtc.vector import (
    RatqConfig,
    SimqPlusConfig,
    ratq_apply,
    ratq_quantizer,
    ratq_sample,
    rcs_ratq_sample,
    rcs_wrap,
    simq_plus_quantizer,
    simq_plus_sample,
)

INPUTS = 10
D_SUB = 40  # the subsampled cases pad it to 64


def _ratq(d):
    cfg = RatqConfig.default(1.0, d)
    return ratq_quantizer(cfg), lambda x, y, n, g: ratq_sample(x, cfg, n, g), d, 0.9, None


def _ratq_apply(d):
    cfg = RatqConfig.default(1.0, d)
    sampler = lambda x, y, n, g: ratq_apply(np.broadcast_to(x, (n, d)), cfg, g)  # noqa: E731
    return ratq_quantizer(cfg), sampler, d, 0.9, None


def _rcs(mu_d):
    cfg = RatqConfig.for_subsampling(1.0, D_SUB)
    mu_d = mu_d or cfg.d_pad
    sampler = lambda x, y, n, g: rcs_ratq_sample(x, cfg, mu_d, n, g)  # noqa: E731
    return rcs_wrap(cfg, mu_d), sampler, D_SUB, 0.9, None


def _wz_known(mu_d):
    cfg = RmqConfig(D_SUB, 0.5, 0.05, 16)
    mu_d = cfg.d_pad if mu_d == "d_pad" else mu_d
    sampler = lambda x, y, n, g: wz_known_sample(x, y, cfg, mu_d, n, g)  # noqa: E731
    return wz_known_quantizer(cfg, mu_d), sampler, D_SUB, 0.9, 0.4


def _rdaq(d, N=1):
    cfg = RdaqConfig(d, N=N)
    return rdaq_quantizer(cfg), lambda x, y, n, g: boosted_rdaq_sample(x, y, cfg, n, g), d, 0.6, 0.3


def _wz_unknown(mu_d):
    cfg = RdaqConfig(D_SUB)
    mu_d = cfg.d_pad if mu_d == "d_pad" else mu_d
    sampler = lambda x, y, n, g: wz_unknown_sample(x, y, cfg, mu_d, n, g)  # noqa: E731
    return wz_unknown_quantizer(cfg, mu_d), sampler, D_SUB, 0.6, 0.3


def _daq(d):
    return daq_quantizer(d), lambda x, y, n, g: daq_sample(x, y, d, n, g), d, 0.6, 0.3


def _simq_plus(k):
    cfg = SimqPlusConfig(1.0, 16, 2.0, k)
    sampler = lambda x, y, n, g: simq_plus_sample(x, cfg, n, g)  # noqa: E731
    return simq_plus_quantizer(cfg), sampler, 16, 0.9, None


# name -> (the public sampler, () -> (codec, sampler call, d, norm of the
# input, distance of the side information or None)); the RDAQ family and DAQ
# get unit-ball pairs
CASES = {
    "ratq-d24": (ratq_sample, lambda: _ratq(24)),
    "ratq-d64": (ratq_sample, lambda: _ratq(64)),
    "ratq-d256": (ratq_sample, lambda: _ratq(256)),
    "ratq-apply-d64": (ratq_apply, lambda: _ratq_apply(64)),
    "rcs-mu1": (rcs_ratq_sample, lambda: _rcs(1)),
    "rcs-mu8": (rcs_ratq_sample, lambda: _rcs(8)),
    "rcs-mu-dpad": (rcs_ratq_sample, lambda: _rcs(None)),
    "rmq": (wz_known_sample, lambda: _wz_known(None)),
    "wz-known-mu1": (wz_known_sample, lambda: _wz_known(1)),
    "wz-known-mu8": (wz_known_sample, lambda: _wz_known(8)),
    "wz-known-mu-dpad": (wz_known_sample, lambda: _wz_known("d_pad")),
    "rdaq-d8": (boosted_rdaq_sample, lambda: _rdaq(8)),
    "rdaq-d32": (boosted_rdaq_sample, lambda: _rdaq(32)),
    "boosted-rdaq-N4": (boosted_rdaq_sample, lambda: _rdaq(D_SUB, N=4)),
    "wz-unknown-mu1": (wz_unknown_sample, lambda: _wz_unknown(1)),
    "wz-unknown-mu8": (wz_unknown_sample, lambda: _wz_unknown(8)),
    "wz-unknown-mu-dpad": (wz_unknown_sample, lambda: _wz_unknown("d_pad")),
    "daq": (daq_sample, lambda: _daq(D_SUB)),
    "simq-plus-k16": (simq_plus_sample, lambda: _simq_plus(16)),
    "simq-plus-k1": (simq_plus_sample, lambda: _simq_plus(1)),
}

# Public samplers with no codec to match, and why.
EXEMPT = {
    "atuq_vector_apply",  # ATUQ without the rotation step: no codec sends it
}


def _vec(rng, d, norm):
    v = rng.normal(size=d)
    return v * (norm / np.linalg.norm(v))


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_reconstruction_is_the_first_sampler_row(name):
    q, sampler, d, norm, delta = CASES[name][1]()
    rng = SeedPath(90).child(name).stream()
    for i in range(INPUTS):
        x = _vec(rng, d, norm)
        side = None if delta is None else x + _vec(rng, d, delta)
        path = SeedPath(91).child(name, i)
        rec = q.roundtrip(x, side, path)[1]
        assert np.array_equal(rec, sampler(x, side, 1, path.stream())[0])


def test_every_public_sampler_runs_a_codec_kernel():
    samplers = [
        n for mod in (vector, sideinfo) for n in mod.__all__ if n.endswith(("_sample", "_apply"))
    ]
    covered = {fn.__name__ for fn, _ in CASES.values()}
    assert [n for n in samplers if n not in covered and n not in EXEMPT] == []
    assert sorted(EXEMPT - set(samplers)) == []
