"""Every code of `qtc.catalog` meets what its entry states: its error bound,
its bias and its bit budget, and decodes any bit string or rejects it.
Configs and factories reject a meaningless dimension, norm bound, SimQ+
draw count, A-RATQ horizon or gain level counts when they are built."""

import math

import numpy as np
import pytest

from qtc.adaptive import Ladder
from qtc.catalog import CATALOG
from qtc.core import BitString, MalformedStreamError, SeedPath
from qtc.sideinfo import RdaqConfig, RmqConfig, daq_quantizer, wz_known_quantizer
from qtc.vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    SimqPlusConfig,
    rcs_wrap,
    simq_quantizer,
)

D, TRIALS, ROUND_TRIPS = 32, 20_000, 20


def _inputs(entry, d, seed):
    """An input of the entry's domain at 0.9 of its radius at B = 1, and its
    side information."""
    rng = SeedPath(seed).stream()
    return entry.inputs(rng.normal(size=d), rng.normal(size=d), 0.9 * min(entry.radius, 1.0))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_entry_meets_its_bounds(name):
    """The MSE is within 3 sigma of the bound (where the entry has one),
    every coordinate's bias within its 4-sigma band (RMQ's norm within its
    stated bias bound 154 delta_small^2 and a 4-sigma band), and every
    message within the budget."""
    entry = CATALOG[name]
    q, bound = entry.build(D, 1.0)
    x, side = _inputs(entry, D, 60)
    recs = q.sample(x, side, TRIALS, SeedPath(61).child(name).stream())
    err = ((recs - x) ** 2).sum(axis=1)
    if bound is not None:
        assert err.mean() <= bound(x, side) + 3 * err.std(ddof=1) / math.sqrt(TRIALS)
    se = recs.std(axis=0, ddof=1) / math.sqrt(TRIALS)
    gap = recs.mean(axis=0) - x
    if entry.bias:
        assert np.linalg.norm(gap) <= math.sqrt(entry.bias) + 4 * np.linalg.norm(se)
    else:
        assert np.all(np.abs(gap) <= 4 * se + 1e-12)
    for t in range(ROUND_TRIPS):
        msg, _ = q.roundtrip(x, side, SeedPath(62).child(name, t))
        assert q.bit_budget is None or msg.nbits <= q.bit_budget


# Every string of a message's length is decoded for messages of at most
# this many bits.  At 16 bits RATQ and RMQ at d = 4 take 2^16 decodes of
# about 0.1 ms each, some 6 s apiece; at 12 they run at d = 2.
EXHAUSTIVE_BITS = 12
RANDOM_STRINGS = 16


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_tiny_code_decodes_every_string_or_raises(name):
    """At the largest d in 4, 2, 1 whose message has at most
    EXHAUSTIVE_BITS bits: every string of the message's length, and seeded
    random strings of every other length up to 8 past it, decode to a
    finite vector of the input's shape or raise MalformedStreamError."""
    entry = CATALOG[name]
    for d in (4, 2, 1):
        q = entry.build(d, 1.0)[0]
        x, side = _inputs(entry, d, 63)
        path = SeedPath(64).child(name)
        nbits = q.encode(x, side, path.stream()).nbits
        if nbits <= EXHAUSTIVE_BITS:
            break
    assert nbits <= EXHAUSTIVE_BITS
    rng = SeedPath(65).child(name).stream()
    strings = [BitString().write_uint(v, nbits) for v in range(1 << nbits)] if nbits else []
    for length in range(nbits + 9):
        if length != nbits:
            strings += [BitString().write_fields(rng.integers(2, size=length), 1)
                        for _ in range(RANDOM_STRINGS)]
    for bits in strings:
        try:
            rec = q.decode(bits, side, path.stream())
        except MalformedStreamError:
            continue
        assert rec.shape == x.shape and np.all(np.isfinite(rec))


_RCS = RatqConfig.for_subsampling(1.0, 8)
_RMQ = RmqConfig(8, 0.5, 0.05, 16)
_GAINS = Ladder.geometric(1.0, 2.0, 3)

# case -> (the build that must fail, the parameter its message names)
_MEANINGLESS = {
    "simq-plus-B0": (lambda: SimqPlusConfig(0.0, 4, 2.0), "B"),
    "simq-plus-B-1": (lambda: SimqPlusConfig(-1.0, 4, 2.0), "B"),
    "simq-plus-k-3": (lambda: SimqPlusConfig(1.0, 4, 2.0, -3), "k"),
    "ratq-B-1": (lambda: RatqConfig.default(-1.0, 4), "B"),
    "ratq-B-nan": (lambda: RatqConfig.for_subsampling(math.nan, 4), "B"),
    "ratq-d0": (lambda: RatqConfig.default(1.0, 0), "d"),
    "ratq-d0-direct": (lambda: RatqConfig(1.0, 0, 1, 7, _RCS.ladder), "d"),
    "simq-B-1": (lambda: simq_quantizer(-1.0, 4), "B"),
    "simq-d0": (lambda: simq_quantizer(1.0, 0), "d"),
    "lp-split-B-1": (lambda: LpSplitConfig(-1.0, 8, 1.5), "B"),
    "lp-split-d0": (lambda: LpSplitConfig(1.0, 0, 1.5), "d"),
    "aratq-B-inf": (lambda: AratqConfig.default(math.inf, 8, T=64), "B"),
    "aratq-d0": (lambda: AratqConfig.default(1.0, 0, T=64), "d"),
    "aratq-T0": (lambda: AratqConfig.default(1.0, 8, T=0), "T"),
    "aratq-T1": (lambda: AratqConfig.default(1.0, 8, T=1), "T"),
    "aratq-plus-T1": (lambda: AratqConfig.default(1.0, 8, T=1, gain_mode="aguq_plus"), "T"),
    "aratq-levels-short": (lambda: AratqConfig(1.0, 8, _GAINS, (7, 7), _RCS), "gain_levels"),
    "aratq-plus-levels": (lambda: AratqConfig(1.0, 8, _GAINS, (7, 7, 7), _RCS, "aguq_plus"),
                          "gain_levels"),
    "rmq-d0": (lambda: RmqConfig(0, 0.5, 0.05, 16), "d"),
    "rdaq-d0": (lambda: RdaqConfig(0), "d"),
    "rdaq-d-float": (lambda: RdaqConfig(8.0), "d"),
    "daq-d0": (lambda: daq_quantizer(0), "d"),
    "wz-known-mu-true": (lambda: wz_known_quantizer(_RMQ, True), "mu_d"),
    "rcs-mu-true": (lambda: rcs_wrap(_RCS, True), "mu_d"),
}


@pytest.mark.parametrize("case", sorted(_MEANINGLESS))
def test_config_rejects_a_meaningless_d_or_b_when_built(case):
    build, param = _MEANINGLESS[case]
    with pytest.raises(ValueError, match=rf"(^|\s){param} "):
        build()
