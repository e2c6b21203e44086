"""Pinned wire format and sampler draws.

Every message below was recorded as a SHA-256 of its bit string, and every
sampler output as its sum and sum of squares; a refactor of the packing or
rounding code must reproduce them exactly (samplers to rtol 1e-12).  The same
factory table drives the malformed-message and non-finite-input checks.
"""

import hashlib

import numpy as np
import pytest

from qtc.core import BitString, SeedPath
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    boosted_rdaq_sample,
    daq_quantizer,
    rdaq_quantizer,
    wz_known_quantizer,
    wz_unknown_quantizer,
)
from qtc.vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    SimqPlusConfig,
    aratq_quantizer,
    atuq_vector_apply,
    lp_split_quantizer,
    ratq_apply,
    ratq_quantizer,
    rcs_wrap,
    simq_plus_quantizer,
    simq_quantizer,
)

TRIALS = 4


def _vec(seed, d, norm=1.0, ord=2):
    v = SeedPath(seed).stream().normal(size=d)
    return v * (norm / np.linalg.norm(v, ord=ord))


def _pair(seed, d, delta):
    x = _vec(seed, d, 0.8)
    return x, x + _vec(seed + 1, d, delta)


def _lp_input(d):
    y = _vec(60, d, 0.3, ord=1.5)
    y[3] = 0.6  # above the split threshold: exercises the masked RATQ part
    return y


# name -> (quantizer factory, input x, side information or None)
CASES = {
    "ratq": (lambda: ratq_quantizer(RatqConfig.default(1.0, 24)), _vec(1, 24, 0.9), None),
    "ratq_d64": (lambda: ratq_quantizer(RatqConfig.default(1.0, 64)), _vec(2, 64), None),
    "rcs_wrap": (lambda: rcs_wrap(RatqConfig.for_subsampling(1.0, 64), 5), _vec(3, 64), None),
    "rcs_wrap_center": (
        lambda: rcs_wrap(RatqConfig.for_subsampling(1.0, 64), 5, mode="center"),
        _vec(4, 64, 0.7), _vec(5, 64, 0.6),
    ),
    "aratq_aguq": (lambda: aratq_quantizer(AratqConfig.default(1.0, 32, T=1024)), _vec(6, 32, 0.7), None),
    "aratq_aguq_overflow": (
        lambda: aratq_quantizer(AratqConfig.default(1.0, 32, T=1024)), _vec(7, 32, 40.0), None,
    ),
    "aratq_aguq_plus": (
        lambda: aratq_quantizer(AratqConfig.default(1.0, 32, T=1024, gain_mode="aguq_plus")),
        _vec(8, 32, 1.7), None,
    ),
    "simq": (lambda: simq_quantizer(1.0, 8), _vec(9, 8, 0.9, ord=1), None),
    "simq_plus": (lambda: simq_plus_quantizer(SimqPlusConfig(1.0, 16, 2.0, 16)), _vec(10, 16), None),
    "lp_split": (lambda: lp_split_quantizer(LpSplitConfig(1.0, 64, 1.5)), _lp_input(64), None),
    "rmq": (lambda: wz_known_quantizer(RmqConfig(64, 0.5, 0.05, 16), None), *_pair(20, 64, 0.4)),
    "wz_known": (lambda: wz_known_quantizer(RmqConfig(64, 0.5, 0.05, 16), 8), *_pair(22, 64, 0.4)),
    "daq": (lambda: daq_quantizer(32), *_pair(24, 32, 0.3)),
    "rdaq": (lambda: rdaq_quantizer(RdaqConfig(32)), *_pair(26, 32, 0.3)),
    "wz_unknown": (lambda: wz_unknown_quantizer(RdaqConfig(32), 5), *_pair(28, 32, 0.3)),
    "boosted_rdaq": (lambda: rdaq_quantizer(RdaqConfig(16, N=4)), *_pair(30, 16, 0.2)),
}

MESSAGES = {
    "aratq_aguq": ("a46347331493956d377df2b26193641cdb8b0572dc5738b64d30b4360bef95ae", 2.4109826909015126, 4.000607859810444),
    "aratq_aguq_overflow": ("5a64a9d5c38d08fc6addfe183cad4597c3f5743124971167acdf1ca6b2674e22", 0.0, 0.0),
    "aratq_aguq_plus": ("8cbe103e4c4c433098f25626f41122d6913ff9af20d54627fb9c75f1c06c9d7b", 3.863179422382868, 13.638221170611484),
    "boosted_rdaq": ("b6d5c557bab436d01a35e6eb6f03f08f4fc12ca0554076c5402f933de703fbd0", 2.1345826789069324, 4.064520892502179),
    "daq": ("5a5d0f3038935279e28156b336099b244ab65f948bdeb9039bde72038822749a", -1.0476361926506588, 23.615852130775348),
    "lp_split": ("8bbacd725ab4f7f77fb3603527f38796ff6f092b9be9c447a5dd3c0c2727bfaa", 4.113225267038484, 2.114716618582545),
    "ratq": ("b0547a373e6742639c9a08dc64c20532b6220a570c6d14d67527429eec8c7308", 2.5165762991190466, 3.5529709237775338),
    "ratq_d64": ("a9d88be4e2767402131f4d1403695dd2a0b3d4756bf6eadb6221905dfb739184", 4.367979955421335, 4.2774710512634355),
    "rcs_wrap": ("66d6fa05314bc47972606bd0ddb170b680a52bbab2cdebad2e569a4a20768b4b", 4.456553458379508, 34.02506864114021),
    "rcs_wrap_center": ("ffa0cae6c4cd9885de43d4adc61ec4429af502813966b297794352d7cc59a000", 8.294543099195565, 43.01520672653249),
    "rdaq": ("0e918d367c54217e4ffa9c30fce12c097dad9d231b695c0201acd4d4539b0dc5", -1.4453589750437494, 5.3066132415078915),
    "rmq": ("7a39d12269dd211da864af940195c776da551e2609316c5d52c34d600d5c1efb", -0.754999819610124, 2.6014218700503524),
    "simq": ("df8ece93975593f1c67f0874a8b89c4e4f0d116497edfaa42e8f818dd6d4346f", 0.0, 4.0),
    "simq_plus": ("9654f60b10427a59a0147779b49077bf90e64f381b69c94cc571509b55af78d1", -3.5, 8.0),
    "wz_known": ("6e62ccbc0529e0320317400cc8b9d4196797547e17f33dfe2e3dfc9122a6cdb1", -0.3071290506499299, 7.019708770730578),
    "wz_unknown": ("b65e994ed462ec7567eb3a67a6eb15c72c77d7ade1ee124fccbc676ca060a7cc", 9.644479560220294, 65.43625167533995),
}

SAMPLERS = {
    "ratq_apply": lambda rng: ratq_apply(
        np.stack([_vec(40 + i, 48, 0.5 + 0.1 * i) for i in range(6)]), RatqConfig.default(1.0, 48), rng),
    "atuq_vector_apply": lambda rng: atuq_vector_apply(
        SeedPath(41).stream().normal(size=(50, 64)) * 0.05,
        RatqConfig(1.0, 64, 2, 7, RatqConfig.default(1.0, 64).ladder), rng),
    "ratq_sample": lambda rng: ratq_quantizer(RatqConfig.default(1.0, 40)).sample(
        _vec(42, 40), None, 300, rng),
    "rcs_ratq_sample": lambda rng: rcs_wrap(RatqConfig.for_subsampling(1.0, 64), 8).sample(
        _vec(43, 64), None, 300, rng),
    "simq_plus_sample": lambda rng: simq_plus_quantizer(SimqPlusConfig(1.0, 64, 2.0, 64)).sample(
        _vec(44, 64), None, 300, rng),
    "rmq_sample": lambda rng: wz_known_quantizer(RmqConfig(48, 0.5, 0.05, 16), None).sample(
        *_pair(45, 48, 0.5), 300, rng),
    "wz_known_sample": lambda rng: wz_known_quantizer(RmqConfig(64, 0.5, 0.05, 16), 8).sample(
        *_pair(46, 64, 0.5), 300, rng),
    "daq_sample": lambda rng: daq_quantizer(16).sample(*_pair(47, 16, 0.4), 300, rng),
    "rdaq_sample": lambda rng: boosted_rdaq_sample(*_pair(48, 32, 0.3), RdaqConfig(32), 300, rng),
    "wz_unknown_sample": lambda rng: wz_unknown_quantizer(RdaqConfig(32), 8).sample(
        *_pair(49, 32, 0.3), 300, rng),
    "boosted_rdaq_sample": lambda rng: boosted_rdaq_sample(
        *_pair(50, 64, 0.3), RdaqConfig(64, N=4), 300, rng),
}

SAMPLER_MOMENTS = {
    "atuq_vector_apply": (4.101431881510391, 12.465909495057748),
    "boosted_rdaq_sample": (-83.49250550548928, 272.5639038801666),
    "daq_sample": (302.58998085678354, 882.9201505176738),
    "ratq_apply": (5.176699969523283, 3.901853648383449),
    "ratq_sample": (217.99628519549847, 325.2316818277141),
    "rcs_ratq_sample": (326.03538762519565, 2613.105786840348),
    "rdaq_sample": (234.50721782650837, 510.583074165704),
    "rmq_sample": (325.93775065364366, 195.58756921930927),
    "simq_plus_sample": (236.25, 538.75),
    "wz_known_sample": (-96.79331193427828, 744.1518616117022),
    "wz_unknown_sample": (-189.31741413463328, 1659.3884977349503),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_message_bits_pinned(name):
    factory, x, side = CASES[name]
    q = factory()
    runs = [q.roundtrip(x, side, SeedPath(7).child(name, t)) for t in range(TRIALS)]
    text = "|".join(msg.to01() for msg, _ in runs)
    digest, rec_sum, rec_sq = MESSAGES[name]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    recs = np.array([rec for _, rec in runs])
    np.testing.assert_allclose([recs.sum(), (recs**2).sum()], [rec_sum, rec_sq], rtol=1e-12)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_sampler_draws_pinned(name):
    out = SAMPLERS[name](SeedPath(8).child(name).stream())
    np.testing.assert_allclose([out.sum(), (out**2).sum()], SAMPLER_MOMENTS[name], rtol=1e-12)


# The 64-bit outputs of the stream that one message's encode takes, by the
# draws its kernel documents: ceil(d_pad / 32) for the signs of a rotated
# code, d_pad subset keys when subsampled, then one uniform per sent
# coordinate (RATQ rounding, RMQ dither; N of them for RDAQ's shared v).  The
# A-RATQ cases draw a gain uniform or none by their input, and SimQ+ a
# multinomial, so they have no fixed count.
def _sign_draws(d_pad):
    return -(-d_pad // 32)


CONSUMED = {
    "ratq": _sign_draws(32) + 32,
    "ratq_d64": _sign_draws(64) + 64,
    "rcs_wrap": _sign_draws(64) + 64 + 5,
    "rcs_wrap_center": _sign_draws(64) + 64 + 5,
    "lp_split": _sign_draws(16) + 64 + 16,  # signs of its 16-wide RATQ, 64 CUQ uniforms, its RATQ
    "rmq": _sign_draws(64) + 64,
    "wz_known": _sign_draws(64) + 64 + 8,
    "wz_known_d256": _sign_draws(256) + 256 + 8,
    "daq": 32,
    "rdaq": _sign_draws(32) + 32,
    "wz_unknown": _sign_draws(32) + 32 + 5,
    "boosted_rdaq": _sign_draws(16) + 4 * 16,
    "simq": 1,
}


@pytest.mark.parametrize("name", sorted(CONSUMED))
def test_message_takes_its_documented_outputs(name):
    if name == "wz_known_d256":
        q, (x, side) = wz_known_quantizer(RmqConfig(256, 0.5, 0.05, 16), 8), _pair(32, 256, 0.4)
    else:
        factory, x, side = CASES[name]
        q = factory()
    rng, ref = (SeedPath(16).child(name).stream() for _ in range(2))
    q.encode(x, side, rng)
    ref.bit_generator.advance(CONSUMED[name])
    # `state` alone: the 32-bit buffer of a fresh stream is stale, not drawn
    assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]


def _resized(msg: BitString, extra: int) -> BitString:
    bits = np.array([int(c) for c in msg.to01()], dtype=np.int64)
    if extra < 0:
        bits = bits[:extra]
    return BitString().write_fields(np.concatenate([bits, np.zeros(max(extra, 0), np.int64)]), 1)


@pytest.mark.parametrize("extra", [1, -1])
@pytest.mark.parametrize("name", sorted(CASES))
def test_wrong_length_message_rejected(name, extra):
    factory, x, side = CASES[name]
    q = factory()
    path = SeedPath(9).child(name)
    msg = q.encode(x, side, path.stream())
    q.decode(msg, side, path.stream())  # the exact message decodes
    with pytest.raises(ValueError):
        q.decode(_resized(msg, extra), side, path.stream())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(CASES))
def test_non_finite_input_rejected_before_any_draw(name, bad):
    factory, x, side = CASES[name]
    x = x.copy()
    x[1] = bad
    rng = SeedPath(10).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="non-finite"):
        factory().encode(x, side, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(CASES))
def test_wrong_shape_input_rejected_before_any_draw(name):
    factory, x, side = CASES[name]
    rng = SeedPath(10).stream()
    state = rng.bit_generator.state
    for bad in (x[:-1], np.stack([x, x])):  # the codec takes one vector
        with pytest.raises(ValueError, match="shape"):
            factory().encode(bad, side, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0]().uses_side_info))
def test_bad_side_information_rejected(name):
    factory, x, side = CASES[name]
    q = factory()
    path = SeedPath(13).child(name)
    msg = q.encode(x, side, path.stream())
    nan_side = side.copy()
    nan_side[1] = np.nan
    for bad in (nan_side, side[:-1], np.stack([side, side])):
        with pytest.raises(ValueError, match="side information"):
            q.decode(msg, bad, path.stream())


# SimQ+ sends one sign bit per distinct index drawn, so its budget is a
# worst case; every other fixed-budget format fills its budget exactly.
BUDGET_IS_WORST_CASE = {"simq_plus"}


def _signed_permutation(rng, x, side):
    """The inputs under one random coordinate permutation and sign flip: every
    lp norm of x, of the side information and of their distance is kept, so
    the pair stays in the case's domain."""
    perm = rng.permutation(x.size)
    flip = rng.choice([-1.0, 1.0], size=x.size)
    return x[perm] * flip, None if side is None else side[perm] * flip


@pytest.mark.parametrize("name", sorted(CASES))
def test_budget_exact_and_deterministic_on_random_inputs(name):
    factory, x0, side0 = CASES[name]
    q = factory()
    rng = SeedPath(14).child(name).stream()
    for t in range(20):
        x, side = _signed_permutation(rng, x0, side0)
        path = SeedPath(15).child(name, t)
        msg = q.encode(x, side, path.stream())
        if name in BUDGET_IS_WORST_CASE:
            assert msg.nbits <= q.bit_budget
        elif q.bit_budget is not None:
            assert msg.nbits == q.bit_budget
        assert q.encode(x, side, path.stream()) == msg
        rec = q.decode(msg, side, path.stream())
        assert rec.shape == x.shape and np.all(np.isfinite(rec))
        assert np.array_equal(q.decode(msg, side, path.stream()), rec)
