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
    "aratq_aguq": ("36b9e5ea06a84146ee37f7b27fa8bd92a4c1b67864fc8a811b7c3c19b7f3b288", 1.3962321298758777, 1.7334105870066558),
    "aratq_aguq_overflow": ("0bdeec814619d66b833d13fdfef686ae7a5562ced59d3d60d8b2def45434292b", 0.0, 0.0),
    "aratq_aguq_plus": ("e30495b3ebdca718f889a59705c89e9cdac4455d0597d04c0b5ff501491b6981", 4.584836552545015, 13.14128991815061),
    "boosted_rdaq": ("6c93a3469cbfcf667163dc85924780d2a0574e7e0ff106eb59c43202e150a0df", -0.16181395495229667, 3.087634571023086),
    "daq": ("5a5d0f3038935279e28156b336099b244ab65f948bdeb9039bde72038822749a", -1.0476361926506588, 23.615852130775348),
    "lp_split": ("98ff929af7a5f8b7912b0fc99ebfd43999d06502992302a458ddfb998389c64b", 3.980941846041133, 1.8172352595795889),
    "ratq": ("85416be8ab8a32aad3ea60007c4572212ae4b577ab164f37837272077c41a278", 2.3389721119911515, 3.9054181718508447),
    "ratq_d64": ("f27dc16b45d45798f4c03a255f3fbf28fe324fc12a228ed297e4bfd0283a9e21", 4.856588208369141, 4.425149035309666),
    "rcs_wrap": ("6f48c7c1576eb76dad6db88ea21fe2416d942af6f65e6dfbe04cb514875a7750", -3.089872484741184, 55.99520592342062),
    "rcs_wrap_center": ("e3abb33e071e12e4abc7eb73dcd14edbb5db90251afc5c0584019b212fbcd8cc", 0.11893639328454686, 28.143499335153486),
    "rdaq": ("9381ab7b6855ae75762ea8fa4c78f93b8e4640666d7ff10e58c078b7eee89768", -1.1391727571958508, 9.098716430650757),
    "rmq": ("626ab3b31594c9996db84e4d108891b4300b26dc697ceed62388c9b138f16f80", -0.5309888841214054, 2.594813685791122),
    "simq": ("df8ece93975593f1c67f0874a8b89c4e4f0d116497edfaa42e8f818dd6d4346f", 0.0, 4.0),
    "simq_plus": ("9654f60b10427a59a0147779b49077bf90e64f381b69c94cc571509b55af78d1", -3.5, 8.0),
    "wz_known": ("b331c1177914efd9809e3164a919f48927c4e59768d8e2dde0646bcf247e3fa3", -1.5064348693620657, 6.084031245737847),
    "wz_unknown": ("37ec5b4f58cf10809e2946a3233e7cc699663019e7deee42bc984228094dd2d6", 1.8061123833141224, 61.098862451186335),
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
    "boosted_rdaq_sample": (-75.18720434636509, 272.1570813577944),
    "daq_sample": (302.58998085678354, 882.9201505176738),
    "ratq_apply": (5.592422784993105, 3.91669687454166),
    "ratq_sample": (214.66031318806395, 325.02718486302246),
    "rcs_ratq_sample": (268.7861797695067, 2452.234878236709),
    "rdaq_sample": (186.12979540654067, 523.9885288967866),
    "rmq_sample": (326.04313291386325, 195.99397255125191),
    "simq_plus_sample": (236.25, 538.75),
    "wz_known_sample": (-169.55548478833776, 747.9657821784508),
    "wz_unknown_sample": (-151.35032312149406, 1415.8104509736881),
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
    with pytest.raises(ValueError, match="shape"):
        factory().encode(x[:-1], side, rng)
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
