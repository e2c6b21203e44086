import math

import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    _rdaq_counts,
    boosted_rdaq_sample,
    daq_exact_mse,
    daq_quantizer,
    rdaq_quantizer,
    wz_known_quantizer,
    wz_unknown_quantizer,
)
from qtc.vector import (
    AratqConfig,
    RatqConfig,
    aratq_quantizer,
    atuq_vector_apply,
    ratq_quantizer,
    rcs_wrap,
)


def make_pair(seed, d, delta):
    rng = SeedPath(seed).stream()
    x = rng.normal(size=d)
    x /= np.linalg.norm(x)
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    return x, x + delta * u


def ball_pair(seed, d, delta):
    """`make_pair` with y projected onto the unit ball, the domain of the DAQ
    and RDAQ codecs; the projection is nonexpansive, so |x - y| <= delta."""
    x, y = make_pair(seed, d, delta)
    return x, y / max(1.0, np.linalg.norm(y))


def test_rmq_config_validation():
    with pytest.raises(ValueError):
        RmqConfig(8, 1.0, 0.1, 3)  # k < 4
    with pytest.raises(ValueError):
        RmqConfig(8, 1.0, 2.0, 8)  # delta_small >= delta
    cfg = RmqConfig(64, 1.0, 0.1, 8)
    assert cfg.delta_prime == pytest.approx(math.sqrt(6 / 64 * math.log(10.0)))


# case -> (the build that must fail, the field its message names)
_BAD_CONFIGS = {
    "rmq-delta-inf": (lambda: RmqConfig(16, math.inf, 0.01, 8), "delta"),
    "rmq-delta-nan": (lambda: RmqConfig(16, math.nan, 0.01, 8), "delta"),
    "rmq-k-float": (lambda: RmqConfig(16, 0.1, 0.01, 5.5), "k"),
    "rdaq-N-float": (lambda: RdaqConfig(16, N=2.5), "N"),
    "rdaq-N-bool": (lambda: RdaqConfig(16, N=True), "N"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_config_rejects_a_bad_field_when_built(case):
    """An infinite delta would decode to NaN, a fractional k round on
    np.mod(z, k), and a fractional or bool N fail at its first draw or pass
    where a bool d is refused; each is refused when the config is built."""
    build, field = _BAD_CONFIGS[case]
    with pytest.raises(ValueError, match=rf"(^|\s){field} "):
        build()


def test_rmq_equal_inputs_within_eps_ball():
    cfg = RmqConfig(64, 0.5, 0.05, 16)
    q = wz_known_quantizer(cfg, None)
    x, _ = make_pair(0, 64, 0.5)
    _, rec = q.roundtrip(x, x, SeedPath(1))
    assert np.linalg.norm(rec - x) <= cfg.mq.eps * math.sqrt(cfg.d_pad) + 1e-9


def test_rmq_mse_and_bias_bound():
    d, delta, n_mc = 64, 0.5, 20_000
    cfg = RmqConfig(d, delta, delta / math.sqrt(100), 16)
    x, y = make_pair(2, d, delta)
    recs = wz_known_quantizer(cfg, None).sample(x, y, n_mc, SeedPath(3).stream())
    mse = ((recs - x) ** 2).sum(axis=1).mean()
    bound = 24 * delta**2 / (cfg.k - 2) ** 2 * math.log(delta / cfg.delta_small) + 154 * cfg.delta_small**2
    assert mse <= bound
    assert np.linalg.norm(recs.mean(axis=0) - x) ** 2 <= 154 * cfg.delta_small**2 + 0.01


def test_rmq_budget_and_decode_needs_side():
    cfg = RmqConfig(64, 0.5, 0.05, 16)
    q = wz_known_quantizer(cfg, None)
    x, y = make_pair(4, 64, 0.5)
    msg, _ = q.roundtrip(x, y, SeedPath(5))
    assert msg.nbits == 64 * 4 == cfg.bit_budget
    with pytest.raises(ValueError):
        q.decode(msg, None, SeedPath(5).stream())


def test_wz_known_budget_and_full_sampling():
    cfg = RmqConfig(64, 0.5, 0.05, 16)
    x, y = make_pair(6, 64, 0.5)
    q = wz_known_quantizer(cfg, 8)
    msg, _ = q.roundtrip(x, y, SeedPath(7))
    assert msg.nbits == 8 * 4 == q.bit_budget
    # mu = 1 reproduces plain RMQ statistics
    full = wz_known_quantizer(cfg, 64).sample(x, y, 15_000, SeedPath(8).stream())
    plain = wz_known_quantizer(cfg, None).sample(x, y, 15_000, SeedPath(9).stream())
    assert abs(((full - x) ** 2).sum(1).mean() - ((plain - x) ** 2).sum(1).mean()) < 0.01


def test_wz_known_unbiased_up_to_rmq_bias():
    cfg = RmqConfig(64, 0.5, 0.01, 16)
    x, y = make_pair(10, 64, 0.5)
    recs = wz_known_quantizer(cfg, 8).sample(x, y, 40_000, SeedPath(11).stream())
    assert np.linalg.norm(recs.mean(axis=0) - x) < 0.05


def test_daq_identity_and_budget():
    d = 32
    q = daq_quantizer(d)
    x, _ = make_pair(12, d, 0.1)
    msg, rec = q.roundtrip(x, x, SeedPath(13))
    assert msg.nbits == d
    assert np.allclose(rec, x)


@pytest.mark.parametrize("mu_d", [8.5, 8.0, 0, 65])
def test_subsampled_codecs_reject_a_bad_sample_count(mu_d):
    """A sample count must be an integer in 1..d_pad, checked when the codec
    is built, not first in a round trip."""
    with pytest.raises(ValueError, match="mu_d"):
        wz_known_quantizer(RmqConfig(64, 0.5, 0.05, 16), mu_d)
    with pytest.raises(ValueError, match="mu_d"):
        wz_unknown_quantizer(RdaqConfig(64), mu_d)


def test_daq_rejects_outside_ball():
    q = daq_quantizer(4)
    with pytest.raises(ValueError):
        q.encode(np.full(4, 1.0), None, SeedPath(14).stream())
    msg = q.encode(np.full(4, 0.4), None, SeedPath(14).stream())
    with pytest.raises(ValueError):
        q.decode(msg, np.full(4, 1.0), SeedPath(14).stream())


def test_daq_exact_mse_identity():
    # region-enumeration oracle matches 2||x-y||_1 - ||x-y||_2^2 to 1e-9
    rng = SeedPath(15).stream()
    for d in (1, 2, 3):
        for _ in range(20):
            x = rng.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), size=d)
            y = rng.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), size=d)
            oracle = daq_exact_mse(x, y)
            formula = 2 * np.abs(x - y).sum() - ((x - y) ** 2).sum()
            assert abs(oracle - formula) < 1e-9


def test_daq_d1_example():
    assert daq_exact_mse(np.array([0.5]), np.array([-0.5])) == pytest.approx(1.0)


def test_daq_monte_carlo_matches_formula():
    x, y = ball_pair(16, 16, 0.4)
    recs = daq_quantizer(16).sample(x, y, 60_000, SeedPath(17).stream())
    emp = ((recs - x) ** 2).sum(axis=1).mean()
    formula = 2 * np.abs(x - y).sum() - ((x - y) ** 2).sum()
    assert emp == pytest.approx(formula, rel=0.05)


def test_rdaq_config_table():
    cfg = RdaqConfig(64)
    assert cfg.h == 4  # log h = ceil(log2(1 + log*(64/6))) = 2
    assert cfg.ranges[-1] >= 1.0
    assert cfg.bit_budget == 64 * (2 + 4 * 1)
    with pytest.raises(ValueError):
        RdaqConfig(64, N=0)


@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_rdaq_counts_equal_the_per_scale_per_repetition_loop(N):
    """The encoder compares each repetition's products against every scale
    in one broadcast; its counts are the h * N loop's, also where a value
    equals v M_j exactly (counted: v M_j <= value)."""
    cfg = RdaqConfig(64, N=N)
    rng = SeedPath(29).child("N", N).stream()
    m, width = 5, 40
    v = rng.uniform(-1.0, 1.0, size=(m, width, N))
    xk = rng.uniform(-1.0, 1.0, size=(m, width))
    tie = rng.random((m, width)) < 0.5  # these equal one product exactly
    i = rng.integers(N, size=(m, width))
    j = rng.integers(cfg.h, size=(m, width))
    products = np.take_along_axis(v, i[..., None], axis=2)[..., 0] * cfg.ranges[j]
    xk[tie] = products[tie]
    assert np.abs(xk).max() <= cfg.ranges[-1]
    ref = np.zeros((cfg.h, m, width), dtype=np.int64)
    for jj, r in enumerate(cfg.ranges):
        for ii in range(N):
            ref[jj] += v[..., ii] * r <= xk
    counts = _rdaq_counts(cfg, xk, v)[1]
    assert counts.shape == ref.shape and np.array_equal(counts, ref)
    assert ref[j[tie], np.nonzero(tie)[0], np.nonzero(tie)[1]].min() >= 1


def test_rdaq_identity_recovery():
    cfg = RdaqConfig(32)
    q = rdaq_quantizer(cfg)
    x, _ = make_pair(18, 32, 0.1)
    msg, rec = q.roundtrip(x, x, SeedPath(19))
    assert msg.nbits == cfg.bit_budget
    assert np.allclose(rec, x, atol=1e-9)


def test_rdaq_unbiased():
    cfg = RdaqConfig(32)
    x, y = ball_pair(20, 32, 0.3)
    recs = boosted_rdaq_sample(x, y, cfg, 40_000, SeedPath(21).stream())
    se = recs.std(axis=0) / math.sqrt(len(recs))
    assert np.all(np.abs(recs.mean(axis=0) - x) <= 5 * se + 1e-9)


def test_rdaq_delta_adaptive():
    cfg = RdaqConfig(64)
    mses = {}
    for i, delta in enumerate((0.01, 1.0)):
        x, y = ball_pair(22 + i, 64, delta)
        recs = boosted_rdaq_sample(x, y, cfg, 30_000, SeedPath(24 + i).stream())
        mses[delta] = ((recs - x) ** 2).sum(axis=1).mean()
        assert mses[delta] <= 16 * math.sqrt(3) * delta
    assert mses[0.01] <= 0.03 * mses[1.0]


def test_wz_unknown_identity_and_budget():
    cfg = RdaqConfig(32)
    q = wz_unknown_quantizer(cfg, 5)
    x, _ = make_pair(26, 32, 0.2)
    msg, rec = q.roundtrip(x, x, SeedPath(27))
    assert msg.nbits == 5 * (cfg.index_bits + cfg.h) == q.bit_budget
    assert np.allclose(rec, x, atol=1e-9)


def test_wz_unknown_unbiased_and_scaling():
    cfg = RdaqConfig(32)
    x, y = ball_pair(28, 32, 0.3)
    mu_d = 8
    sub = wz_unknown_quantizer(cfg, mu_d).sample(x, y, 40_000, SeedPath(29).stream())
    se = sub.std(axis=0) / math.sqrt(len(sub))
    assert np.all(np.abs(sub.mean(axis=0) - x) <= 5 * se + 1e-9)
    full = boosted_rdaq_sample(x, y, cfg, 40_000, SeedPath(30).stream())
    mse_ratio = ((sub - x) ** 2).sum(1).mean() / ((full - x) ** 2).sum(1).mean()
    assert mse_ratio <= 32 / mu_d * 1.25  # alpha scales by at most 1/mu


def test_boosted_rdaq_halving():
    x, y = ball_pair(31, 64, 0.3)
    mses = []
    for N in (1, 2, 4, 8):
        cfg = RdaqConfig(64, N=N)
        recs = boosted_rdaq_sample(x, y, cfg, 25_000, SeedPath(32).child("n", N).stream())
        mses.append(((recs - x) ** 2).sum(axis=1).mean())
    for a, b in zip(mses, mses[1:]):
        assert b / a == pytest.approx(0.5, rel=0.2)


def test_boosted_rdaq_bit_path():
    cfg = RdaqConfig(16, N=4)
    q = rdaq_quantizer(cfg)
    x, y = make_pair(33, 16, 0.2)
    msg, rec = q.roundtrip(x, y, SeedPath(34))
    assert msg.nbits == cfg.bit_budget == 16 * (cfg.index_bits + cfg.h * 3)
    _, rec_eq = q.roundtrip(x, x, SeedPath(35))
    assert np.allclose(rec_eq, x, atol=1e-9)
    assert np.isfinite(rec).all()


def test_unit_ball_precondition():
    cfg = RdaqConfig(8)
    q = rdaq_quantizer(cfg)
    with pytest.raises(ValueError):
        q.encode(np.full(8, 1.0), None, SeedPath(36).stream())



_D = 64
_X, _Y = make_pair(7, _D, 0.1)
_X_NAN = np.where(np.arange(_D) == 1, np.nan, _X)
_X_OUT = 1.5 * _X / np.linalg.norm(_X)  # outside the unit ball, every coordinate finite
_RCS = RatqConfig.for_subsampling(1.0, _D)
_RATQ = RatqConfig.default(1.0, _D)
_RMQ = RmqConfig(_D, 0.5, 0.05, 16)


def _encode(q, x, side=None):
    return lambda: q.encode(x, side, SeedPath(0).stream())


def _decode(q, x, side):
    return lambda: q.decode(q.encode(x, None, SeedPath(0).stream()), side, SeedPath(0).stream())


def _sample(factory, x, side=None):
    """`factory().sample` on x and side, given a stream; a factory that
    rejects its config raises before any draw too."""
    return lambda g: factory().sample(x, side, 4, g)


_DAQ = lambda: daq_quantizer(_D)  # noqa: E731
_RDAQ = lambda: rdaq_quantizer(RdaqConfig(_D, N=2))  # noqa: E731
_WZ_UNKNOWN = lambda: wz_unknown_quantizer(RdaqConfig(_D), 8)  # noqa: E731
_ARATQ = lambda: aratq_quantizer(AratqConfig.default(1.0, _D, T=1024))  # noqa: E731
_X_HUGE = np.full(_D, 1e160)  # every entry finite, its squared norm not

# case -> (a call the codec rejects, or None for a sampler without a codec;
#          the sampler's call on the same input, given a stream): what no test
# that runs every catalog entry checks (`test_codec_is_sampler.py` checks
# their bad input rows).
_REJECTED = {
    # configs the catalog never builds
    "rcs-mu0": (lambda: rcs_wrap(_RCS, 0), _sample(lambda: rcs_wrap(_RCS, 0), _X)),
    "rcs-mu65": (lambda: rcs_wrap(_RCS, 65), _sample(lambda: rcs_wrap(_RCS, 65), _X)),
    "rcs-s2": (lambda: rcs_wrap(_RATQ, 8), _sample(lambda: rcs_wrap(_RATQ, 8), _X)),
    "wz-known-mu0": (lambda: wz_known_quantizer(_RMQ, 0),
                     _sample(lambda: wz_known_quantizer(_RMQ, 0), _X, _Y)),
    "wz-known-mu70": (lambda: wz_known_quantizer(_RMQ, 70),
                      _sample(lambda: wz_known_quantizer(_RMQ, 70), _X, _Y)),
    "wz-unknown-mu0": (lambda: wz_unknown_quantizer(RdaqConfig(_D), 0),
                       _sample(lambda: wz_unknown_quantizer(RdaqConfig(_D), 0), _X, _Y)),
    "wz-unknown-mu65": (lambda: wz_unknown_quantizer(RdaqConfig(_D), 65),
                        _sample(lambda: wz_unknown_quantizer(RdaqConfig(_D), 65), _X, _Y)),
    "wz-unknown-N2": (lambda: wz_unknown_quantizer(RdaqConfig(_D, N=2), 8),
                      _sample(lambda: wz_unknown_quantizer(RdaqConfig(_D, N=2), 8), _X, _Y)),
    # samplers on distinct rows and the unrotated ATUQ, which no catalog case
    # runs: input the RATQ codec rejects, non-finite entries or
    # (ratq-apply-shape) a row one short, which pads to the same power of two
    "ratq-apply-nan": (_encode(ratq_quantizer(_RATQ), _X_NAN),
                       lambda g: ratq_quantizer(_RATQ).sample(np.stack([_X, _X_NAN]), None, 2, g)),
    "ratq-apply-shape": (_encode(ratq_quantizer(_RATQ), _X[:-1]),
                         lambda g: ratq_quantizer(_RATQ).sample(np.stack([_X[:-1], _X[:-1]]),
                                                                None, 2, g)),
    "atuq-apply-nan": (None, lambda g: atuq_vector_apply(np.stack([_X, _X_NAN]), _RATQ, g)),
    # bad side information: non-finite, or (the DAQ and RDAQ codecs) outside
    # the unit ball, where _X lies on the sphere
    "rmq-nan-y": (_decode(wz_known_quantizer(_RMQ, None), _X, _X_NAN),
                  _sample(lambda: wz_known_quantizer(_RMQ, None), _X, _X_NAN)),
    "wz-known-nan-y": (_decode(wz_known_quantizer(_RMQ, 8), _X, _X_NAN),
                       _sample(lambda: wz_known_quantizer(_RMQ, 8), _X, _X_NAN)),
    "daq-nan-y": (_decode(daq_quantizer(_D), _X, _X_NAN), _sample(_DAQ, _X, _X_NAN)),
    "rdaq-nan-y": (_decode(_RDAQ(), _X, _X_NAN),
                   lambda g: boosted_rdaq_sample(_X, _X_NAN, RdaqConfig(_D, N=2), 4, g)),
    "daq-ball-y": (_decode(daq_quantizer(_D), _X, _X_OUT), _sample(_DAQ, _X, _X_OUT)),
    "rdaq-ball-y": (_decode(_RDAQ(), _X, _X_OUT),
                    lambda g: boosted_rdaq_sample(_X, _X_OUT, RdaqConfig(_D, N=2), 4, g)),
    "wz-unknown-ball-y": (_decode(_WZ_UNKNOWN(), _X, _X_OUT), _sample(_WZ_UNKNOWN, _X, _X_OUT)),
    # A-RATQ takes any norm but an infinite one, so the catalog's bad rows
    # for it are non-finite only; the sampler gets rows
    "aratq-norm-overflow": (_encode(_ARATQ(), _X_HUGE),
                            lambda g: _ARATQ().kernel.sample(np.stack([_X, _X_HUGE]), None, 2, g)),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_samplers_reject_what_their_codecs_reject_before_drawing(case):
    codec, sampler = _REJECTED[case]
    if codec is not None:
        with pytest.raises(ValueError):
            codec()
    rng = SeedPath(8).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="non-finite" if "nan" in case else None):
        sampler(rng)
    assert rng.bit_generator.state == state
