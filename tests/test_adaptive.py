import math

import numpy as np
import pytest

from qtc.adaptive import (
    AguqPlus,
    GeoLadder,
    TetraLadder,
    aguq_fields,
    aguq_levels,
    aguq_uniforms,
    log_star,
    pick_range,
    tetration,
)
from qtc.core import BitReader, BitString, SeedPath
from qtc.scalar import OVERFLOW
from qtc.sideinfo import RdaqConfig
from qtc.vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    _atuq_fields,
    _atuq_levels,
    atuq_vector_apply,
    gaussian_rd_config,
)


def _atuq_cfg(ladder, k, d, s=None):
    """ATUQ over `ladder` with k levels on length-s subvectors (s = d: the
    whole vector is one subvector); B plays no part in ATUQ."""
    return RatqConfig(1.0, d, s or d, k, ladder)


def _atuq_one(y, ladder, k, rng):
    """ATUQ one vector with the library kernel: (range index, symbols, reconstruction)."""
    cfg = _atuq_cfg(ladder, k, len(y))
    fields = _atuq_fields(np.asarray(y, dtype=float)[None], rng.random((1, len(y))), cfg)
    return int(fields[0][0, 0]), fields[1][0], _atuq_levels(fields, cfg)[0]


def test_tetration_values():
    assert tetration(0) == 1.0
    assert tetration(1) == pytest.approx(math.e)
    assert tetration(2) == pytest.approx(math.exp(math.e))
    assert tetration(4) == math.inf
    with pytest.raises(OverflowError):
        tetration(6)


def test_log_star_table():
    assert log_star(1.0) == 0
    assert log_star(10.0) == 2
    assert log_star(1024 / 3) == 3
    assert log_star(math.e) == 1


def test_tetra_ladder_monotone():
    lad = TetraLadder(0.5, 0.3, 4)
    r = lad.ranges
    assert np.all(np.diff(r) > 0)
    assert r[0] == pytest.approx(math.sqrt(0.5 + 0.3))
    with pytest.raises(ValueError):
        TetraLadder(0.5, 0.0, 9)


def test_atuq_range_selection():
    lad = TetraLadder(1.0, 0.0, 4)  # M0 = 1
    rng = SeedPath(0).stream()
    j, sym, rec = _atuq_one(np.array([0.5, -0.3]), lad, 7, rng)
    assert j == 0
    # between M0 and M1 picks index 1
    mid = (lad.ranges[0] + lad.ranges[1]) / 2
    j, _, _ = _atuq_one(np.array([mid, 0.0]), lad, 7, rng)
    assert j == 1
    # beyond the ladder clamps to the top range and may overflow coordinates
    j, sym, rec = _atuq_one(np.array([lad.ranges[-1] * 2, 0.0]), lad, 7, rng)
    assert j == lad.h - 1
    assert sym[0] == OVERFLOW and rec[0] == 0.0


def test_atuq_unbiased_within_ladder():
    lad = TetraLadder(1.0, 0.0, 4)
    y = np.array([0.4, -0.9, 0.1, 0.7])
    cfg = _atuq_cfg(lad, 15, y.size)
    recs = np.concatenate([atuq_vector_apply(y, cfg, SeedPath(i).stream()) for i in range(4000)])
    assert np.abs(recs.mean(axis=0) - y).max() < 0.01


def test_atuq_subgaussian_mse_bound():
    # per-coordinate MSE under no overflow <= v (9 + 3 ln s)/(k-1)^2 for
    # subgaussian inputs when m = 3v, m0 = 2 v ln s
    v, s, k, d = 0.25, 4, 7, 4096
    lad = TetraLadder(3 * v, 2 * v * math.log(s), 4)
    rng = SeedPath(9).stream()
    y = rng.normal(scale=math.sqrt(v), size=d)
    # 200 repetitions, each ATUQ on the d/s length-s subvectors of y
    recs = atuq_vector_apply(np.broadcast_to(y, (200, d)), _atuq_cfg(lad, k, d, s), rng)
    mse = np.mean(((recs - y) ** 2)[:, np.abs(y) <= lad.ranges[-1]])
    assert mse <= v * (9 + 3 * math.log(s)) / (k - 1) ** 2 * 1.05


def _aguq(gains, ladder, levels, rng):
    """AGUQ on a batch of gains: (range indices, symbols, reconstructions)."""
    g = np.asarray(gains, dtype=float)
    j, sym = aguq_fields(g, ladder, levels, aguq_uniforms(g, ladder, rng))
    return j, sym, aguq_levels((j, sym), ladder, levels)


def test_geo_ladder_and_aguq():
    lad = GeoLadder(1.0, 2.0, 3)
    assert np.allclose(lad.ranges**2, [1.0, 2.0, 4.0])
    j, sym, rec = _aguq([0.0, 1.5, 5.0], lad, np.full(3, 4), SeedPath(1).stream())
    assert (j[0], sym[0], rec[0]) == (0, 0, 0.0)
    assert j[1] == 2  # M0=1 < M1=sqrt2 < 1.5 <= M2=2
    assert sym[2] == OVERFLOW and rec[2] == 0.0 and j[2] == lad.h_g - 1
    with pytest.raises(ValueError, match="nonnegative"):
        _aguq([0.5, -0.1], lad, np.full(3, 4), SeedPath(1).stream())
    # a batch that overflows throughout draws nothing
    rng = SeedPath(1).stream()
    state = rng.bit_generator.state
    assert np.all(_aguq([5.0, 9.0], lad, np.full(3, 4), rng)[1] == OVERFLOW)
    assert rng.bit_generator.state == state


def test_aguq_second_moment_and_bias():
    B, a_g, h_g, k_g = 1.0, 2.0, 3, 4
    lad = GeoLadder(B, a_g, h_g)
    rng = SeedPath(2).stream()
    # heavy-tailed gain achieving E[g^2] = B^2: mass at 0 and a tall point
    tall = lad.ranges[-1] * 2.0
    p_tall = B**2 / tall**2
    gains = np.where(rng.random(40_000) < p_tall, tall, 0.0)
    recs = _aguq(gains, lad, np.full(h_g, k_g), rng)[2]
    second = (recs**2).mean()
    bound = B**2 * (1 / (4 * (k_g - 1) ** 2) + a_g * (h_g - 1) / (4 * (k_g - 1) ** 2) + 1)
    assert second <= bound * 1.1
    bias = abs((recs - gains).mean())
    assert bias <= B**2 / lad.ranges[-1] * 1.15


def _aguq_plus_message(ap, j, sym):
    return ap.write(BitString(), int(j), int(sym))


def test_aguq_plus_examples():
    ap = AguqPlus(1.0, 16)
    assert ap.h_g == 3
    j, sym, rec = _aguq([0.0, 1.2], ap.ladder, ap.levels, SeedPath(3).stream())
    bits = _aguq_plus_message(ap, j[0], sym[0])
    assert bits.nbits == 2 and rec[0] == 0.0  # unary "0" + one level bit
    bits = _aguq_plus_message(ap, j[1], sym[1])
    assert bits.to01()[:2] == "10" and bits.nbits == 4  # j=1: "10" + 2 level bits


def test_aguq_plus_roundtrip_and_mean_length():
    ap = AguqPlus(1.0, 4096)
    rng = SeedPath(4).stream()
    n = 20_000
    j, sym, rec = _aguq(np.abs(rng.normal(size=n)), ap.ladder, ap.levels, rng)
    bits = BitString()
    for jj, ss in zip(j, sym):
        ap.write(bits, int(jj), int(ss))
    reader = BitReader(bits)
    back = np.array([ap.read(reader) for _ in range(n)]).T
    reader.finish()
    assert np.array_equal(back, [j, sym])
    assert np.array_equal(aguq_levels(back, ap.ladder, ap.levels), rec)
    assert bits.nbits / n <= 20.0


def test_aguq_plus_overflow():
    ap = AguqPlus(1.0, 16)
    j, sym, rec = _aguq([1e9], ap.ladder, ap.levels, SeedPath(5).stream())
    assert rec[0] == 0.0
    back = ap.read(BitReader(_aguq_plus_message(ap, j[0], sym[0])))
    assert back == (ap.h_g - 1, OVERFLOW)
    assert aguq_levels(np.array([back]).T, ap.ladder, ap.levels)[0] == 0.0


def test_budget_formulas():
    lad = TetraLadder(1.0, 0.0, 4)
    assert lad.index_bits == 2
    assert TetraLadder(1.0, 0.0, 1).index_bits == 0
    assert GeoLadder(1.0, 2.0, 3).index_bits == 2


def _built_ladders():
    """Every ladder the configs build, and TetraLadders with inf ranges."""
    for d in (1, 24, 64, 256, 4096, 10**6):
        for B in (1.0, 2.0):
            yield RatqConfig.default(B, d).ladder
            yield RatqConfig.for_subsampling(B, d).ladder
        yield TetraLadder(6 / d, 0.0, RdaqConfig(d).h)
        yield LpSplitConfig(1.0, max(d, 4), 1.5).ratq_cfg.ladder
        for T in (2, 1024, 10**6):
            yield AratqConfig.default(2.0, d, T).gain_ladder
            yield AguqPlus(2.0, T).ladder
    yield gaussian_rd_config(1.0, 0.01, 64)[0].ladder
    for h in (5, 6, 7, 8):  # e^^4 and above are inf
        yield TetraLadder(3 / 16, 0.0, h)
        yield TetraLadder(0.5, 0.3, h)


def _old_ranges(ladder):
    """The ranges as worked out on every access before they were cached."""
    if isinstance(ladder, GeoLadder):
        return ladder.B * np.power(ladder.a_g, np.arange(ladder.h_g) / 2.0)
    out = np.empty(ladder.h)
    for i in range(ladder.h):
        t = tetration(i) if i <= 5 else math.inf
        out[i] = math.sqrt(ladder.m * t + ladder.m0) if math.isfinite(t) else math.inf
    return out


def test_cached_ladder_constants_are_the_old_formulas():
    seen_inf = False
    for ladder in _built_ladders():
        ranges = ladder.ranges
        assert ranges is ladder.ranges and not ranges.flags.writeable
        assert np.array_equal(ranges, _old_ranges(ladder)), ladder
        assert ladder.top == np.count_nonzero(np.isfinite(ranges)) - 1
        assert ladder.top == pick_range(np.inf, ranges)
        assert np.isfinite(ranges[ladder.top])
        seen_inf |= ladder.top < len(ranges) - 1
        probe = np.concatenate([ranges[np.isfinite(ranges)] * f for f in (0.5, 1.0, 1.5)])
        assert np.array_equal(pick_range(probe, ranges, ladder.top), pick_range(probe, ranges))
    assert seen_inf
