import math

import numpy as np
import pytest

from qtc.adaptive import (
    Ladder,
    aguq_fields,
    aguq_levels,
    aguq_uniforms,
    log_star,
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
    aratq_quantizer,
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
    with pytest.raises(ValueError, match="nonnegative"):
        tetration(-1)


def test_log_star_table():
    assert log_star(1.0) == 0
    assert log_star(10.0) == 2
    assert log_star(1024 / 3) == 3
    assert log_star(math.e) == 1
    for b in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive argument"):
            log_star(b)


def test_tetra_ladder_monotone():
    lad = Ladder.tetra(0.5, 0.3, 4)
    r = lad.ranges
    assert np.all(np.diff(r) > 0)
    assert r[0] == pytest.approx(math.sqrt(0.5 + 0.3))
    with pytest.raises(ValueError):
        Ladder.tetra(0.5, 0.0, 9)
    for m, m0 in ((0.0, 0.3), (-0.5, 0.3), (0.5, -0.1)):
        with pytest.raises(ValueError, match="m > 0 and m0 >= 0"):
            Ladder.tetra(m, m0, 4)
    with pytest.raises(ValueError, match="h >= 1"):
        Ladder(())


def test_atuq_range_selection():
    lad = Ladder.tetra(1.0, 0.0, 4)  # M0 = 1
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
    lad = Ladder.tetra(1.0, 0.0, 4)
    y = np.array([0.4, -0.9, 0.1, 0.7])
    cfg = _atuq_cfg(lad, 15, y.size)
    recs = np.concatenate([atuq_vector_apply(y, cfg, SeedPath(i).stream()) for i in range(4000)])
    assert np.abs(recs.mean(axis=0) - y).max() < 0.01


def test_atuq_subgaussian_mse_bound():
    # per-coordinate MSE under no overflow <= v (9 + 3 ln s)/(k-1)^2 for
    # subgaussian inputs when m = 3v, m0 = 2 v ln s
    v, s, k, d = 0.25, 4, 7, 4096
    lad = Ladder.tetra(3 * v, 2 * v * math.log(s), 4)
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
    lad = Ladder.geometric(1.0, 2.0, 3)
    assert np.allclose(lad.ranges**2, [1.0, 2.0, 4.0])
    j, sym, rec = _aguq([0.0, 1.5, 5.0], lad, np.full(3, 4), SeedPath(1).stream())
    assert (j[0], sym[0], rec[0]) == (0, 0, 0.0)
    assert j[1] == 2  # M0=1 < M1=sqrt2 < 1.5 <= M2=2
    assert sym[2] == OVERFLOW and rec[2] == 0.0 and j[2] == lad.h - 1
    with pytest.raises(ValueError, match="nonnegative"):
        _aguq([0.5, -0.1], lad, np.full(3, 4), SeedPath(1).stream())
    for a in (1.0, 0.5):
        with pytest.raises(ValueError, match="growth ratio a must exceed 1"):
            Ladder.geometric(1.0, a, 3)
    # a batch that overflows throughout draws nothing
    rng = SeedPath(1).stream()
    state = rng.bit_generator.state
    assert np.all(_aguq([5.0, 9.0], lad, np.full(3, 4), rng)[1] == OVERFLOW)
    assert rng.bit_generator.state == state


def test_aguq_second_moment_and_bias():
    B, a_g, h_g, k_g = 1.0, 2.0, 3, 4
    lad = Ladder.geometric(B, a_g, h_g)
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


def _plus_codec(T, d=4):
    """The A-RATQ codec with the AGUQ+ gain at horizon T."""
    cfg = AratqConfig.default(1.0, d, T, gain_mode="aguq_plus")
    return cfg, aratq_quantizer(cfg)


def _gain_code(cfg, msg):
    """The AGUQ+ gain code of an A-RATQ message: all but its fixed-length shape part."""
    return msg.to01()[: msg.nbits - cfg.shape.bit_budget]


def _row(fields, i):
    """Row i of a batch of kernel fields, shaped as the codec's one-row fields."""
    return tuple(_row(f, i) if isinstance(f, tuple) else f[i : i + 1] for f in fields)


def test_aguq_plus_examples():
    cfg, q = _plus_codec(16)
    assert cfg.gain_ladder.h == 3
    msg, rec = q.roundtrip(np.zeros(4), None, SeedPath(3))
    assert len(_gain_code(cfg, msg)) == 2 and np.all(rec == 0.0)  # unary "0" + one level bit
    msg, _ = q.roundtrip(np.array([1.2, 0.0, 0.0, 0.0]), None, SeedPath(3))
    gain = _gain_code(cfg, msg)
    assert gain[:2] == "10" and len(gain) == 4  # j=1: "10" + 2 level bits


def test_aguq_plus_roundtrip_and_mean_length():
    cfg, q = _plus_codec(4096, d=1)
    kernel = q.kernel
    rng = SeedPath(4).stream()
    n = 20_000
    x = np.abs(rng.normal(size=(n, 1)))  # d = 1: each row's gain is its one coordinate
    fields = kernel.encode(x, kernel.derive(kernel.draw(rng, n)), kernel.noise(rng, x, n))
    bits = BitString()
    for i in range(n):
        kernel.write(bits, _row(fields, i))
    reader = BitReader(bits)
    back = np.concatenate([kernel.read(reader)[0] for _ in range(n)], axis=1)
    reader.finish()
    assert np.array_equal(back, fields[0])
    levels = np.array(cfg.gain_levels)
    rec = aguq_levels(fields[0], cfg.gain_ladder, levels)
    assert np.array_equal(aguq_levels(back, cfg.gain_ladder, levels), rec)
    assert bits.nbits / n - cfg.shape.bit_budget <= 20.0


def test_aguq_plus_overflow():
    cfg, q = _plus_codec(16)
    msg, rec = q.roundtrip(np.array([1e9, 0.0, 0.0, 0.0]), None, SeedPath(5))
    assert np.all(rec == 0.0)
    assert _gain_code(cfg, msg) == "110" + "111"  # the top range, then its overflow code
    reader = BitReader(msg)
    back = q.kernel.read(reader)[0]
    reader.finish()
    assert (back[0][0], back[1][0]) == (cfg.gain_ladder.h - 1, OVERFLOW)
    assert aguq_levels(back, cfg.gain_ladder, np.array(cfg.gain_levels))[0] == 0.0


def test_budget_formulas():
    lad = Ladder.tetra(1.0, 0.0, 4)
    assert lad.index_bits == 2
    assert Ladder.tetra(1.0, 0.0, 1).index_bits == 0
    assert Ladder.geometric(1.0, 2.0, 3).index_bits == 2


def _ratq_params(cfg):
    """What RATQ's ladder is built from: ("tetra", m, m0, h) with m = 3 B^2/d
    and m0 = (2 B^2/d) ln s (0 at s = 1, the subsampling setting)."""
    B, d = cfg.B, cfg.d
    return "tetra", 3 * B * B / d, (2 * B * B / d) * math.log(cfg.s), cfg.ladder.h


def _built_ladders():
    """Every ladder the configs build, and tetra ladders with inf ranges, each
    with what it is built from: ("tetra", m, m0, h) or ("geometric", B, a, h)."""
    for d in (1, 24, 64, 256, 4096, 10**6):
        for B in (1.0, 2.0):
            for cfg in (RatqConfig.default(B, d), RatqConfig.for_subsampling(B, d)):
                yield cfg.ladder, _ratq_params(cfg)
        h = RdaqConfig(d).h
        yield Ladder.tetra(6 / d, 0.0, h), ("tetra", 6 / d, 0.0, h)
        cfg = LpSplitConfig(1.0, max(d, 4), 1.5).ratq_cfg
        yield cfg.ladder, _ratq_params(cfg)
        for T in (2, 1024, 10**6):
            ladder = AratqConfig.default(2.0, d, T).gain_ladder
            yield ladder, ("geometric", 2.0, 2.0, ladder.h)
            h = 1 + math.ceil(math.log2(T) / 2.0)
            yield AratqConfig.default(2.0, d, T, "aguq_plus").gain_ladder, ("geometric", 2.0, 2.0, h)
    v = 1.0
    cfg = gaussian_rd_config(v, 0.01, 64)[0]
    yield cfg.ladder, ("tetra", 3 * v, 2 * v * math.log(cfg.s), cfg.ladder.h)
    for h in (5, 6, 7, 8):  # e^^4 and above are inf
        yield Ladder.tetra(3 / 16, 0.0, h), ("tetra", 3 / 16, 0.0, h)
        yield Ladder.tetra(0.5, 0.3, h), ("tetra", 0.5, 0.3, h)


def _old_ranges(kind, a, b, h):
    """The ranges as worked out on every access before they were cached."""
    if kind == "geometric":
        return a * np.power(b, np.arange(h) / 2.0)
    out = np.empty(h)
    for i in range(h):
        t = tetration(i) if i <= 5 else math.inf
        out[i] = math.sqrt(a * t + b) if math.isfinite(t) else math.inf
    return out


def test_cached_ladder_constants_are_the_old_formulas():
    seen_inf = False
    for ladder, params in _built_ladders():
        ranges = ladder.ranges
        assert ranges is ladder.ranges and not ranges.flags.writeable
        assert np.array_equal(ranges, _old_ranges(*params)), params
        top = np.count_nonzero(np.isfinite(ranges)) - 1
        assert ladder.top == top == ladder.pick(np.inf)
        assert np.isfinite(ranges[ladder.top])
        seen_inf |= ladder.top < len(ranges) - 1
        probe = np.concatenate([ranges[np.isfinite(ranges)] * f for f in (0.5, 1.0, 1.5)])
        assert np.array_equal(ladder.pick(probe),
                              np.minimum(np.searchsorted(ranges, probe, side="left"), top))
    assert seen_inf
