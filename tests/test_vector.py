import math

import numpy as np
import pytest

from qtc.adaptive import Ladder
from qtc.core import BitString, MalformedStreamError, Quantizer, SeedPath
from qtc.scalar import cuq_levels, cuq_round_with
from qtc.vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    SimqPlusConfig,
    _rank_composition,
    _unrank_composition,
    aratq_quantizer,
    atuq_vector_apply,
    gaussian_rd_config,
    lp_split_quantizer,
    ratq_quantizer,
    rcs_wrap,
    simq_decode,
    simq_plus_quantizer,
    simq_quantizer,
)


def unit_vector(seed, d):
    y = SeedPath(seed).stream().normal(size=d)
    return y / np.linalg.norm(y)


def test_ratq_default_parameters_d256():
    cfg = RatqConfig.default(1.0, 256)
    assert cfg.ladder.h == 4 and cfg.s == 2 and cfg.k == 7
    assert cfg.bit_budget == 1024  # <= d(1+Delta1)+Delta2 = 1026


def test_ratq_budget_exact_every_message():
    cfg = RatqConfig.default(1.0, 256)
    q = ratq_quantizer(cfg)
    for t in range(20):
        msg, _ = q.roundtrip(unit_vector(t, 256), None, SeedPath(50).child("t", t))
        assert msg.nbits == cfg.bit_budget


def test_roundtrip_rejects_a_message_over_the_budget():
    q = ratq_quantizer(RatqConfig.default(1.0, 16))
    short = Quantizer(q.encode, q.decode, q.bit_budget - 1, "short")
    with pytest.raises(AssertionError, match="short: emitted 64 bits > budget 63"):
        short.roundtrip(unit_vector(0, 16), None, SeedPath(52))


def test_ratq_zero_vector():
    q = ratq_quantizer(RatqConfig.default(1.0, 64))
    _, rec = q.roundtrip(np.zeros(64), None, SeedPath(0))
    assert np.allclose(rec, 0.0)


def test_ratq_rejects_out_of_ball():
    """The codec and the sampler on rows, on every row, with one message."""
    cfg = RatqConfig.default(1.0, 16)
    want = r"^input norm 4 exceeds bound B=1\.0$"
    with pytest.raises(ValueError, match=want):
        ratq_quantizer(cfg).encode(np.full(16, 1.0), None, SeedPath(1).stream())
    with pytest.raises(ValueError, match=want):
        ratq_quantizer(cfg).sample(np.ones((3, 16)), None, 3, SeedPath(1).stream())
    ys = np.zeros((3, 16))
    ys[2, 5] = 1.5  # the last row alone lies outside
    with pytest.raises(ValueError, match=r"^input norm 1\.5 exceeds bound B=1\.0$"):
        ratq_quantizer(cfg).sample(ys, None, 3, SeedPath(1).stream())


def test_ratq_unbiased_and_bounded_second_moment():
    cfg = RatqConfig.default(1.0, 64)
    y = unit_vector(2, 64)
    recs = ratq_quantizer(cfg).sample(y, None, 50_000, SeedPath(3).stream())
    se = recs.std(axis=0) / math.sqrt(len(recs))
    assert np.all(np.abs(recs.mean(axis=0) - y) <= 5 * se + 1e-12)
    bound = (9 + 3 * math.log(cfg.s)) / (cfg.k - 1) ** 2 + 1
    assert (recs**2).sum(axis=1).mean() <= bound


def test_ratq_bit_path_matches_sampler_distribution():
    cfg = RatqConfig.default(1.0, 16)
    q = ratq_quantizer(cfg)
    y = unit_vector(4, 16)
    bit_recs = np.array(
        [q.roundtrip(y, None, SeedPath(5).child("t", t))[1] for t in range(3000)]
    )
    mc_recs = ratq_quantizer(cfg).sample(y, None, 3000, SeedPath(6).stream())
    se = np.sqrt(bit_recs.var(axis=0) + mc_recs.var(axis=0)) / math.sqrt(3000)
    assert np.all(np.abs(bit_recs.mean(0) - mc_recs.mean(0)) <= 6 * se + 1e-9)
    assert abs((bit_recs**2).sum(1).mean() - (mc_recs**2).sum(1).mean()) < 0.05


def test_ratq_non_pow2_dimension():
    cfg = RatqConfig.default(1.0, 24)
    q = ratq_quantizer(cfg)
    y = unit_vector(7, 24)
    msg, rec = q.roundtrip(y, None, SeedPath(8))
    assert msg.nbits == cfg.bit_budget and rec.shape == (24,)
    recs = ratq_quantizer(cfg).sample(y, None, 20_000, SeedPath(9).stream())
    assert np.linalg.norm(recs.mean(axis=0) - y) < 0.05


def test_rcs_wrap_contract():
    cfg = RatqConfig.for_subsampling(1.0, 64)
    with pytest.raises(ValueError):
        rcs_wrap(RatqConfig.default(1.0, 64), 4)  # s != 1
    with pytest.raises(ValueError):
        rcs_wrap(cfg, 0)
    with pytest.raises(ValueError):
        rcs_wrap(cfg, 65)
    for mu_d in (8.5, 8.0):  # a float would first fail in a round trip's partition
        with pytest.raises(ValueError, match="mu_d"):
            rcs_wrap(cfg, mu_d)
    q = rcs_wrap(cfg, 4)
    assert q.bit_budget == 4 * (cfg.ladder.index_bits + 3)


def test_rcs_full_sampling_matches_ratq_distribution():
    # mu = 1 keeps every coordinate: distributionally identical to RATQ s=1
    cfg = RatqConfig.for_subsampling(1.0, 16)
    y = unit_vector(10, 16)
    full = rcs_wrap(cfg, 16).sample(y, None, 30_000, SeedPath(11).stream())
    plain = ratq_quantizer(cfg).sample(y, None, 30_000, SeedPath(12).stream())
    assert abs((full**2).sum(1).mean() - (plain**2).sum(1).mean()) < 0.02
    assert np.linalg.norm(full.mean(0) - plain.mean(0)) < 0.05


def test_rcs_unbiased_and_second_moment_scaling():
    cfg = RatqConfig.for_subsampling(1.0, 64)
    y = unit_vector(13, 64)
    mu_d = 8
    recs = ratq_quantizer(cfg).sample(y, None, 40_000, SeedPath(14).stream())
    sub = rcs_wrap(cfg, mu_d).sample(y, None, 40_000, SeedPath(15).stream())
    se = sub.std(axis=0) / math.sqrt(len(sub))
    assert np.all(np.abs(sub.mean(axis=0) - y) <= 5 * se + 1e-12)
    ratio = (sub**2).sum(1).mean() / (recs**2).sum(1).mean()
    assert ratio == pytest.approx(64 / mu_d, rel=0.1)


def test_rcs_roundtrip_budget():
    cfg = RatqConfig.for_subsampling(1.0, 64)
    q = rcs_wrap(cfg, 5)
    y = unit_vector(16, 64)
    msg, rec = q.roundtrip(y, None, SeedPath(17))
    assert msg.nbits == q.bit_budget
    # centred on side = 0, the output is the zero-filled one
    _, rec_center = q.roundtrip(y, np.zeros(64), SeedPath(17))
    assert np.allclose(rec, rec_center)


def test_aratq_zero_and_overflow():
    cfg = AratqConfig.default(1.0, 32, T=1024)
    q = aratq_quantizer(cfg)
    _, rec = q.roundtrip(np.zeros(32), None, SeedPath(18))
    assert np.allclose(rec, 0.0)
    # gains beyond the top range decode to 0
    big = unit_vector(19, 32) * cfg.gain_ladder.ranges[-1] * 3
    _, rec = q.roundtrip(big, None, SeedPath(20))
    assert np.allclose(rec, 0.0)


def test_aratq_unbiased_in_range():
    cfg = AratqConfig.default(1.0, 32, T=1024)
    q = aratq_quantizer(cfg)
    y = unit_vector(21, 32) * 0.7
    recs = q.sample(y, None, 4000, SeedPath(22).stream())
    se = recs.std(axis=0) / math.sqrt(len(recs))
    assert np.all(np.abs(recs.mean(axis=0) - y) <= 6 * se + 0.01)


def test_aratq_budget_and_plus_mode():
    cfg = AratqConfig.default(1.0, 32, T=1024)
    gain_bits = cfg.gain_ladder.index_bits + math.ceil(math.log2(cfg.gain_levels[0] + 1))
    assert cfg.bit_budget == gain_bits + cfg.shape.bit_budget
    q = aratq_quantizer(cfg)
    msg, _ = q.roundtrip(unit_vector(23, 32) * 0.5, None, SeedPath(24))
    assert msg.nbits == cfg.bit_budget
    plus = AratqConfig.default(1.0, 32, T=1024, gain_mode="aguq_plus")
    assert plus.bit_budget is None
    qp = aratq_quantizer(plus)
    msg, rec = qp.roundtrip(unit_vector(25, 32) * 0.5, None, SeedPath(26))
    assert rec.shape == (32,)


def test_aratq_rejects_an_unknown_gain_mode():
    with pytest.raises(ValueError, match="unknown gain mode 'bogus'"):
        AratqConfig.default(1.0, 16, T=64, gain_mode="bogus")


def test_aratq_rejects_a_gain_index_past_the_ladder():
    # three gain ranges take a 2-bit index, so index 3 names no range
    base = AratqConfig.default(1.0, 32, T=1024)
    cfg = AratqConfig(1.0, 32, Ladder.geometric(1.0, 2.0, 3), base.gain_levels[:1] * 3, base.shape)
    q = aratq_quantizer(cfg)
    msg = q.encode(unit_vector(27, 32) * 0.5, None, SeedPath(28).stream())
    bits = msg.to01()
    bad = BitString().write_fields([1, 1] + [int(b) for b in bits[2:]], 1)
    with pytest.raises(MalformedStreamError, match="gain range index"):
        q.decode(bad, None, SeedPath(28).stream())


def test_simq_enumeration_exact():
    # analytic 3-outcome enumeration: E[decode] = y to 1e-12
    y = np.array([0.3, -0.2, 0.0])
    B = 1.0
    expect = np.zeros(3)
    for i in range(3):
        expect += (abs(y[i]) / B) * simq_decode((i + 1) * int(np.sign(y[i]) or 1), B, 3)
    assert np.max(np.abs(expect - y)) < 1e-12


def test_simq_distribution_and_corners():
    y = np.array([0.3, -0.2, 0.0])
    q = simq_quantizer(1.0, 3)
    rng = SeedPath(27).stream()
    n = 50_000
    recs = q.sample(y, None, n, rng)
    corners = {1: recs[:, 0] == 1.0, -2: recs[:, 1] == -1.0, 0: ~recs.any(axis=1)}
    assert sum(hit.sum() for hit in corners.values()) == n
    assert abs(corners[1].mean() - 0.3) < 0.01
    assert abs(corners[-2].mean() - 0.2) < 0.01
    assert abs(corners[0].mean() - 0.5) < 0.01
    assert not q.sample(np.zeros(3), None, 1, rng).any()
    corner = np.array([1.0, 0.0, 0.0])
    assert np.all(q.sample(corner, None, 50, rng) == corner)


def test_simq_rejects_and_budget():
    q = simq_quantizer(1.0, 4)
    with pytest.raises(ValueError, match=r"^l1 norm 4 exceeds bound B = 1$"):
        q.encode(np.ones(4), None, SeedPath(28).stream())
    msg, rec = q.roundtrip(np.array([0.2, -0.1, 0.0, 0.05]), None, SeedPath(29))
    assert msg.nbits == math.ceil(math.log2(9))
    assert np.linalg.norm(rec, ord=2) <= 1.0 + 1e-12


def _comb_rank(counts):
    """The combinadic rank by its definition: C(p_j, j + 1) summed over the
    slots p_j of the bars."""
    bars = np.cumsum(counts[:-1]) + np.arange(len(counts) - 1)
    return sum(math.comb(int(p), j + 1) for j, p in enumerate(bars))


def test_composition_ranking_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        parts = int(rng.integers(2, 8))
        k = int(rng.integers(1, 12))
        counts = rng.multinomial(k, np.ones(parts) / parts)
        rank = _rank_composition(counts)
        assert rank == _comb_rank(counts)
        assert np.array_equal(_unrank_composition(rank, k, parts), counts)
    # SimQ+ types at d = k = 256: k draws over d + 1 cells, including the
    # types with every draw in the first or in the last cell
    k, parts = 256, 257
    types = [rng.multinomial(k, rng.dirichlet(np.full(parts, a))) for a in (0.05, 1.0, 20.0)]
    types += [np.eye(parts, dtype=np.int64)[i] * k for i in (0, parts - 1)]
    for counts in types:
        rank = _rank_composition(counts)
        assert rank == _comb_rank(counts)
        assert rank < math.comb(k + parts - 1, parts - 1)
        assert np.array_equal(_unrank_composition(rank, k, parts), counts)


def test_simq_decoders_reject_out_of_range_codes():
    d = 4
    q = simq_quantizer(1.0, d)  # 4-bit codes; 9..15 name no corner
    with pytest.raises(ValueError, match="malformed"):
        q.decode(BitString().write_uint(2 * d + 1, 4), None, SeedPath(0).stream())
    cfg = SimqPlusConfig(1.0, d, 2.0, 2)  # C(6, 2) = 15 types in 4 bits
    assert cfg.type_bits == 4
    with pytest.raises(ValueError, match="malformed"):
        simq_plus_quantizer(cfg).decode(
            BitString().write_uint(math.comb(6, 2), 4), None, SeedPath(0).stream())
    with pytest.raises(ValueError, match="malformed"):
        _unrank_composition(math.comb(6, 2) + 3, 2, 5)


def test_simq_plus_l1_error_names_scale_and_b():
    cfg = SimqPlusConfig(1.0, 16, 2.0)  # scale B d^(1/p) = 4
    want = r"^l1 norm 16 exceeds bound B d\^\(1/p\) = 4 \(B = 1\)$"
    with pytest.raises(ValueError, match=want):
        simq_plus_quantizer(cfg).encode(np.ones(16), None, SeedPath(0).stream())
    with pytest.raises(ValueError, match=want):
        simq_plus_quantizer(cfg).sample(np.ones(16), None, 4, SeedPath(0).stream())


def test_simq_plus_exact_average_and_budget():
    cfg = SimqPlusConfig(1.0, 64, 2.0, 64)
    q = simq_plus_quantizer(cfg)
    y = unit_vector(30, 64)
    msg, rec = q.roundtrip(y, None, SeedPath(31))
    assert msg.nbits <= cfg.bit_budget <= math.floor(cfg.analytic_budget()) + 1
    # the encoder's type draw, scaled by the sampler: decode must equal the
    # exact average of the k draws
    avg = simq_plus_quantizer(cfg).sample(y, None, 1, SeedPath(31).stream())[0]
    assert np.allclose(rec, avg, atol=1e-12)


def test_lp_split_budget_within_the_analytic_budget_at_powers_of_two():
    """With d a power of two there is no padding, and the framed budget
    stays within the closed form; other d may exceed it (d = 100, p = 2:
    656 > 602)."""
    for d in (1 << e for e in range(1, 15)):
        for p in (1 + i / 20 for i in range(21)):
            cfg = LpSplitConfig(1.0, d, p)
            assert cfg.bit_budget <= cfg.analytic_budget(), (d, p)


def test_simq_plus_reduces_to_simq_at_k1():
    cfg = SimqPlusConfig(1.0, 8, 2.0, 1)
    q = simq_plus_quantizer(cfg)
    y = unit_vector(32, 8) * 0.5
    _, rec = q.roundtrip(y, None, SeedPath(33))
    nz = np.nonzero(rec)[0]
    assert len(nz) <= 1
    if len(nz):
        assert abs(abs(rec[nz[0]]) - cfg.scale) < 1e-12


def test_simq_plus_zero_vector():
    cfg = SimqPlusConfig(1.0, 4, 2.0, 4)
    q = simq_plus_quantizer(cfg)
    msg, rec = q.roundtrip(np.zeros(4), None, SeedPath(34))
    assert np.allclose(rec, 0.0)


def test_simq_plus_mse_bound():
    cfg = SimqPlusConfig(1.0, 64, 2.0, 64)
    y = unit_vector(35, 64)
    recs = simq_plus_quantizer(cfg).sample(y, None, 10_000, SeedPath(36).stream())
    mse = ((recs - y) ** 2).sum(axis=1).mean()
    assert mse <= cfg.d ** (2 / cfg.p) / cfg.k + 0.05


def test_lp_split_routing_and_unbiasedness():
    cfg = LpSplitConfig(1.0, 64, 1.5)
    q = lp_split_quantizer(cfg)
    # all small: pure CUQ path still roundtrips at the fixed budget
    small = np.full(64, cfg.threshold * 0.9 / 64 ** (1 / cfg.q))
    msg, _ = q.roundtrip(small, None, SeedPath(37))
    assert msg.nbits == cfg.bit_budget
    # one large coordinate lands in the masked RATQ part
    big = np.zeros(64)
    big[5] = 1.0
    assert 1.0 > cfg.threshold
    recs = q.sample(big, None, 3000, SeedPath(38).stream())
    se = recs.std(axis=0) / math.sqrt(len(recs))
    assert np.all(np.abs(recs.mean(axis=0) - big) <= 6 * se + 0.01)


def test_lp_split_zero_and_second_moment():
    cfg = LpSplitConfig(1.0, 32, 1.5)
    q = lp_split_quantizer(cfg)
    _, rec = q.roundtrip(np.zeros(32), None, SeedPath(39))
    assert np.allclose(rec, 0.0, atol=1e-12) or np.linalg.norm(rec) < 0.5
    qv = cfg.q
    rng = SeedPath(40).stream()
    sq = []
    for t in range(500):
        y = rng.normal(size=32)
        y /= np.sum(np.abs(y) ** qv) ** (1 / qv)
        _, rec = q.roundtrip(y, None, SeedPath(41).child("t", t))
        sq.append(np.sum(np.abs(rec) ** qv) ** (2 / qv))
    assert np.mean(sq) <= 12.0


@pytest.mark.parametrize("build, want", [
    (lambda: SimqPlusConfig(1.0, 8, 1.5), "SimQ\\+ covers p in \\[2, inf\\]"),
    (lambda: LpSplitConfig(1.0, 8, 0.5), "split quantizer covers p in \\[1, 2\\]"),
    (lambda: LpSplitConfig(1.0, 8, 2.5), "split quantizer covers p in \\[1, 2\\]"),
])
def test_configs_reject_p_outside_their_range(build, want):
    with pytest.raises(ValueError, match=want):
        build()


def test_lp_split_rejects_more_large_coordinates_than_the_restriction_holds():
    """At p = 1 the threshold is B itself, so rows inside the norm slack may
    put every coordinate above it: more than the RATQ restriction's d_large
    slots, rejected before any draw."""
    cfg = LpSplitConfig(1.0, 16, 1.0)
    y = np.full(16, 1.0 + 5e-10)
    rng = SeedPath(47).stream()
    state = rng.bit_generator.state
    want = f"more than {cfg.ratq_cfg.d} coordinates above the threshold 1"
    with pytest.raises(ValueError, match=want):
        lp_split_quantizer(cfg).sample(y, None, 2, rng)
    assert rng.bit_generator.state == state


def test_lp_split_p1_pure_cuq():
    cfg = LpSplitConfig(1.0, 16, 1.0)
    assert cfg.threshold == 1.0  # q = inf: no coordinate can exceed it
    q = lp_split_quantizer(cfg)
    y = np.clip(SeedPath(42).stream().normal(size=16), -1, 1)
    msg, rec = q.roundtrip(y, None, SeedPath(43))
    assert msg.nbits == cfg.bit_budget


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_lp_split_tiny_dimensions(d, p):
    # log h = 0 below d = 4; the split's RATQ depth clamps it to 1 as RATQ does
    cfg = LpSplitConfig(1.0, d, p)
    assert cfg.delta2 == 0
    q = lp_split_quantizer(cfg)
    y = np.zeros(d)
    y[0] = 0.9
    for t in range(5):
        msg, rec = q.roundtrip(y, None, SeedPath(44).child("t", t))
        assert msg.nbits == cfg.bit_budget
        assert rec.shape == (d,) and np.all(np.isfinite(rec))


def test_atuq_vector_apply_matches_variance_contract():
    cfg = RatqConfig(1.0, 64, 2, 7, RatqConfig.default(1.0, 64).ladder)
    xs = SeedPath(44).stream().normal(size=(200, 64)) * 0.05
    rec = atuq_vector_apply(xs, cfg, SeedPath(45).stream())
    assert rec.shape == xs.shape
    assert ((rec - xs) ** 2).mean() < 0.01


def _atuq_reference(ys, u, cfg):
    """Unrotated ATUQ by its definition, one length-s subvector at a time,
    the last one shorter when s does not divide d: the subvector's range is
    the smallest finite ladder range that covers its largest |coordinate|
    (the largest finite range when none does), and each coordinate rounds
    on it with its own uniform."""
    finite = [r for r in cfg.ladder.ranges if math.isfinite(r)]
    out = np.empty_like(ys)
    for row in range(len(ys)):
        for lo in range(0, cfg.d, cfg.s):
            sub = slice(lo, min(lo + cfg.s, cfg.d))
            widest = np.abs(ys[row, sub]).max()
            M = next((r for r in finite if r >= widest), finite[-1])
            out[row, sub] = cuq_levels(cuq_round_with(ys[row, sub], M, cfg.k, u[row, sub]), M, cfg.k)
    return out


@pytest.mark.parametrize("d", [5, 7])
def test_atuq_vector_apply_pads_a_short_last_subvector(d):
    """`gaussian_rd_config` picks s = 2 here, so the last subvector has one
    coordinate; the kernel pads it with zeros, which change no range pick."""
    cfg = gaussian_rd_config(1.0, 1 / 16, d)[0]
    assert cfg.s == 2 and d % cfg.s
    ys = SeedPath(48).stream().normal(scale=2.0, size=(300, d))
    rec = atuq_vector_apply(ys, cfg, SeedPath(49).stream())
    u = SeedPath(49).stream().random((300, d))  # the kernel's one noise draw
    assert np.array_equal(rec, _atuq_reference(ys, u, cfg))


def test_atuq_vector_apply_rejects_rows_of_another_length():
    cfg = RatqConfig.default(1.0, 64)
    rng = SeedPath(46).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^input rows have length 40, expected 64$"):
        atuq_vector_apply(np.zeros((2, 40)), cfg, rng)
    assert rng.bit_generator.state == state
