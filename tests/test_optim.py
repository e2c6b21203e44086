import math
from types import SimpleNamespace

import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.optim import (
    Domain,
    GradientOracle,
    hard_instance_oracle,
    l1_phase_scheme,
    mirror_descent_run,
    one_bit_sign_quantize,
    psgd_run,
    quadratic_oracle,
)
from qtc.vector import RatqConfig, ratq_quantizer


def test_domain_projection():
    ball = Domain("l2_ball", 1.0)
    assert np.allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])
    box = Domain("linf_box", 0.5)
    assert np.allclose(box.project(np.array([2.0, -0.2])), [0.5, -0.2])
    with pytest.raises(ValueError):
        Domain("simplex", 1.0)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            Domain("l2_ball", radius)


def test_runs_reject_bad_parameters_before_drawing():
    d = 4
    oracle = quadratic_oracle(np.zeros(d), 0.3, 1.0)
    dom = Domain("l2_ball", 1.0)
    rng = SeedPath(17).stream()
    state = rng.bit_generator.state
    seed = SimpleNamespace(stream=lambda: rng)  # a SeedPath whose stream is rng
    runs = [(lambda: psgd_run(oracle, None, dom, 0, seed=seed, x_init=np.zeros(d)),
             "at least one step")]
    for p in (0.5, 2.5):
        runs.append((lambda p=p: mirror_descent_run(oracle, None, dom, 8, p, seed=seed,
                                                    x_init=np.zeros(d)), "p in \\[1, 2\\]"))
    for r in (0, d + 1):
        runs.append((lambda r=r: l1_phase_scheme(oracle, r, 8, dom, seed=seed,
                                                 x_init=np.zeros(d)), "r must lie in 1..d"))
    for T in (0, -5):
        runs.append((lambda T=T: l1_phase_scheme(oracle, 2, T, dom, seed=seed,
                                                 x_init=np.zeros(d)), "at least one step"))
    for run, want in runs:
        with pytest.raises(ValueError, match=want):
            run()
    assert rng.bit_generator.state == state


def test_identity_psgd_classical_rate():
    d, B, T = 16, 2.0, 1024
    x0 = np.zeros(d)
    x0[0] = 0.4
    oracle = quadratic_oracle(x0, 0.5, B)
    dom = Domain("l2_ball", 1.0)
    res = psgd_run(oracle, None, dom, T, seed=SeedPath(0), reps=8,
                   x_init=np.eye(d)[1] * 0.9)
    assert res.mean_final_gap <= dom.diameter * B / math.sqrt(T)


def test_quantized_psgd_within_stated_bound():
    d, B, T = 16, 2.0, 1024
    x0 = np.zeros(d)
    x0[0] = 0.4
    oracle = quadratic_oracle(x0, 0.5, B)
    dom = Domain("l2_ball", 1.0)
    cfg = RatqConfig.default(B, d)
    ratq = ratq_quantizer(cfg)
    res = psgd_run(oracle, lambda g, rng: ratq.sample(g, None, len(g), rng), dom, T,
                   seed=SeedPath(1), reps=8, x_init=np.eye(d)[1] * 0.9, alpha2=cfg.alpha2)
    assert res.mean_final_gap <= math.sqrt(2) * dom.diameter * B / math.sqrt(T)


def test_strongly_convex_rate():
    d, B, T = 16, 2.0, 2048
    x0 = np.zeros(d)
    x0[0] = 0.4
    oracle = quadratic_oracle(x0, 0.5, B)
    dom = Domain("l2_ball", 1.0)
    res = psgd_run(oracle, None, dom, T, gamma=1.0, seed=SeedPath(2), reps=8,
                   x_init=np.eye(d)[1] * 0.9)
    assert res.mean_final_gap <= 2 * B**2 / T


def test_mirror_p2_is_psgd_bitwise():
    d = 8
    oracle = quadratic_oracle(np.zeros(d), 0.3, 1.5)
    dom = Domain("l2_ball", 1.0)
    xi = np.eye(d)[0] * 0.5
    a = psgd_run(oracle, None, dom, 64, seed=SeedPath(3), reps=3, x_init=xi)
    b = mirror_descent_run(oracle, None, dom, 64, 2.0, seed=SeedPath(3), reps=3, x_init=xi)
    assert np.array_equal(a.avg_iterate, b.avg_iterate)
    assert np.array_equal(a.gap_trace, b.gap_trace)


def test_zero_gradient_keeps_iterates():
    d = 8
    oracle = GradientOracle(
        lambda x, rng: np.zeros_like(np.atleast_2d(x)), 1.0,
        lambda x: np.zeros(np.atleast_2d(x).shape[0]), 0.0,
    )
    dom = Domain("l2_ball", 1.0)
    xi = np.eye(d)[0] * 0.5
    res = mirror_descent_run(oracle, None, dom, 32, 1.3, seed=SeedPath(4), reps=1, x_init=xi)
    assert np.allclose(res.avg_iterate, xi, atol=1e-12)


def test_determinism_same_seed():
    oracle = quadratic_oracle(np.zeros(4), 0.2, 1.0)
    dom = Domain("l2_ball", 1.0)
    xi = np.array([0.3, 0.0, 0.0, 0.0])
    a = psgd_run(oracle, None, dom, 50, seed=SeedPath(5), reps=2, x_init=xi)
    b = psgd_run(oracle, None, dom, 50, seed=SeedPath(5), reps=2, x_init=xi)
    assert np.array_equal(a.gap_trace, b.gap_trace)


def test_convergence_rate_slope():
    # a purely convex (piecewise-linear) instance shows the 1/sqrt(T) decay
    d, B = 16, 1.0
    v = np.sign(SeedPath(60).stream().normal(size=d))
    oracle = hard_instance_oracle(v, 1 / 6, B, 2.0, D=1.0)
    dom = Domain("l2_ball", 0.5)
    gaps = []
    horizons = [2**8, 2**10, 2**12, 2**14]
    for T in horizons:
        res = psgd_run(oracle, None, dom, T, seed=SeedPath(6).child("T", T), reps=16,
                       x_init=np.zeros(d))
        gaps.append(res.mean_final_gap)
    slope = np.polyfit(np.log2(horizons), np.log2(gaps), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_one_bit_quantizer_unbiased_and_extremes():
    rng = SeedPath(7).stream()
    g = np.full(50_000, 0.25)
    out = one_bit_sign_quantize(g, 1.0, rng)
    assert set(np.unique(out)) <= {-1.0, 1.0}
    assert out.mean() == pytest.approx(0.25, abs=0.02)
    assert np.all(one_bit_sign_quantize(np.full(10, 1.0), 1.0, rng) == 1.0)
    with pytest.raises(ValueError):
        one_bit_sign_quantize(np.array([2.0]), 1.0, rng)


def test_hard_instance_oracle_contract():
    d, B, delta, p = 8, 1.5, 0.1, 1.5
    v = np.sign(SeedPath(8).stream().normal(size=d))
    oracle = hard_instance_oracle(v, delta, B, p)
    q = p / (p - 1)
    g = oracle.query(np.zeros((2000, d)), SeedPath(9).stream())
    norms = np.sum(np.abs(g) ** q, axis=1) ** (1 / q)
    assert np.allclose(norms, B)
    scale = B / d ** (1 / q)
    mean = oracle.query(np.zeros((100_000, d)), SeedPath(10).stream()).mean(axis=0)
    target = -2 * B * delta * v / d ** (1 / q)
    assert np.abs(mean - target).max() < 5 * scale / math.sqrt(100_000)
    with pytest.raises(ValueError):
        hard_instance_oracle(v, 0.3, B, p)
    sym = hard_instance_oracle(v, 0.0, B, p)
    m0 = sym.query(np.zeros((50_000, d)), SeedPath(11).stream()).mean(axis=0)
    assert np.abs(m0).max() < 5 * scale / math.sqrt(50_000)


def test_phase_estimate_unbiased_enumeration():
    # d = 2, r = 1: one phase covers both coordinates through the permutation
    d, B = 2, 1.0
    const_g = np.array([0.3, -0.7])
    oracle = GradientOracle(
        lambda x, rng: np.tile(const_g, (np.atleast_2d(x).shape[0], 1)), B,
        lambda x: np.atleast_2d(x) @ const_g, -np.abs(const_g).sum(),
    )
    rng = SeedPath(12).stream()
    est_sum = np.zeros(d)
    n = 40_000
    for _ in range(n):
        sigma = rng.permutation(d)
        est = np.zeros(d)
        for i in range(d):
            g = oracle.query(np.zeros((1, d)), rng)[0]
            c = sigma[i]
            est[c] = one_bit_sign_quantize(g[c : c + 1], B, rng)[0]
        est_sum += est
    assert np.abs(est_sum / n - const_g).max() < 0.02


def test_phase_scheme_runs_and_improves():
    d, B = 8, 1.0
    v = np.ones(d)
    oracle = hard_instance_oracle(v, 1 / 6, B, 1.0, D=1.0)
    dom = Domain("linf_box", 1.0 / (2 * d))
    res = l1_phase_scheme(oracle, 4, 2048, dom, seed=SeedPath(13), reps=4,
                          x_init=np.zeros(d))
    assert res.gap_trace[-1] <= res.gap_trace[0] + 1e-9
    assert res.final_gaps.mean() < oracle.f(np.zeros((1, d)))[0] - oracle.f_min + 1e-9


def test_quantizer_composition_preserves_unbiasedness():
    d = 16
    g_fixed = SeedPath(14).stream().normal(size=d)
    g_fixed /= np.linalg.norm(g_fixed)
    cfg = RatqConfig.default(1.0, d)
    outs = ratq_quantizer(cfg).sample(np.tile(g_fixed, (40_000, 1)), None, 40_000,
                                      SeedPath(15).stream())
    se = outs.std(axis=0) / math.sqrt(len(outs))
    assert np.all(np.abs(outs.mean(axis=0) - g_fixed) <= 5 * se + 1e-12)


def test_divergence_detection():
    d = 4
    oracle = GradientOracle(
        lambda x, rng: np.full(np.atleast_2d(x).shape, np.nan), 1.0,
        lambda x: np.zeros(np.atleast_2d(x).shape[0]), 0.0,
    )
    with pytest.raises(FloatingPointError):
        psgd_run(oracle, None, Domain("l2_ball", 1.0), 4, seed=SeedPath(16),
                 reps=1, x_init=np.zeros(d))
