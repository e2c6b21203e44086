"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities when the assertions hold."""

import math
import time

import numpy as np

from qtc.aoi import (
    age_cost,
    average_age,
    average_age_randomized,
    build_prefix_code,
    delay_cost,
    entropy,
    kl_divergence,
    kraft_sum,
    lp_norm_variational,
    optimize_age,
    optimize_delay,
    shannon_lengths,
    simulate_update_scheme,
    variational_maximizer,
    zipf_pmf,
)
from qtc.core import SeedPath
from qtc.dme import DmeInstance, configure, run_dme
from qtc.optim import Domain, psgd_run, quadratic_oracle
from qtc.scalar import ModuloParams, gaussian_wz_run, mq_decode
from qtc.sideinfo import RdaqConfig, boosted_rdaq_sample
from qtc.vector import (
    RatqConfig,
    SimqPlusConfig,
    gaussian_rd_run,
    ratq_quantizer,
    simq_decode,
    simq_plus_quantizer,
)


def ok(num, detail):
    print(f"\nACCEPT-{num:02d} PASS: {detail}")


def unit_vector(seed, d):
    y = SeedPath(seed).stream().normal(size=d)
    return y / np.linalg.norm(y)


def test_criterion_01_cuq_exact_unbiasedness():
    t0 = time.time()
    worst = 0.0
    for M, k in [(1.0, 2), (1.0, 5), (2.0, 9)]:
        lo, spacing = -M, 2 * M / (k - 1)
        ys = np.linspace(-M, M, 1000)
        t = (ys - lo) / spacing
        lower = np.clip(np.ceil(t) - 1, 0, k - 2)
        p_up = t - lower
        lo_val = lo + lower * spacing
        expect = p_up * (lo_val + spacing) + (1 - p_up) * lo_val
        worst = max(worst, float(np.max(np.abs(expect - ys))))
    assert worst < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    ok(1, f"analytic E[decode] error {worst:.2e} < 1e-12 across 3 grids ({elapsed:.2f}s)")


def test_criterion_02_mq_recovery_sweep():
    t0 = time.time()
    delta = 1.0
    xs = np.arange(-10.0, 10.0 + 1e-12, 0.01)
    shifts = np.linspace(-delta, delta, 41)
    checked = 0
    for k in (4, 8, 16):
        params = ModuloParams(k, delta)
        for branch in (np.floor, np.ceil):
            z = branch(xs / params.eps)
            w = np.mod(z, k).astype(np.int64)
            for shift in shifts:
                ys = xs + shift
                rec = mq_decode(w, ys, params)
                assert np.allclose(rec, z * params.eps, atol=1e-9)
                assert np.all(np.abs(rec - ys) <= k * params.eps + 1e-9)
                checked += len(xs)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    ok(2, f"zero violations over {checked} branch evaluations ({elapsed:.1f}s)")


def test_criterion_03_ratq_second_moment():
    t0 = time.time()
    d, B, trials = 128, 1.0, 100_000
    cfg = RatqConfig.default(B, d)
    q = ratq_quantizer(cfg)
    bound = cfg.alpha2**2
    worst_ratio, worst_bias_ratio = 0.0, 0.0
    for i in range(20):
        y = unit_vector(1000 + i, d)
        recs = q.sample(y, None, trials, SeedPath(2000 + i).stream())
        sq = np.einsum("td,td->t", recs, recs)
        second = sq.mean()
        sigma = sq.std(ddof=1) / math.sqrt(trials)
        assert second <= bound + 3 * sigma
        worst_ratio = max(worst_ratio, second / (bound + 3 * sigma))
        bias = np.linalg.norm(recs.mean(axis=0) - y)
        band = 4 * math.sqrt(float(recs.var(axis=0).sum()) / trials)
        assert bias <= band
        worst_bias_ratio = max(worst_bias_ratio, bias / band)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    ok(3, f"E||Q||^2 <= {bound:.4f}+3sig on 20 vectors (worst ratio {worst_ratio:.3f}), "
          f"bias within 4sig band (worst {worst_bias_ratio:.2f}) ({elapsed:.0f}s)")


def test_criterion_04_ratq_bit_budget_exact():
    d = 256
    delta2 = math.ceil(math.log2(1 + 3))  # log*(256/3) = 3
    delta1 = math.ceil(math.log2(2 + math.sqrt(9 + 3 * math.log(delta2))))
    assert (delta1, delta2) == (3, 2)
    limit = d * (1 + delta1) + delta2
    cfg = RatqConfig.default(1.0, d)
    q = ratq_quantizer(cfg)
    for t in range(200):
        msg, _ = q.roundtrip(unit_vector(3000 + t, d), None, SeedPath(4000).child("t", t))
        assert msg.nbits == cfg.bit_budget
        assert msg.nbits <= limit
    ok(4, f"200 messages of exactly {cfg.bit_budget} bits <= d(1+D1)+D2 = {limit}")


def test_criterion_05_simq_and_simq_plus():
    # SimQ: analytic 3-outcome enumeration
    y = np.array([0.3, -0.2, 0.0])
    expect = np.zeros(3)
    for i in range(3):
        if y[i] != 0:
            expect += (abs(y[i]) / 1.0) * simq_decode((i + 1) * int(np.sign(y[i])), 1.0, 3)
    assert np.max(np.abs(expect - y)) < 1e-12
    # SimQ+: d = 64, p = 2, k = 64
    cfg = SimqPlusConfig(1.0, 64, 2.0, 64)
    yv = unit_vector(5000, 64)
    q = simq_plus_quantizer(cfg)
    recs = q.sample(yv, None, 10_000, SeedPath(5001).stream())
    err = np.einsum("td,td->t", recs - yv, recs - yv)
    mse, sigma = err.mean(), err.std(ddof=1) / math.sqrt(len(err))
    mse_bound = cfg.d ** (2 / cfg.p) * 1.0 / cfg.k
    assert mse <= mse_bound + 3 * sigma
    budget = cfg.k * math.log2(math.e) + cfg.k * math.log2(cfg.d / cfg.k + 1) + cfg.k
    for t in range(50):
        msg, _ = q.roundtrip(yv, None, SeedPath(5002).child("t", t))
        assert msg.nbits <= budget
    ok(5, f"SimQ enumeration exact; SimQ+ MSE {mse:.4f} <= {mse_bound}+3sig, "
          f"messages <= {budget:.1f} bits")


def test_criterion_06_wz_known_delta():
    t0 = time.time()
    n, d, r, trials = 100, 256, 32, 10_000
    for delta in (0.1, 1.0):
        xs = SeedPath(6000).stream().normal(size=(n, d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        us = SeedPath(6001).stream().normal(size=(n, d))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        ys = xs + delta * us
        quants, bound = configure("known-delta", n, d, r, [delta] * n)
        inst = DmeInstance(xs, ys, np.full(n, delta), r)
        res = run_dme(inst, quants, SeedPath(6002), trials)
        assert res.mse <= bound + res.band
        print(f"  delta={delta}: mse={res.mse:.5f} bound={bound:.5f}")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(6, f"protocol MSE within the known-distance bound at both deltas ({elapsed:.0f}s)")


def test_criterion_07_rdaq_adaptivity_and_boosting():
    t0 = time.time()
    d, trials = 64, 20_000
    cfg = RdaqConfig(d)
    deltas = [0.01, 0.1, 1.0]
    mses = []
    for i, delta in enumerate(deltas):
        x = unit_vector(7000 + i, d) * (1 - delta / 2 if delta < 1 else 0.0)
        u = unit_vector(7100 + i, d)
        y = x + delta * u
        if np.linalg.norm(y) > 1:  # keep both points inside the unit ball
            x = x * 0.0
            y = delta * u
        recs = boosted_rdaq_sample(x, y, cfg, trials, SeedPath(7200 + i).stream())
        err = np.einsum("td,td->t", recs - x, recs - x)
        mse, sigma = err.mean(), err.std(ddof=1) / math.sqrt(trials)
        assert mse <= 16 * math.sqrt(3) * delta + 3 * sigma
        mses.append(mse)
    slope = np.polyfit(np.log10(deltas), np.log10(mses), 1)[0]
    assert abs(slope - 1.0) <= 0.15
    # boosting: doubling N halves the MSE within 20%
    xb = unit_vector(7300, d) * 0.8
    yb = xb + 0.3 * unit_vector(7301, d)
    yb /= max(1.0, np.linalg.norm(yb))
    boosted = []
    for N in (1, 2, 4, 8):
        recs = boosted_rdaq_sample(xb, yb, RdaqConfig(d, N=N), trials,
                                   SeedPath(7400).child("N", N).stream())
        boosted.append(np.einsum("td,td->t", recs - xb, recs - xb).mean())
    for a, b in zip(boosted, boosted[1:]):
        assert abs(b / a - 0.5) <= 0.1
    elapsed = time.time() - t0
    ok(7, f"MSE slope {slope:.3f} in 1.0+-0.15, bounds hold, halving ratios "
          f"{[f'{b/a:.3f}' for a, b in zip(boosted, boosted[1:])]} ({elapsed:.0f}s)")


def test_criterion_08_dme_no_side_info():
    # bound: (6 + 2 ceil(log2(1 + log*(d/3)))) * d/(n r)
    t0 = time.time()
    n, d, trials = 10, 256, 10_000
    xs = SeedPath(8000).stream().normal(size=(n, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    results = []
    for r in (16, 32, 64):
        quants, bound = configure("no-side-info", n, d, r)
        inst = DmeInstance(xs, None, None, r)
        res = run_dme(inst, quants, SeedPath(8001).child("r", r), trials)
        assert res.mse <= bound + res.band
        results.append((r, res.mse, res.band, bound))
    for (r1, m1, b1, _), (r2, m2, b2, _) in zip(results, results[1:]):
        assert m2 <= m1 + b1 + b2  # monotone within bands
    elapsed = time.time() - t0
    detail = ", ".join(f"r={r}: {m:.3f}<={b:.1f}" for r, m, _, b in results)
    ok(8, f"{detail}; MSE monotone in r ({elapsed:.0f}s)")


def test_criterion_09_gaussian_rate_distortion():
    t0 = time.time()
    v, D, d, blocks = 1.0, 1 / 16, 4096, 1000
    rng = SeedPath(9000).stream()
    mse, rate = gaussian_rd_run(v, D, d, blocks, rng)
    assert mse <= D
    assert rate <= 0.5 * math.log2(v / D) + 6
    mse_l, _ = gaussian_rd_run(v, D, d, blocks, SeedPath(9001).stream(), source="laplace")
    assert mse_l <= D
    elapsed = time.time() - t0
    assert elapsed < 120.0
    ok(9, f"per-dim MSE {mse:.4f} (gauss) / {mse_l:.4f} (laplace) <= {D}; "
          f"rate {rate:.2f} <= {0.5*math.log2(v/D)+6:.1f} bits/dim ({elapsed:.0f}s)")


def test_criterion_10_gaussian_wyner_ziv():
    t0 = time.time()
    sigma_z = 0.1
    D = sigma_z**2 / 400
    d, blocks = 4096, 1000
    mse, log_k = gaussian_wz_run(sigma_z, D, d, blocks, SeedPath(10_000).stream())
    assert mse * d <= d * D  # total MSE <= dD
    assert log_k <= 0.5 * math.log2(sigma_z**2 / D) + 8
    elapsed = time.time() - t0
    ok(10, f"per-dim MSE {mse:.2e} <= {D:.2e}; rate {log_k} <= "
           f"{0.5*math.log2(sigma_z**2/D)+8:.2f} bits/dim ({elapsed:.0f}s)")


def test_criterion_11_quantized_psgd():
    t0 = time.time()
    d, B, T, reps = 32, 2.0, 2**12, 50
    x0 = np.zeros(d)
    x0[0] = 0.5
    oracle = quadratic_oracle(x0, 0.5, B)
    dom = Domain("l2_ball", 1.0)
    cfg = RatqConfig.default(B, d)
    ratq = ratq_quantizer(cfg)
    qfun = lambda g, rng: ratq.sample(g, None, len(g), rng)
    x_init = np.zeros(d)
    x_init[1] = 0.9
    conv = psgd_run(oracle, qfun, dom, T, seed=SeedPath(11_000), reps=reps,
                    x_init=x_init, alpha2=cfg.alpha2)
    conv_bound = math.sqrt(2) * dom.diameter * B / math.sqrt(T) * 1.2
    assert conv.mean_final_gap <= conv_bound
    sc = psgd_run(oracle, qfun, dom, T, gamma=1.0, seed=SeedPath(11_001), reps=reps,
                  x_init=x_init, alpha2=cfg.alpha2)
    sc_bound = 2 * B**2 / T * 1.5
    assert sc.mean_final_gap <= sc_bound
    elapsed = time.time() - t0
    ok(11, f"convex gap {conv.mean_final_gap:.4f} <= {conv_bound:.4f}; strongly convex "
           f"{sc.mean_final_gap:.5f} <= {sc_bound:.5f} ({elapsed:.0f}s)")


def test_criterion_12_age_formula_vs_simulation():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst_z = 0.0
    for i in range(20):
        m = int(rng.integers(3, 24))
        p = rng.dirichlet(np.ones(m) * 0.8)
        p = np.maximum(p, 1e-5)
        p /= p.sum()
        lengths = shannon_lengths(p, "integer")
        res = simulate_update_scheme(lengths, p, 10**6, SeedPath(12_000).child("i", i))
        diff = abs(res.avg_age - average_age(lengths, p))
        # near-deterministic codes can yield identical cycles (se = 0); the
        # only remaining discrepancy is the O(1/T) horizon-truncation edge
        assert diff <= max(3.0 * res.se, 1e-3)
        if res.se > 0:
            worst_z = max(worst_z, diff / res.se)
    const = simulate_update_scheme(np.full(4, 3), np.full(4, 0.25), 10**6, SeedPath(12_100))
    assert abs(const.avg_age - 4.0) <= 0.05
    elapsed = time.time() - t0
    ok(12, f"20 pmf/code pairs within 3 renewal CIs (worst z = {worst_z:.2f}); "
           f"constant code {const.avg_age:.4f} = 4.0 +- 0.05 ({elapsed:.0f}s)")


def test_criterion_13_tilted_age_optimizer():
    t0 = time.time()
    tol = 1e-6
    improvements = {}
    for s10 in range(0, 51, 5):
        s = s10 / 10.0
        p = zipf_pmf(s, 256)
        sol = optimize_age(p, tol=tol)
        assert sol.certified, f"s={s}: certificate gap {sol.certificate_gap:.2e}"
        age_p = average_age(shannon_lengths(p, "real"), p)
        age_star = average_age(sol.lengths, p)
        assert age_star <= age_p + 1e-9
        improvements[s] = age_p - age_star
        if s >= 3.0:
            assert improvements[s] > 1e-6  # strict improvement
    # the heavy-head/long-tail two-level pmf at n = 16: costs compared in the
    # optimizer's E[L] + E[L^2]/(2 E[L]) convention against the asymptotic
    # value (n + 2 log n)/2 of its own-pmf Shannon lengths
    n = 16
    p = np.array([1 - 1 / n] + [1 / (n * 2**n)] * (2**n))
    cost_p = age_cost(shannon_lengths(p, "real"), p)
    target = (n + 2 * math.log2(n)) / 2
    assert abs(cost_p - target) / target <= 0.15
    q_alt = np.array([2.0 ** -math.sqrt(n)] + [(1 - 2.0 ** -math.sqrt(n)) / 2**n] * (2**n))
    cost_q = age_cost(-np.log2(q_alt), p)
    sol = optimize_age(p, tol=tol)
    assert sol.certified
    assert sol.value <= cost_q + 0.5
    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(13, f"11 Zipf points certified at {tol}; gaps at s>=3: "
           f"{[f'{improvements[s]:.2f}' for s in (3.0, 4.0, 5.0)]}; two-level example "
           f"cost {cost_p:.3f} ~ {target} and optimum {sol.value:.3f} <= {cost_q:.3f}+0.5 "
           f"({elapsed:.0f}s)")


def test_criterion_14_randomized_scheme_example():
    p = np.array([1 / 4] * 3 + [1 / 244] * 61)
    theta = np.array([1.0] * 3 + [0.0] * 61)
    age = average_age_randomized(np.full(64, 2.0), theta, 2.0, p)
    assert abs(age - 3.17) <= 0.01
    det_lb = 1.5 * entropy(p) - 0.5
    assert abs(det_lb - 4.724) <= 0.01
    assert age < det_lb
    ok(14, f"randomized age {age:.4f} = 3.17 +- 0.01 < deterministic bound {det_lb:.4f}")


def test_criterion_15_min_delay_optimizer():
    t0 = time.time()
    rng = np.random.default_rng(15)
    kl_cap = math.log2(1 + 1 / math.sqrt(2)) + 1e-6
    worst_kl, worst_dev = 0.0, 0.0
    for i in range(10):
        m = int(rng.integers(4, 40))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        l_th = 2 * entropy(p) + 2
        sol = optimize_delay(p, l_th)
        assert sol.certified
        kl = kl_divergence(p, sol.p_star)
        assert kl <= kl_cap
        dev = abs(delay_cost(sol.lengths, p, l_th) - sol.value)
        assert dev <= 1e-6
        worst_kl = max(worst_kl, kl)
        worst_dev = max(worst_dev, dev)
    elapsed = time.time() - t0
    ok(15, f"10 pmfs certified; worst KL {worst_kl:.4f} <= {kl_cap:.4f}, worst closed-form "
           f"deviation {worst_dev:.2e} ({elapsed:.0f}s)")


def test_criterion_16_variational_formula():
    rng = np.random.default_rng(16)
    worst_eq = 0.0
    for i in range(1000):
        m = int(rng.integers(2, 16))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        x = rng.uniform(0.05, 5.0, size=m)
        pe = (1.5, 2.0, 3.0)[i % 3]
        norm = float((p @ x**pe) ** (1 / pe))
        val = lp_norm_variational(x, p, pe, variational_maximizer(x, p, pe))
        worst_eq = max(worst_eq, abs(val - norm))
        assert abs(val - norm) <= 1e-9
        q = rng.dirichlet(np.ones(m))
        assert lp_norm_variational(x, p, pe, q) <= norm + 1e-9
    ok(16, f"1000 instances: maximizer matches ||X||_p (worst dev {worst_eq:.1e}), "
           f"1000 random Q never exceed it")


def test_criterion_17_prefix_code_soundness():
    rng = np.random.default_rng(17)
    assignments = []
    for s10 in range(0, 51, 10):
        p = zipf_pmf(s10 / 10.0, 64)
        assignments.append(shannon_lengths(p, "integer"))
        sol = optimize_age(p)
        assignments.append(np.maximum(1, np.ceil(sol.lengths - 1e-9)).astype(int))
    for _ in range(10):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 40))))
        p = np.maximum(p, 1e-7)
        p /= p.sum()
        assignments.append(shannon_lengths(p, "integer"))
    for lengths in assignments:
        assert kraft_sum(lengths) <= 1 + 1e-12
        words = [c.to01() for c in build_prefix_code(lengths)]
        assert len(set(words)) == len(words)
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)
    ok(17, f"{len(assignments)} length assignments Kraft-feasible and prefix-free")
