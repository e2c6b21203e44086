import numpy as np
import pytest

from qtc.core import Quantizer, SeedPath
from qtc.dme import (
    DmeInstance,
    configure,
    configure_known_delta,
    configure_no_side_info,
    configure_unknown_delta,
    run_dme,
    theoretical_bound,
)
from qtc.sideinfo import daq_quantizer, wz_known_quantizer
from qtc.vector import RatqConfig, rcs_wrap, simq_quantizer


def unit_rows(seed, n, d):
    xs = SeedPath(seed).stream().normal(size=(n, d))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


def in_ball(ys):
    """Rows projected onto the unit ball, the domain of DAQ; the projection
    is nonexpansive, so no row moves farther from a unit-ball x."""
    return ys / np.maximum(1.0, np.linalg.norm(ys, axis=1, keepdims=True))


def test_identity_recovery_with_daq():
    n, d = 4, 16
    xs = unit_rows(0, n, d) * 0.5
    inst = DmeInstance(xs, xs.copy(), np.zeros(n), r=d)
    quants = [daq_quantizer(d) for _ in range(n)]
    res = run_dme(inst, quants, SeedPath(1), trials=20)
    assert res.mse == 0.0
    assert res.delta_violations == 0


def test_single_client_matches_quantizer_mse():
    d = 32
    xs = unit_rows(2, 1, d)
    ys = in_ball(xs + 0.2 * unit_rows(3, 1, d))
    inst = DmeInstance(xs, ys, np.array([0.2]), r=d)
    q = daq_quantizer(d)
    res = run_dme(inst, [q], SeedPath(4), trials=4000)
    direct = q.sample(xs[0], ys[0], 4000, SeedPath(9).stream())
    direct_mse = ((direct - xs[0]) ** 2).sum(axis=1).mean()
    assert res.mse == pytest.approx(direct_mse, rel=0.1)


def test_protocol_mse_decomposition():
    # for unbiased quantizers protocol MSE ~ (1/n) single-client MSE
    n, d, delta = 8, 32, 0.3
    xs = unit_rows(5, n, d)
    ys = in_ball(xs + delta * unit_rows(6, n, d))
    inst = DmeInstance(xs, ys, np.full(n, delta), r=d)
    q = daq_quantizer(d)
    res = run_dme(inst, [q] * n, SeedPath(7), 4000)
    singles = [
        ((q.sample(xs[i], ys[i], 2000, SeedPath(100 + i).stream()) - xs[i]) ** 2)
        .sum(axis=1)
        .mean()
        for i in range(n)
    ]
    assert res.mse == pytest.approx(np.mean(singles) / n, rel=0.15)


def test_budget_overflow_reported_with_client():
    d = 16
    xs = unit_rows(8, 2, d)
    inst = DmeInstance(xs, None, None, r=4)
    cfg = RatqConfig.for_subsampling(1.0, d)
    quants = [rcs_wrap(cfg, 2) for _ in range(2)]  # 2*(2+3) = 10 > 4 bits
    with pytest.raises(ValueError, match="client 0"):
        run_dme(inst, quants, SeedPath(9), 5)


def test_configure_no_side_info():
    cfg, mu_d = configure_no_side_info(10, 256, 32)
    assert cfg.s == 1 and cfg.k == 7
    assert mu_d == 32 // (3 + cfg.ladder.index_bits) == 6
    with pytest.raises(ValueError):
        configure_no_side_info(10, 256, 4)


def test_no_side_info_rejects_a_precision_its_code_cannot_use(monkeypatch):
    """Subsampled RATQ sends at most d_pad c bits, c = 3 + log h per kept
    coordinate: 256 * 5 = 1280 at d = 256.  Up to floor(r / c) = d_pad it
    fits r; above, it would send 1280 bits while the bound falls as 1/r, so
    r is rejected before any quantizer is built."""
    for r in (1280, 1284):
        cfg, mu_d = configure_no_side_info(10, 256, r)
        assert mu_d == 256 and rcs_wrap(cfg, mu_d).bit_budget == 1280
        assert configure("no-side-info", 10, 256, r)[0][0].bit_budget == 1280
    built = []
    monkeypatch.setattr("qtc.dme.rcs_wrap", lambda *a: built.append(a))
    for r in (1285, 51200):
        with pytest.raises(ValueError, match=rf"r={r} above .* = 1280 bits"):
            configure_no_side_info(10, 256, r)
        with pytest.raises(ValueError, match=rf"r={r} above .* = 1280 bits"):
            configure("no-side-info", 10, 256, r)
    assert built == []


def test_configure_known_delta_small_and_large():
    cfgs, mu_d = configure_known_delta(100, 64, 32, [0.5] * 100)
    assert cfgs[0].symbol_bits == 4  # ceil(log2(2 + sqrt(12 ln 100))) = 4
    assert mu_d == 8
    with pytest.raises(ValueError):
        configure_known_delta(1, 64, 32, [0.5])
    with pytest.raises(ValueError, match="minimum"):
        configure_known_delta(100, 64, 6, [0.5] * 100)
    big, mu_big = configure_known_delta(4, 16, 64, [0.5] * 4)
    assert big[0].k == 16 and mu_big == 16
    with pytest.raises(ValueError):
        configure_known_delta(4, 16, 40, [0.5] * 4)  # r not a multiple of d


def test_configure_unknown_delta():
    cfg, mu_d = configure_unknown_delta(64, 30)
    assert cfg.h == 4 and cfg.N == 1
    assert mu_d == 30 // (4 + 2)
    with pytest.raises(ValueError):
        configure_unknown_delta(64, 8)
    boosted, mu_full = configure_unknown_delta(64, 64 * 10)  # m = 10
    assert boosted.N == 2 ** ((10 - 2) // 4) - 1 and mu_full == 64
    assert boosted.bit_budget <= 640


def test_configurations_fit_the_precision_they_are_given():
    """Every configure call either raises ValueError or returns quantizers
    whose budget fits r and that run_dme accepts, small or large precision."""
    n = 2
    for d in (16, 64, 100, 256):
        xs = unit_rows(22, n, d) * 0.5
        ys = xs + 0.2 * unit_rows(23, n, d)
        for r in sorted({4, 8, 12, 16, 24, 30, 48, 64, 100, 128, 200, 300}
                        | {m * d for m in range(1, 21)}):
            for setting in ("no-side-info", "known-delta", "unknown-delta"):
                try:
                    q = configure(setting, n, d, r, [0.2] * n)[0][0]
                except ValueError:
                    continue
                assert q.bit_budget <= r, (d, r, q.name)
                inst = DmeInstance(xs, ys, np.full(n, 0.2), r)
                run_dme(inst, [q] * n, SeedPath(24), 2)
    with pytest.raises(ValueError, match="d_pad=128"):
        configure_known_delta(n, 100, 300, [0.2] * n)
    with pytest.raises(ValueError, match="d_pad=128"):
        configure_unknown_delta(100, 1200)


def test_configure_shares_one_quantizer_per_distinct_delta():
    """Known distance: the clients that declare one delta share its RMQ,
    and run_dme on the shared quantizers is the same bits as on one
    quantizer per client.  The other settings share one quantizer among
    all clients; unknown distance subsamples RDAQ up to r = d and boosts
    it above.  The bound is the setting's theoretical_bound."""
    n, d, r, trials = 4, 64, 32, 40
    deltas = [0.1, 0.1, 0.2, 0.1]
    qs, bound = configure("known-delta", n, d, r, deltas)
    assert qs[0] is qs[1] is qs[3] and qs[2] is not qs[0]
    assert bound == theoretical_bound("known-delta", n, d, r, deltas)
    cfgs, mu_d = configure_known_delta(n, d, r, deltas)
    xs = unit_rows(60, n, d) * 0.5
    inst = DmeInstance(xs, xs + np.array(deltas)[:, None] * unit_rows(61, n, d), deltas, r)
    own = run_dme(inst, [wz_known_quantizer(c, mu_d) for c in cfgs], SeedPath(62), trials)
    assert run_dme(inst, qs, SeedPath(62), trials).mse == own.mse
    for setting in ("no-side-info", "unknown-delta"):
        qs, _ = configure(setting, n, d, r, deltas)
        assert all(q is qs[0] for q in qs)
    assert configure("unknown-delta", n, d, r, deltas)[0][0].name.startswith("wz-unknown")
    assert configure("unknown-delta", n, d, 10 * d, deltas)[0][0].name.startswith("brdaq")
    with pytest.raises(ValueError, match="unknown setting 'bogus'"):
        configure("bogus", n, d, r, deltas)
    with pytest.raises(ValueError, match="needs per-client deltas"):
        configure("known-delta", n, d, r)


def test_bounds_evaluate():
    assert theoretical_bound("no-side-info", 10, 256, 32) == pytest.approx(8.0)
    known = theoretical_bound("known-delta", 100, 256, 32, [0.0] * 100)
    assert known == 0.0
    # unknown-delta bound is linear in delta
    b1 = theoretical_bound("unknown-delta", 10, 64, 30, [0.1] * 10)
    b2 = theoretical_bound("unknown-delta", 10, 64, 30, [0.2] * 10)
    assert b2 == pytest.approx(2 * b1)
    with pytest.raises(ValueError):
        theoretical_bound("known-delta", 4, 16, 8)
    with pytest.raises(ValueError, match="one delta per client"):
        theoretical_bound("known-delta", 4, 16, 8, [0.1] * 3)
    with pytest.raises(ValueError):
        theoretical_bound("bogus", 4, 16, 8, [0.1] * 4)


def test_side_information_helps():
    n, d, r = 10, 64, 30
    delta = 0.1
    xs = unit_rows(10, n, d)
    ys = xs + delta * unit_rows(11, n, d)
    res_ns = run_dme(
        DmeInstance(xs, None, None, r),
        configure("no-side-info", n, d, r)[0],
        SeedPath(12),
        800,
    )
    res_k = run_dme(
        DmeInstance(xs, ys, np.full(n, delta), r),
        configure("known-delta", n, d, r, [delta] * n)[0],
        SeedPath(13),
        800,
    )
    assert res_k.mse < res_ns.mse


def test_delta_violation_counter():
    n, d = 3, 16
    xs = unit_rows(14, n, d) * 0.5
    ys = xs + 0.4 * unit_rows(15, n, d)
    inst = DmeInstance(xs, ys, np.array([0.4, 0.1, 0.4]), r=d)
    res = run_dme(inst, [daq_quantizer(d)] * n, SeedPath(16), 5)
    assert res.delta_violations == 1


def test_sampled_run_draws_each_client_from_its_own_quantizer():
    """Client i's reconstructions are quantizers[i].sample on the client's
    stream, so swapping two clients' quantizers changes the estimate."""
    n, d = 2, 16
    xs = unit_rows(17, n, d) * 0.5
    ys = in_ball(xs + 0.2 * unit_rows(18, n, d))
    inst = DmeInstance(xs, ys, np.full(n, 0.2), r=64)
    qs = [daq_quantizer(d), configure("known-delta", n, d, 64, [0.2] * n)[0][1]]
    res = run_dme(inst, qs, SeedPath(19), 50)
    acc = sum(q.sample(xs[i], ys[i], 50, SeedPath(19).child("client", i).stream())
              for i, q in enumerate(qs))
    err = acc / n - inst.true_mean
    assert res.mse == pytest.approx(np.einsum("td,td->t", err, err).mean(), rel=1e-12)
    assert run_dme(inst, qs[::-1], SeedPath(19), 50).mse != res.mse


def codec_only(q):
    """The codec of q rebuilt without its kernel."""
    return Quantizer(q.encode, q.decode, q.bit_budget, q.name, q.uses_side_info)


class LoggedCodec(Quantizer):
    """A kernel-less codec that logs the SeedPath of each round trip."""

    def __init__(self, q, log):
        super().__init__(q.encode, q.decode, q.bit_budget, q.name)
        self.log = log

    def roundtrip(self, x, side, path, check_budget=True):
        self.log.append(path)
        return super().roundtrip(x, side, path, check_budget)


def test_kernel_less_codec_is_round_tripped_per_client_and_trial():
    """A codec without a kernel cannot sample, so run_dme round-trips it
    once per (client, trial), client-major, under root/client i/trial t,
    and sums the reconstructions as by hand."""
    n, d, trials = 3, 8, 5
    xs = unit_rows(20, n, d)
    xs *= 0.5 / np.abs(xs).sum(axis=1, keepdims=True)  # inside SimQ's l1 ball
    inst = DmeInstance(xs, None, None, r=d)
    log = []
    shared = LoggedCodec(simq_quantizer(1.0, d), log)
    qs = [shared, shared, LoggedCodec(simq_quantizer(1.0, d), log)]
    with pytest.raises(TypeError, match="no batched kernel"):
        shared.sample(xs[0], None, 5, SeedPath(21).stream())
    res = run_dme(inst, qs, SeedPath(21), trials)
    root = SeedPath(21)
    paths = [root.child("client", i).child("trial", t) for i in range(n) for t in range(trials)]
    assert log == paths
    acc = np.zeros((trials, d))
    for i, q in enumerate(qs):
        for t in range(trials):
            acc[t] += codec_only(q).roundtrip(xs[i], None, paths[i * trials + t])[1]
    sq = np.einsum("td,td->t", acc / n - inst.true_mean, acc / n - inst.true_mean)
    assert res.mse == sq.mean()
    assert res.band == 3.0 * sq.std(ddof=1) / np.sqrt(trials)


# the factory `configure` picks for each setting at r = 32 <= d
_FACTORY_SETTING = {"rcs_wrap": "no-side-info", "wz_known_quantizer": "known-delta",
                    "wz_unknown_quantizer": "unknown-delta"}


@pytest.mark.parametrize("setting", list(_FACTORY_SETTING))
@pytest.mark.parametrize("seed", [0, 1])
def test_round_trips_and_kernel_agree_in_law(setting, seed):
    """run_dme on the kernels and on the same codecs rebuilt without them
    (so round-tripped message by message) estimate one MSE: the two
    estimates agree within the sum of their 3-sigma bands (at seeds 0-7 of
    each setting, the gap was at most 0.46 of that sum)."""
    n, d, r, delta, trials = 4, 64, 32, 0.2, 300
    xs = unit_rows(30 + seed, n, d) * 0.6
    ys = in_ball(xs + delta * unit_rows(40 + seed, n, d))
    inst = DmeInstance(xs, ys, np.full(n, delta), r)
    if setting == "rcs_wrap":
        inst = DmeInstance(xs, None, None, r)
    q = configure(_FACTORY_SETTING[setting], n, d, r, [delta] * n)[0][0]
    root = SeedPath(50 + seed).child(setting)
    sampled = run_dme(inst, [q] * n, root.child("kernel"), trials)
    packed = run_dme(inst, [codec_only(q)] * n, root.child("codec"), trials)
    assert abs(sampled.mse - packed.mse) <= sampled.band + packed.band, (sampled, packed)


def test_instance_and_quantizer_count_checked():
    d = 8
    xs = unit_rows(22, 3, d) * 0.5
    with pytest.raises(ValueError, match="expected \\(n, d\\)"):
        DmeInstance(xs[0], None, None, r=d)
    with pytest.raises(ValueError, match="side information shape mismatch"):
        DmeInstance(xs, xs[:, :4], np.full(3, 0.1), r=d)
    with pytest.raises(ValueError, match="expected \\(3,\\)"):
        DmeInstance(xs, xs, np.array([0.1]), r=d)
    with pytest.raises(ValueError, match="expected \\(3,\\)"):
        DmeInstance(xs, xs, np.full((3, 1), 0.1), r=d)
    inst = DmeInstance(xs, xs, np.full(3, 0.1), r=d)
    for count in (2, 4):
        with pytest.raises(ValueError, match=f"{count} quantizers for 3 clients"):
            run_dme(inst, [daq_quantizer(d)] * count, SeedPath(23), 5)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("trials", [0, -1])
def test_run_needs_a_trial(trials, kernel):
    d = 8
    inst = DmeInstance(unit_rows(24, 2, d) * 0.5, None, None, r=d)
    q = daq_quantizer(d) if kernel else codec_only(daq_quantizer(d))
    with pytest.raises(ValueError, match="trials"):
        run_dme(inst, [q] * 2, SeedPath(25), trials)
