"""The samplers that work only on kept coordinates against full-width references.

Each reference below dithers, rounds and counts every rotated coordinate and
masks the unkept ones away afterwards, drawing from the stream in the same
order and shapes as the library sampler.  Reconstructions must agree exactly:
the kept-coordinate arithmetic is the same per element, only the discarded
work is gone.
"""

import numpy as np
import pytest

from qtc.adaptive import pick_range
from qtc.core import SeedPath
from qtc.rotation import (
    pad_to_pow2,
    rotate_batch,
    sample_signs_batch,
    sample_subset_masks,
    unrotate_batch,
)
from qtc.scalar import cuq_levels, cuq_round, mq_decode, mq_encode
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    boosted_rdaq_sample,
    wz_known_sample,
    wz_unknown_sample,
)
from qtc.vector import RatqConfig, _chunks, rcs_ratq_sample


def _argpartition_masks(rng, n, d, mu_d):
    keep = np.zeros((n, d), dtype=bool)
    picks = np.argpartition(rng.random((n, d)), mu_d - 1, axis=1)[:, :mu_d]
    np.put_along_axis(keep, picks, True, axis=1)
    return keep


def _wz_known_reference(x, y, cfg, mu_d, n, rng):
    params = cfg.mq
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        m = hi - lo
        signs = sample_signs_batch(rng, m, cfg.d_pad)
        xr, yr = rotate_batch(np.stack([xp, yp])[:, None, :], signs)
        keep = _argpartition_masks(rng, m, cfg.d_pad, mu_d)
        vals = mq_decode(mq_encode(xr, params, rng), yr, params)
        vals = yr + np.where(keep, (vals - yr) / (mu_d / cfg.d_pad), 0.0)
        out[lo:hi] = unrotate_batch(vals, signs)[:, : cfg.d]
    return out


def _rcs_reference(y, cfg, mu_d, n, rng):
    padded = pad_to_pow2(y)[0]
    mu = mu_d / cfg.d_pad
    ranges = cfg.ladder.ranges
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        signs = sample_signs_batch(rng, hi - lo, cfg.d_pad)
        yr = rotate_batch(padded[None, :], signs)
        keep = _argpartition_masks(rng, hi - lo, cfg.d_pad, mu_d)
        m_coord = ranges[pick_range(np.abs(yr), ranges)]  # s = 1
        levels = cuq_levels(cuq_round(yr, m_coord, cfg.k, rng), m_coord, cfg.k)
        rec = np.where(keep, levels / mu, 0.0)
        out[lo:hi] = unrotate_batch(rec, signs)[:, : cfg.d]
    return out


def _rdaq_reference(x, y, cfg, n, rng, mu_d=None):
    ranges = cfg.ranges
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad * cfg.h * max(1, cfg.N)):
        m = hi - lo
        signs = sample_signs_batch(rng, m, cfg.d_pad)
        xr, yr = rotate_batch(np.stack([xp, yp])[:, None, :], signs)
        zx = np.searchsorted(ranges, np.abs(xr).ravel(), side="left").reshape(m, cfg.d_pad)
        zy = np.searchsorted(ranges, np.abs(yr).ravel(), side="left").reshape(m, cfg.d_pad)
        assert not (np.any(zx >= cfg.h) or np.any(zy >= cfg.h))
        z_star = np.maximum(zx, zy)
        m_sel = ranges[z_star]
        u = rng.uniform(-1.0, 1.0, size=(m, cfg.d_pad, cfg.N)) * m_sel[..., None]
        cx = (u <= xr[..., None]).sum(axis=2)
        cy = (u <= yr[..., None]).sum(axis=2)
        corr = 2.0 * m_sel * (cx - cy) / cfg.N
        if mu_d is not None:
            keep = _argpartition_masks(rng, m, cfg.d_pad, mu_d)
            corr = np.where(keep, corr / (mu_d / cfg.d_pad), 0.0)
        out[lo:hi] = unrotate_batch(yr + corr, signs)[:, : cfg.d]
    return out


def _past_one_chunk(width):
    """A trial count that takes two `_chunks` steps at this per-trial width."""
    return next(_chunks(1 << 30, width))[1] + 3


def _pair(seed, d, delta):
    rng = SeedPath(seed).stream()
    x = rng.normal(size=d)
    x *= 0.7 / np.linalg.norm(x)
    u = rng.normal(size=d)
    return x, x + delta * u / np.linalg.norm(u)


def _same(fast, ref, seed):
    a = fast(SeedPath(seed).stream())
    b = ref(SeedPath(seed).stream())
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mu_d", [1, 8, 64])
def test_wz_known_sample_matches_full_width(mu_d):
    cfg = RmqConfig(48, 0.5, 0.05, 16)
    x, y = _pair(1, 48, 0.4)
    n = _past_one_chunk(cfg.d_pad)
    _same(lambda g: wz_known_sample(x, y, cfg, mu_d, n, g),
          lambda g: _wz_known_reference(x, y, cfg, mu_d, n, g), 100 + mu_d)


@pytest.mark.parametrize("mu_d", [1, 8, 64])
def test_rcs_ratq_sample_matches_full_width(mu_d):
    cfg = RatqConfig.for_subsampling(1.0, 48)
    y = _pair(2, 48, 0.1)[0]
    n = _past_one_chunk(cfg.d_pad)
    _same(lambda g: rcs_ratq_sample(y, cfg, mu_d, n, g),
          lambda g: _rcs_reference(y, cfg, mu_d, n, g), 200 + mu_d)


def _rdaq_pair(d):
    """At d = 8 a flat x rotates onto one coordinate above the lowest scale
    whenever the signs follow a Hadamard row (16 in 256 draws), and y = -0.8 x
    sits on the far side of the dither there, so scale 1 changes the counts.
    Rotated random vectors of larger d stay on scale 0."""
    if d == 8:
        x = np.full(8, 0.95 / np.sqrt(8))
        return x, -0.8 * x
    return _pair(3, d, 0.3)


@pytest.mark.parametrize("d,mu_d", [(40, 1), (40, 8), (40, 64), (8, 1), (8, 8)])
def test_wz_unknown_sample_matches_full_width(d, mu_d):
    cfg = RdaqConfig(d)
    x, y = _rdaq_pair(d)
    n = _past_one_chunk(cfg.d_pad * cfg.h)
    _same(lambda g: wz_unknown_sample(x, y, cfg, mu_d, n, g),
          lambda g: _rdaq_reference(x, y, cfg, n, g, mu_d), 300 + mu_d)


@pytest.mark.parametrize("d", [24, 8])
@pytest.mark.parametrize("N", [1, 3, 8])
def test_boosted_rdaq_sample_matches_full_width(N, d):
    cfg = RdaqConfig(d, N=N)
    x, y = _rdaq_pair(d)
    n = _past_one_chunk(cfg.d_pad * cfg.h * N)
    _same(lambda g: boosted_rdaq_sample(x, y, cfg, n, g),
          lambda g: _rdaq_reference(x, y, cfg, n, g), 400 + N)


@pytest.mark.parametrize("mu_d", [1, 8, 100, 256])
def test_subset_masks_match_argpartition(mu_d):
    keep = sample_subset_masks(SeedPath(mu_d).stream(), 500, 256, mu_d)
    ref = _argpartition_masks(SeedPath(mu_d).stream(), 500, 256, mu_d)
    np.testing.assert_array_equal(keep, ref)


@pytest.mark.parametrize("mu_d", [1, 7, 33, 64])
def test_subset_masks_keep_mu_d_on_ties_at_the_cut(mu_d):
    class ThreeValues:
        def random(self, shape):
            return np.floor(SeedPath(22).stream().random(shape) * 3) / 3

    keep = sample_subset_masks(ThreeValues(), 50, 64, mu_d)
    assert np.all(np.count_nonzero(keep, axis=1) == mu_d)
    # rows with no tie at the cut keep what argpartition keeps
    r = ThreeValues().random((50, 64))
    kth = np.partition(r, mu_d - 1, axis=1)[:, mu_d - 1 : mu_d]
    untied = np.count_nonzero(r <= kth, axis=1) == mu_d
    ref = _argpartition_masks(ThreeValues(), 50, 64, mu_d)
    np.testing.assert_array_equal(keep[untied], ref[untied])
