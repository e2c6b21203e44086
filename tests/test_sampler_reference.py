"""The kernels that work only on kept coordinates, sampled through
`Quantizer.sample`, against full-width references.

Each reference below dithers, rounds and counts every rotated coordinate and
masks the unkept ones away afterwards, drawing from the stream in the same
order and shapes as the library sampler: the signs, one window uniform per
row, then one private or shared uniform per kept coordinate only.  The
reference spreads those uniforms over a full-width array whose unkept
entries hold a value the mask discards.  Reconstructions must agree
exactly: the kept-coordinate arithmetic is the same per element, only the
discarded work is gone.
"""

import numpy as np
import pytest

from qtc.adaptive import pick_range
from qtc.core import SeedPath, _chunks
from qtc.rotation import (
    pad_to_pow2,
    rotate_batch,
    sample_signs_batch,
    unrotate_batch,
)
from qtc.scalar import cuq_levels, cuq_round_with, mq_decode, mq_encode_with
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    boosted_rdaq_sample,
    wz_known_quantizer,
    wz_unknown_quantizer,
)
from qtc.vector import RatqConfig, rcs_wrap


def _window_slots(rng, n, d, mu_d):
    """Where each row's kept coordinates sit in its message, worked out on
    its own: a row draws one uniform u and sends coordinate (floor(u d) + j)
    mod d j-th, j = 0..mu_d - 1.  (n, d); -1 marks the unkept ones."""
    slot = np.full((n, d), -1)
    for i, u in enumerate(rng.random(n)):
        for j in range(mu_d):
            slot[i, (int(u * d) + j) % d] = j
    return slot


def _spread(u, slot, fill=0.5):
    """The uniforms `u` of the kept coordinates, (m, mu_d, ...), spread over
    the full width of the `_window_slots` array `slot`: a kept coordinate
    holds its row's uniform slot; unkept entries hold `fill`."""
    keep = (slot >= 0).reshape(slot.shape + (1,) * (u.ndim - 2))
    return np.where(keep, u[np.arange(len(slot))[:, None], slot], fill)


def _wz_known_reference(x, y, cfg, mu_d, n, rng):
    params = cfg.mq
    xp, yp = pad_to_pow2(x)[0], pad_to_pow2(y)[0]
    out = np.empty((n, cfg.d))
    for lo, hi in _chunks(n, cfg.d_pad):
        m = hi - lo
        signs = sample_signs_batch(rng, m, cfg.d_pad)
        xr, yr = rotate_batch(np.stack([xp, yp])[:, None, :], signs)
        slot = _window_slots(rng, m, cfg.d_pad, mu_d)
        dither = _spread(rng.random((m, mu_d)), slot)
        vals = mq_decode(mq_encode_with(xr, params, dither), yr, params)
        vals = yr + np.where(slot >= 0, (vals - yr) / (mu_d / cfg.d_pad), 0.0)
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
        slot = _window_slots(rng, hi - lo, cfg.d_pad, mu_d)
        m_coord = ranges[pick_range(np.abs(yr), ranges)]  # s = 1
        u = _spread(rng.random((hi - lo, mu_d)), slot)
        levels = cuq_levels(cuq_round_with(yr, m_coord, cfg.k, u), m_coord, cfg.k)
        rec = np.where(slot >= 0, levels / mu, 0.0)
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
        if mu_d is None:
            u = rng.uniform(-1.0, 1.0, size=(m, cfg.d_pad, cfg.N))
        else:
            slot = _window_slots(rng, m, cfg.d_pad, mu_d)
            u = _spread(rng.uniform(-1.0, 1.0, size=(m, mu_d, cfg.N)), slot, fill=0.0)
        u = u * m_sel[..., None]
        cx = (u <= xr[..., None]).sum(axis=2)
        cy = (u <= yr[..., None]).sum(axis=2)
        corr = 2.0 * m_sel * (cx - cy) / cfg.N
        if mu_d is not None:
            corr = np.where(slot >= 0, corr / (mu_d / cfg.d_pad), 0.0)
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
    _same(lambda g: wz_known_quantizer(cfg, mu_d).sample(x, y, n, g),
          lambda g: _wz_known_reference(x, y, cfg, mu_d, n, g), 100 + mu_d)


@pytest.mark.parametrize("mu_d", [1, 8, 64])
def test_rcs_ratq_sample_matches_full_width(mu_d):
    cfg = RatqConfig.for_subsampling(1.0, 48)
    y = _pair(2, 48, 0.1)[0]
    n = _past_one_chunk(cfg.d_pad)
    _same(lambda g: rcs_wrap(cfg, mu_d).sample(y, None, n, g),
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
    _same(lambda g: wz_unknown_quantizer(cfg, mu_d).sample(x, y, n, g),
          lambda g: _rdaq_reference(x, y, cfg, n, g, mu_d), 300 + mu_d)


@pytest.mark.parametrize("d", [24, 8])
@pytest.mark.parametrize("N", [1, 3, 8])
def test_boosted_rdaq_sample_matches_full_width(N, d):
    cfg = RdaqConfig(d, N=N)
    x, y = _rdaq_pair(d)
    n = _past_one_chunk(cfg.d_pad * cfg.h * N)
    _same(lambda g: boosted_rdaq_sample(x, y, cfg, n, g),
          lambda g: _rdaq_reference(x, y, cfg, n, g), 400 + N)
