"""The thesis's DME scaling laws as measured slopes (Mayekar, Suresh & Tyagi,
"Wyner-Ziv estimators", AISTATS 2021).

With n clients in d dimensions sending r bits each, the protocol MSE of all
three settings falls as d / (n r): exponent -1 in r.  The configured codes
subsample mu_d = floor(r / c) rotated coordinates, and subsampling adds a
(d / mu_d - 1) factor, so over r = 16..256 the fitted slope bends away from
-1 by up to about 0.15; the band is -1 +- 0.25.  Against the distance delta
between input and side information the MSE grows as delta^2 when delta is
known and as delta when it is not; inputs of small norm keep the
unknown-delta code's scale choice driven by delta.  Side information pays
when the inputs are close to it: at delta = 0.05 both Wyner-Ziv schemes beat
the scheme that ignores it.  At large precision, r = m d with m >= 2, each
Wyner-Ziv setting sends every rotated coordinate (plain RMQ with k = 2^m, or
RDAQ boosted to the most repetitions that fit), and its measured MSE stays
under the thesis's large-precision bound.
"""

import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.dme import DmeInstance, configure, run_dme

N, D, TRIALS = 10, 256, 300
R_LIST = [16, 32, 64, 128, 256]
DELTA_LIST = [0.05, 0.1, 0.2, 0.4, 0.8]
SLOPE_BAND = 0.25


def _instance(setting, r, norm, delta, seed):
    """Client inputs of l2 norm `norm`, side information at distance delta
    (both inside the unit ball), and the setting's configured quantizer,
    shared by all n clients."""
    rng = SeedPath(seed).stream()
    xs = rng.normal(size=(N, D))
    xs *= norm / np.linalg.norm(xs, axis=1, keepdims=True)
    us = rng.normal(size=(N, D))
    ys = xs + delta * us / np.linalg.norm(us, axis=1, keepdims=True)
    q = configure(setting, N, D, r, [delta] * N)[0][0]
    if setting == "no-side-info":
        return DmeInstance(xs, None, None, r), q
    return DmeInstance(xs, ys, np.full(N, delta), r), q


def _mse(setting, r, norm, delta, seed):
    inst, q = _instance(setting, r, norm, delta, seed)
    return run_dme(inst, [q] * N, SeedPath(seed).child(setting).child("r", r), TRIALS).mse


@pytest.mark.parametrize("setting", ["no-side-info", "known-delta", "unknown-delta"])
def test_mse_falls_as_one_over_r(setting):
    mses = [_mse(setting, r, 0.6, 0.3, 4100) for r in R_LIST]
    slope = np.polyfit(np.log(R_LIST), np.log(mses), 1)[0]
    assert abs(slope + 1.0) <= SLOPE_BAND, (slope, mses)


@pytest.mark.parametrize("setting, exponent", [("known-delta", 2.0), ("unknown-delta", 1.0)])
def test_mse_grows_as_the_law_in_delta(setting, exponent):
    # measured at seeds 4300-4303: 1.988..1.991 (known) and 1.000..1.015 (unknown)
    mses = [_mse(setting, 64, 0.15, delta, 4300) for delta in DELTA_LIST]
    slope = np.polyfit(np.log(DELTA_LIST), np.log(mses), 1)[0]
    assert abs(slope - exponent) <= SLOPE_BAND, (slope, mses)


@pytest.mark.parametrize("setting, d, m", [
    ("known-delta", 16, 2), ("known-delta", 64, 3), ("known-delta", 256, 2),
    ("unknown-delta", 16, 6), ("unknown-delta", 64, 10), ("unknown-delta", 64, 14),
    ("unknown-delta", 256, 7),
])
def test_large_precision_mse_within_the_bound(setting, d, m):
    # MSE / bound measured at 300 trials, seed 4400: 0.03-0.04 (known),
    # 0.02-0.06 (unknown; boosted N = 3, 3, 7, then N = 1 at d = 256)
    r, delta = m * d, 0.3
    rng = SeedPath(4400).stream()
    xs = rng.normal(size=(N, d))
    xs *= 0.6 / np.linalg.norm(xs, axis=1, keepdims=True)
    us = rng.normal(size=(N, d))
    ys = xs + delta * us / np.linalg.norm(us, axis=1, keepdims=True)
    quants, bound = configure(setting, N, d, r, [delta] * N)
    q = quants[0]
    assert q.bit_budget <= r
    res = run_dme(DmeInstance(xs, ys, np.full(N, delta), r), [q] * N,
                  SeedPath(4400).child(setting).child("r", r), TRIALS)
    assert res.mse <= bound + res.band, (res, bound)


def test_side_information_wins_at_small_delta():
    r, delta = 64, 0.05
    plain = _mse("no-side-info", r, 0.9, delta, 4200)
    for setting in ("known-delta", "unknown-delta"):
        assert _mse(setting, r, 0.9, delta, 4200) < 0.5 * plain, setting
