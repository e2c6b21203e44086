import math

import numpy as np
import pytest

from qtc.core import BitReader, BitString, SeedPath
from qtc.scalar import (
    OVERFLOW,
    ModuloParams,
    cuq_conditional_mse,
    cuq_expected_decode,
    cuq_levels,
    cuq_round_with,
    gaussian_wz_run,
    mq_decode,
    mq_encode_with,
    read_cuq_symbols,
    write_cuq_symbols,
)
from qtc.vector import gaussian_rd_run


def two_branch_expectation(y, M, k):
    """Independent oracle: enumerate the two rounding branches of the signed
    k-level grid over [-M, M]."""
    lo, spacing = -M, 2 * M / (k - 1)
    t = (y - lo) / spacing
    lower = np.clip(np.ceil(t) - 1, 0, k - 2)
    p_up = t - lower
    lo_val = lo + lower * spacing
    return p_up * (lo_val + spacing) + (1 - p_up) * lo_val


def modulo_params(k, eps, delta=1.3):
    """The MQ parameters of lattice spacing eps, delta = eps (k - 2) / 2; of
    `delta` itself for eps = 0."""
    return ModuloParams(k, delta if eps == 0.0 else eps * (k - 2) / 2)


def mq_decode_three_candidates(w, y, params):
    """Reference decoder: the nearest of three lattice candidates around the
    rounded coset index, compared by distance in value space.  Candidates are
    in increasing order, so argmin's first hit breaks ties to the smaller."""
    w = np.asarray(w, dtype=np.int64)
    z0 = np.round((y / params.eps - w) / params.k)
    vals = np.stack([(z0 + dz) * params.k + w for dz in (-1.0, 0.0, 1.0)]) * params.eps
    pick = np.argmin(np.abs(vals - y), axis=0)
    return np.take_along_axis(vals, pick[None, ...], axis=0)[0]


@pytest.mark.parametrize("M,k", [(1.0, 2), (1.0, 5), (2.0, 9)])
def test_cuq_exact_unbiasedness(M, k):
    ys = np.linspace(-M, M, 1001)
    assert np.max(np.abs(two_branch_expectation(ys, M, k) - ys)) < 1e-12
    assert np.max(np.abs(cuq_expected_decode(ys, M) - ys)) < 1e-12


def test_cuq_sampling_law():
    rng = SeedPath(0).stream()
    sym = cuq_round_with(np.full(200_000, 0.5), 1.0, 2, rng.random(200_000))
    assert abs((sym == 1).mean() - 0.75) < 0.01


def test_cuq_endpoints_deterministic():
    M, k = 1.0, 5
    rng = SeedPath(1).stream()
    assert np.all(cuq_round_with(np.full(100, -1.0), M, k, rng.random(100)) == 0)
    assert np.all(cuq_round_with(np.full(100, 1.0), M, k, rng.random(100)) == 4)
    # an interior level is emitted exactly (half-open cells)
    level1 = -1.0 + 2 * M / (k - 1)
    assert np.all(cuq_round_with(np.full(100, level1), M, k, rng.random(100)) == 1)


def test_cuq_overflow_symbol():
    rng = SeedPath(2).stream()
    assert np.all(cuq_round_with(np.array([1.5, -2.0]), 1.0, 2, rng.random(2)) == OVERFLOW)
    assert cuq_levels(np.array([OVERFLOW]), 1.0, 2)[0] == 0.0


def test_cuq_decode_values():
    assert cuq_levels(np.array([1]), 1.0, 2)[0] == 1.0
    assert cuq_levels(np.array([2]), 2.0, 5)[0] == 0.0
    # a field above k (the overflow code) names no symbol
    with pytest.raises(ValueError):
        read_cuq_symbols(BitReader(BitString().write_uint(6, 3)), 1, 5)


def test_cuq_cell_error_bounds():
    # signed: conditional MSE <= M^2/(k-1)^2; nonneg: <= M^2/(4(k-1)^2)
    for M, k in [(1.0, 4), (2.0, 7), (0.5, 16)]:
        ys = np.linspace(-M, M, 797)
        assert np.max(cuq_conditional_mse(ys, M, k)) <= M**2 / (k - 1) ** 2 + 1e-12
        ysn = np.linspace(0, M, 797)
        assert np.max(cuq_conditional_mse(ysn, M, k, signed=False)) <= M**2 / (4 * (k - 1) ** 2) + 1e-12


def test_cuq_symbol_serialization():
    k = 5  # 6 symbols -> 3-bit fields
    sym = np.array([0, 4, OVERFLOW, 2])
    bits = write_cuq_symbols(BitString(), sym, k)
    assert bits.nbits == 4 * math.ceil(math.log2(k + 1))
    back = read_cuq_symbols(BitReader(bits), 4, k)
    assert np.array_equal(back, sym)


def test_mq_example():
    params = ModuloParams(4, 1.0)
    ups = downs = 0
    for i in range(4000):
        w = mq_encode_with(np.array([2.3]), params, SeedPath(i).stream().random(1))
        rec = mq_decode(w, np.array([2.0]), params)[0]
        assert rec in (2.0, 3.0)
        ups += rec == 3.0
        downs += rec == 2.0
    assert abs(ups / 4000 - 0.3) < 0.03


def test_mq_lattice_point_degenerate():
    params = ModuloParams(4, 1.0)
    w = mq_encode_with(np.array([5.0]), params, SeedPath(0).stream().random(1))
    assert w[0] == 1 and mq_decode(w, np.array([4.7]), params)[0] == 5.0


def test_mq_zero():
    params = ModuloParams(4, 1.0)
    w = mq_encode_with(np.array([0.0]), params, SeedPath(1).stream().random(1))
    assert w[0] == 0 and mq_decode(w, np.array([0.0]), params)[0] == 0.0


def test_mq_default_eps_rule():
    params = ModuloParams(6, 2.0)
    assert params.eps == pytest.approx(2 * 2.0 / (6 - 2))
    assert params.k * params.eps >= 2 * (params.eps + params.delta) - 1e-12
    with pytest.raises(ValueError):
        ModuloParams(2, 1.0)


# case -> (the build that must fail, the field its message names)
_BAD_MODULO = {
    "delta-inf": (lambda: ModuloParams(8, math.inf), "delta"),
    "delta-nan": (lambda: ModuloParams(8, math.nan), "delta"),
    "delta-zero": (lambda: ModuloParams(8, 0.0), "delta"),
    "k-float": (lambda: ModuloParams(5.5, 0.1), "k"),
    "k-bool": (lambda: ModuloParams(True, 0.1), "k"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MODULO))
def test_modulo_params_reject_a_bad_field_when_built(case):
    """A non-finite or zero distance bound (so spacing), or a level count
    that is no integer, would build and then decode to NaN or round on
    np.mod(z, k)."""
    build, field = _BAD_MODULO[case]
    with pytest.raises(ValueError, match=rf"(^|\s){field} "):
        build()


def test_rate_distortion_run_rejects_an_unknown_source_before_drawing():
    rng = SeedPath(5).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown source 'cauchy'"):
        gaussian_rd_run(1.0, 0.01, 16, 4, rng, source="cauchy")
    assert rng.bit_generator.state == state


def test_wyner_ziv_run_rejects_an_unknown_source_before_drawing():
    """The side information Y is drawn before the source, so the name is
    checked before either."""
    rng = SeedPath(6).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown source 'cauchy'"):
        gaussian_wz_run(0.1, 0.1**2 / 400, 16, 4, rng, source="cauchy")
    assert rng.bit_generator.state == state


def test_mq_recovery_sweep_small():
    # both dither branches recover z~*eps whenever |x - y| <= delta
    delta = 1.0
    for k in (4, 8, 16):
        params = ModuloParams(k, delta)
        xs = np.arange(-10.0, 10.0, 0.25)
        for shift in np.linspace(-delta, delta, 9):
            ys = xs + shift
            for branch in (np.floor, np.ceil):
                z = branch(xs / params.eps)
                w = np.mod(z, k).astype(np.int64)
                rec = mq_decode(w, ys, params)
                assert np.allclose(rec, z * params.eps, atol=1e-9)
                assert np.all(np.abs(rec - ys) <= k * params.eps + 1e-9)


def test_mq_boundedness_under_violation():
    # side information far from x: recovery fails but the k*eps clamp holds
    params = ModuloParams(4, 0.5)
    rng = SeedPath(3).stream()
    xs = rng.uniform(-10, 10, size=500)
    ys = xs + rng.uniform(-5, 5, size=500)
    w = mq_encode_with(xs, params, rng.random(500))
    rec = mq_decode(w, ys, params)
    assert np.all(np.abs(rec - ys) <= params.k * params.eps + 1e-9)


def test_mq_tie_breaks_to_smaller():
    # candidates equidistant from y: pick the smaller lattice value
    params = ModuloParams(4, 1.0)
    rec = mq_decode(np.array([0]), np.array([2.0]), params)  # lattice {0, 4, 8...}
    assert rec[0] == 0.0


@pytest.mark.parametrize("k", [3, 4, 5, 8, 16, 33])
@pytest.mark.parametrize("eps", [0.0, 0.37])
def test_mq_decode_matches_three_candidate_reference(k, eps):
    # 12 cases x 45k coordinates = 540k; eps = 0.0 keeps delta = 1.3
    params = modulo_params(k, eps)
    rng = SeedPath(k).child("mq", int(eps * 100)).stream()
    n = 45_000
    w = rng.integers(0, k, size=n)
    y = rng.uniform(-40.0, 40.0, size=n) * k * params.eps
    assert np.array_equal(mq_decode(w, y, params), mq_decode_three_candidates(w, y, params))


@pytest.mark.parametrize("k", [3, 4, 5, 8, 16, 33])
def test_mq_decode_midpoints(k):
    z = np.arange(-20, 20)[:, None]
    w = np.arange(k)[None, :]
    for eps in (1.0, 0.25):
        # binary eps: the midpoint between z and z + 1 is exact, so it must go to z
        params = modulo_params(k, eps)
        lower = (z * k + w) * eps
        mid = ((z + 0.5) * k + w) * eps
        assert np.array_equal(mq_decode(w, mid, params), lower)
        assert np.array_equal(mq_decode_three_candidates(w, mid, params), lower)
    for eps in (0.0, 0.1, 0.37):
        # near a midpoint the result is one of the two nearest lattice points
        params = modulo_params(k, eps)
        lower = (z * k + w) * params.eps
        upper = ((z + 1) * k + w) * params.eps
        mid = ((z + 0.5) * k + w) * params.eps
        for y in (mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)):
            rec = mq_decode(w, y, params)
            assert np.all((rec == lower) | (rec == upper))
