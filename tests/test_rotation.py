import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.rotation import (
    _hadamard,
    _scaled_factors,
    _subset_masks,
    fwht,
    pad_to_pow2,
    rotate_batch,
    sample_signs_batch,
    sample_subset_masks,
    sign_words,
    unrotate_batch,
)


def naive_hadamard(d):
    return np.array(
        [[(-1.0) ** bin(i & j).count("1") for j in range(d)] for i in range(d)]
    )


def test_fwht_matches_sylvester_kron_reference():
    # p = 0..12; odd p splits d into unequal Kronecker factors a != b
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h = np.ones((1, 1))
    rng = SeedPath(20).stream()
    for p in range(13):
        d = 1 << p
        if p:
            h = np.kron(h2, h)
        for lead in [(), (5,), (2, 3)]:
            x = rng.normal(size=lead + (d,))
            x_before = x.copy()
            got = fwht(x)
            assert got.shape == x.shape
            np.testing.assert_allclose(got, x @ h, rtol=0, atol=1e-12 * d)
            assert np.array_equal(x, x_before)
            # small integers: every partial sum is exact, so the two agree bit for bit
            xi = rng.integers(-5, 6, size=lead + (d,))
            gi = fwht(xi)
            assert gi.dtype == np.float64
            assert np.array_equal(gi, xi @ h)


def test_subset_masks_keep_exactly_mu_d():
    n, d = 300, 64
    for mu_d in (1, 7, d):
        keep = sample_subset_masks(SeedPath(mu_d).stream(), n, d, mu_d)
        assert keep.shape == (n, d) and np.all(keep.sum(axis=1) == mu_d)
        # the same draw through a full argsort marks the same set
        r = SeedPath(mu_d).stream().random((n, d))
        ref = np.zeros((n, d), dtype=bool)
        np.put_along_axis(ref, np.argsort(r, axis=1)[:, :mu_d], True, axis=1)
        assert np.array_equal(keep, ref)


@pytest.mark.parametrize("mu_d", [-1, 0, 65, 2.5])
def test_subset_masks_reject_a_bad_count_before_any_draw(mu_d):
    rng, ref = SeedPath(24).stream(), SeedPath(24).stream()
    with pytest.raises(ValueError, match="sample count mu_d"):
        sample_subset_masks(rng, 3, 64, mu_d)
    assert rng.random(3).tolist() == ref.random(3).tolist()


@pytest.mark.parametrize("d", [1, 8, 64, 256])
def test_no_rows_of_signs_or_subsets(d):
    rng = SeedPath(25).stream()
    for out in (sample_signs_batch(rng, 0, d), sample_subset_masks(rng, 0, d, 1)):
        assert out.shape == (0, d)
    assert sample_signs_batch(rng, 0, d).dtype == np.float64


def test_subset_masks_exact_count_under_tied_draws():
    class TiedDraws:
        def random(self, shape):
            return np.floor(SeedPath(21).stream().random(shape) * 3) / 3

    for mu_d in (1, 7, 64):
        keep = sample_subset_masks(TiedDraws(), 50, 64, mu_d)
        assert np.all(keep.sum(axis=1) == mu_d)


def _float_rule(r, mu_d):
    """The float64 subset rule: keep the entries at or below the row's mu_d-th
    smallest key; a row tied at that cut keeps the mu_d that argpartition
    picks."""
    keep = r <= np.partition(r, mu_d - 1, axis=1)[:, mu_d - 1 : mu_d]
    for i in np.flatnonzero(keep.sum(axis=1) != mu_d):
        keep[i] = False
        keep[i, np.argpartition(r[i], mu_d - 1)[:mu_d]] = True
    return keep


@pytest.mark.parametrize("low_values", [1 << 21, 3])
@pytest.mark.parametrize("mu_d", [1, 7, 33, 64])
def test_subset_cut_on_top_bits_is_the_float_rule(mu_d, low_values):
    """Keys k / 2^53 whose top 32 bits take 3 values, so most rows are tied
    on them at the cut; with 3 values of the low 21 bits too, many rows are
    tied on the float64 keys themselves."""
    rng = SeedPath(23).child("low", low_values).stream()
    top = rng.integers(0, 3, size=(200, 64))
    r = (top * (1 << 21) + rng.integers(0, low_values, size=top.shape)) / 2.0**53
    assert np.array_equal((r * 2.0**32).astype(np.uint32), top)
    keep = _subset_masks(r, mu_d)
    assert np.all(keep.sum(axis=1) == mu_d)
    assert np.array_equal(keep, _float_rule(r, mu_d))


def test_h2_rows():
    sd = np.ones((1, 2))
    assert np.allclose(rotate_batch(np.array([1.0, 0.0]), sd), [1 / np.sqrt(2)] * 2)
    assert np.allclose(rotate_batch(np.array([1.0, 1.0]), sd), [np.sqrt(2), 0.0])


def test_non_pow2_rejected():
    rng = SeedPath(0).stream()
    with pytest.raises(ValueError):
        sample_signs_batch(rng, 1, 3)
    with pytest.raises(ValueError):
        rotate_batch(np.ones(5), np.ones((1, 5)))


def test_double_application_is_identity():
    sd = sample_signs_batch(SeedPath(1).stream(), 1, 16)
    y = SeedPath(2).stream().normal(size=16)
    assert np.allclose(sd * (sd * y), y)


def _top32_of_doubles(bit_generator, seed, count):
    """floor(u * 2^32) of the next `count` doubles u of a fresh generator,
    worked out with Python ints from its integer outputs and the way it
    makes a double of 53 bits: x >> 11 of one 64-bit output x for PCG64,
    Philox and SFC64, (a >> 5) << 26 | b >> 6 of two 32-bit outputs a, b
    for MT19937.  The top 32 of the 53 bits are k >> 21."""
    g = np.random.Generator(bit_generator(seed))
    if bit_generator is np.random.MT19937:
        words = g.integers(0, 1 << 32, size=2 * count, dtype=np.uint32).tolist()
        ks = [(a >> 5) << 26 | b >> 6 for a, b in zip(words[::2], words[1::2])]
    else:
        ks = [x >> 11 for x in g.integers(0, 1 << 64, size=count, dtype=np.uint64).tolist()]
    return [k >> 21 for k in ks]


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_signs_are_32_bits_of_each_draw(bit_generator):
    """Sign j of a row is -1 where bit j % 32 (least significant first) of
    the top 32 bits of the row's draw j // 32 is 1: a sign diagonal of d
    entries takes ceil(d / 32) doubles and leaves the stream where that many
    `random()` draws leave it, on every bit generator."""
    for n, d in [(1, 1), (3, 2), (2, 8), (1, 32), (3, 64), (5, 256), (2, 1024)]:
        seed = n * 1000 + d
        words = -(-d // 32)
        top = _top32_of_doubles(bit_generator, seed, n * words)
        want = [[-1.0 if top[i * words + j // 32] >> (j % 32) & 1 else 1.0 for j in range(d)]
                for i in range(n)]
        assert sign_words(np.random.Generator(bit_generator(seed)), n, d).shape == (n, words)
        g, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        got = sample_signs_batch(g, n, d)
        assert got.dtype == np.float64 and got.tolist() == want, (n, d)
        ref.random(n * words)
        assert g.random(3).tolist() == ref.random(3).tolist()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_every_sign_position_is_random(bit_generator):
    """Each of the 32 bit positions of a draw carries a fair sign, the high
    ones too (a 32-bit generator's raw words would leave them all +1)."""
    signs = sample_signs_batch(np.random.Generator(bit_generator(5)), 4000, 64)
    assert np.all(np.abs(signs.mean(axis=0)) < 0.07)


def test_signs_are_float64():
    """float64 whatever the draw's dtype: numpy's value-based casting (1.x)
    and NEP 50 (2.x) would both make signs of float32 draws float32."""
    for n, d in [(1, 1), (1, 256), (64, 256)]:
        signs = sample_signs_batch(SeedPath(14).stream(), n, d)
        assert signs.dtype == np.float64 and signs.shape == (n, d)
        assert np.all(np.abs(signs) == 1.0)


@pytest.mark.parametrize("m", [1, 3, 64])
def test_rotation_is_the_unscaled_transform_bit_for_bit(m):
    """`rotate_batch` and `unrotate_batch`, which scale inside the transform,
    give the bits of fwht(y * s) / sqrt(d) and s * (fwht(z) / sqrt(d)), for
    per-row and shared inputs alike, odd and even p, and inputs far from 1
    whose intermediates stay normal.  The scaled factors they apply are
    cached read-only, as the Hadamard matrices are."""
    rng = SeedPath(15).child("m", m).stream()
    for p in range(14):
        d = 1 << p
        s = sample_signs_batch(rng, m, d)
        for scale in (1.0, 1e-150, 1e150):
            for y in (rng.normal(size=(m, d)) * scale, rng.normal(size=d) * scale):
                key = (d, scale, y.shape)
                assert np.array_equal(rotate_batch(y, s), fwht(y * s) / np.sqrt(d)), key
                assert np.array_equal(unrotate_batch(y, s), s * (fwht(y) / np.sqrt(d))), key
        for h in (*_scaled_factors(d), _hadamard(d)):
            assert not h.flags.writeable, d


def test_sign_mean():
    rng = SeedPath(3).stream()
    signs = sample_signs_batch(rng, 10**6 // 64, 64)  # 10^6 signs
    assert abs(signs.mean()) < 0.01


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_matches_naive_matrix(d):
    sd = sample_signs_batch(SeedPath(d).stream(), 1, d)
    R = naive_hadamard(d) @ np.diag(sd[0]) / np.sqrt(d)
    y = SeedPath(d + 100).stream().normal(size=d)
    assert np.allclose(rotate_batch(y, sd)[0], R @ y, atol=1e-12)
    assert np.allclose(unrotate_batch(rotate_batch(y, sd), sd)[0], np.linalg.solve(R, R @ y), atol=1e-9)


def test_norm_preserved_d256():
    sd = sample_signs_batch(SeedPath(7).stream(), 1, 256)
    y = SeedPath(8).stream().normal(size=256)
    assert abs(np.linalg.norm(rotate_batch(y, sd)) - np.linalg.norm(y)) < 1e-9 * np.linalg.norm(y)


def test_unrotate_inverts():
    sd = sample_signs_batch(SeedPath(9).stream(), 1, 8)
    y = SeedPath(10).stream().normal(size=8)
    assert np.allclose(unrotate_batch(rotate_batch(y, sd), sd), y, atol=1e-9)
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert np.allclose(unrotate_batch(rotate_batch(e1, sd), sd), e1, atol=1e-12)


def test_dimension_mismatch():
    sd = sample_signs_batch(SeedPath(11).stream(), 1, 8)
    with pytest.raises(ValueError):
        rotate_batch(np.ones(4), sd)
    with pytest.raises(ValueError):
        unrotate_batch(np.ones(16), sd)


def test_pad_to_pow2():
    padded, n = pad_to_pow2(np.array([1.0, 2.0, 3.0]))
    assert n == 3 and padded.shape == (4,) and padded[3] == 0.0
    same, n4 = pad_to_pow2(np.arange(4.0))
    assert n4 == 4 and np.array_equal(same, np.arange(4.0))
    y5 = SeedPath(12).stream().normal(size=5)
    p5, _ = pad_to_pow2(y5)
    assert np.isclose(np.linalg.norm(p5), np.linalg.norm(y5))


def test_subgaussian_tail_witness():
    # after rotation each coordinate is subgaussian with variance factor B^2/d
    d, trials = 64, 100_000
    rng = SeedPath(13).stream()
    y = rng.normal(size=d)
    y /= np.linalg.norm(y)  # B = 1
    B = 1.0
    signs = sample_signs_batch(rng, trials, d)
    coord = fwht(signs * y)[:, 3] / np.sqrt(d)
    for mult in (1.0, 2.0, 3.0):
        M = mult * B / np.sqrt(d)
        emp = np.mean(np.abs(coord) >= M)
        assert emp <= 2 * np.exp(-d * M**2 / (2 * B**2)) + 0.01
