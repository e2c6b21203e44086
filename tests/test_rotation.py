import numpy as np
import pytest

from qtc.core import SeedPath
from qtc.rotation import (
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


def test_subset_masks_exact_count_under_tied_draws():
    class TiedDraws:
        def random(self, shape):
            return np.floor(SeedPath(21).stream().random(shape) * 3) / 3

    for mu_d in (1, 7, 64):
        keep = sample_subset_masks(TiedDraws(), 50, 64, mu_d)
        assert np.all(keep.sum(axis=1) == mu_d)


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


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("half_buffered", [False, True])
def test_signs_are_the_range_two_draw(bit_generator, half_buffered):
    """The signs taken from the top bits of the 32-bit words are numpy's
    `integers(0, 2) * 2.0 - 1.0`, and leave the stream in the same place, on
    every bit generator, at odd word counts, and also when the generator
    holds a buffered 32-bit half of a 64-bit output."""
    for n, d in [(1, 1), (3, 1), (1, 2), (3, 8), (5, 64), (7, 256), (10, 256), (1000, 64),
                 (40, 256)]:
        old, new = (np.random.Generator(bit_generator(n * 1000 + d)) for _ in range(2))
        if half_buffered:  # one 32-bit draw leaves the other half of its output buffered
            for g in (old, new):
                g.integers(0, 1 << 32, size=1, dtype=np.uint32)
            if bit_generator is np.random.PCG64:
                assert new.bit_generator.state["has_uint32"] == 1
        ref = old.integers(0, 2, size=(n, d)) * 2.0 - 1.0
        got = sample_signs_batch(new, n, d)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (n, d)
        assert repr(new.bit_generator.state) == repr(old.bit_generator.state)
        assert new.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
            old.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()
        assert sign_words(new, n, d).dtype == np.float32


def test_signs_are_float64():
    """float64 whatever the draw's dtype: numpy's value-based casting (1.x)
    and NEP 50 (2.x) would both make signs of float32 draws float32."""
    for n, d in [(1, 1), (1, 256), (64, 256)]:
        signs = sample_signs_batch(SeedPath(14).stream(), n, d)
        assert signs.dtype == np.float64 and signs.shape == (n, d)
        assert np.all(np.abs(signs) == 1.0)


@pytest.mark.parametrize("m", [1, 64])
def test_rotation_is_the_unscaled_transform_bit_for_bit(m):
    """`rotate_batch` and `unrotate_batch`, which scale in place, give the
    bits of fwht(y * s) / sqrt(d) and s * (fwht(z) / sqrt(d)), for per-row
    and shared inputs alike."""
    rng = SeedPath(15).child("m", m).stream()
    for p in range(13):
        d = 1 << p
        s = sample_signs_batch(rng, m, d)
        for y in (rng.normal(size=(m, d)), rng.normal(size=d)):
            assert np.array_equal(rotate_batch(y, s), fwht(y * s) / np.sqrt(d)), (d, y.shape)
            assert np.array_equal(unrotate_batch(y, s), s * (fwht(y) / np.sqrt(d))), (d, y.shape)


def test_sign_mean():
    rng = SeedPath(3).stream()
    signs = rng.integers(0, 2, size=10**6) * 2.0 - 1.0
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
    signs = rng.integers(0, 2, size=(trials, d)) * 2.0 - 1.0
    coord = fwht(signs * y)[:, 3] / np.sqrt(d)
    for mult in (1.0, 2.0, 3.0):
        M = mult * B / np.sqrt(d)
        emp = np.mean(np.abs(coord) >= M)
        assert emp <= 2 * np.exp(-d * M**2 / (2 * B**2)) + 0.01
