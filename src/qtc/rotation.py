"""Randomized Hadamard rotation: R = (1/sqrt(d)) * H * diag(signs).

The forward map multiplies by the random sign diagonal and then applies the
Walsh-Hadamard transform, computed through a Kronecker factorization
H_d = H_a kron H_b as two matrix products; the inverse undoes both.  Rotation
preserves the l2 norm exactly (up to float roundoff), which is what every
bound built on top of it relies on.  The other shared draws of the rotated
quantizers, sampled coordinate subsets, live here too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignDiagonal",
    "sample_signs",
    "check_sample_count",
    "sample_subset",
    "sample_subset_masks",
    "rotate",
    "unrotate",
    "pad_to_pow2",
    "fwht",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class SignDiagonal:
    signs: np.ndarray  # entries in {-1.0, +1.0}
    d: int

    def __post_init__(self):
        if not _is_pow2(self.d):
            raise ValueError(f"dimension {self.d} is not a power of two")
        if self.signs.shape != (self.d,):
            raise ValueError("sign vector length does not match d")


def sample_signs(rng: np.random.Generator, d: int) -> SignDiagonal:
    """Draw d iid uniform signs from the stream (shared randomness)."""
    if not _is_pow2(d):
        raise ValueError(f"dimension {d} is not a power of two")
    signs = rng.integers(0, 2, size=d).astype(float) * 2.0 - 1.0
    return SignDiagonal(signs, d)


def sample_signs_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) array of iid signs; row i is the sign diagonal of repetition i."""
    if not _is_pow2(d):
        raise ValueError(f"dimension {d} is not a power of two")
    return rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0


def check_sample_count(mu_d: int, d: int) -> None:
    """Reject a subset size outside 1..d; subsampled codecs and samplers call
    this before their first draw."""
    if not 1 <= mu_d <= d:
        raise ValueError(f"sample count {mu_d} outside 1..{d}")


def sample_subset(rng: np.random.Generator, d: int, mu_d: int) -> np.ndarray:
    """Shared uniformly random subset of range(d) of size mu_d, sorted."""
    return np.sort(rng.permutation(d)[:mu_d])


def sample_subset_masks(rng: np.random.Generator, n: int, d: int, mu_d: int) -> np.ndarray:
    """(n, d) boolean mask; row i marks an independent uniform mu_d-subset.

    One uniform per entry is drawn, rng.random((n, d)), and each row keeps
    its mu_d smallest draws: the entries at or below the row's mu_d-th
    smallest value.  A row tied at that cut would keep more than mu_d; only
    such rows are re-picked, by argpartition, so every row keeps exactly
    mu_d.
    """
    r = rng.random((n, d))
    keep = r <= np.partition(r, mu_d - 1, axis=1)[:, mu_d - 1 : mu_d]
    if np.count_nonzero(keep) != n * mu_d:  # every row keeps >= mu_d
        tied = np.flatnonzero(np.count_nonzero(keep, axis=1) != mu_d)
        picks = np.argpartition(r[tied], mu_d - 1, axis=1)[:, :mu_d]
        keep[tied] = False
        keep[tied[:, None], picks] = True
    return keep


@functools.lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """Read-only Sylvester Hadamard matrix H_n (n a power of two)."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def fwht(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform H x (unnormalized) over the last axis.

    With d = a * b, H_d = H_a kron H_b, so each length-d vector reshaped to an
    (a, b) matrix X maps to H_a X H_b: two BLAS matmuls, O(d (a + b)) work per
    vector with a and b near sqrt(d).  Works on any leading batch shape;
    returns a new float array.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not _is_pow2(d):
        raise ValueError(f"dimension {d} is not a power of two")
    p = d.bit_length() - 1
    a, b = 1 << (p // 2), 1 << (p - p // 2)
    y = x.reshape(-1, b) @ _hadamard(b)
    return (_hadamard(a) @ y.reshape(-1, a, b)).reshape(x.shape)


def rotate(y: np.ndarray, signs: SignDiagonal) -> np.ndarray:
    """(1/sqrt(d)) H (signs * y); last axis must have length signs.d."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != signs.d:
        raise ValueError(f"vector length {y.shape[-1]} != d {signs.d}")
    return fwht(y * signs.signs) / np.sqrt(signs.d)


def unrotate(z: np.ndarray, signs: SignDiagonal) -> np.ndarray:
    """Exact inverse of rotate: signs * H z / sqrt(d)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != signs.d:
        raise ValueError(f"vector length {z.shape[-1]} != d {signs.d}")
    return signs.signs * (fwht(z) / np.sqrt(signs.d))


def rotate_batch(y: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Batched rotate with per-row sign diagonals (shapes broadcast on rows)."""
    d = signs.shape[-1]
    return fwht(y * signs) / np.sqrt(d)


def unrotate_batch(z: np.ndarray, signs: np.ndarray) -> np.ndarray:
    d = signs.shape[-1]
    return signs * (fwht(z) / np.sqrt(d))


def pad_to_pow2(y: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero-pad the last axis to the next power of two; returns (padded,
    original_length).  An input that needs no padding is returned uncopied."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    d = next_pow2(n)
    if d == n:
        return y, n
    out = np.zeros(y.shape[:-1] + (d,))
    out[..., :n] = y
    return out, n
