"""Randomized Hadamard rotation: R = (1/sqrt(d)) * H * diag(signs).

The forward map multiplies by the random sign diagonal and then applies the
Walsh-Hadamard transform, computed through a Kronecker factorization
H_d = H_a kron H_b as two matrix products; the inverse undoes both.  Rotation
preserves the l2 norm exactly (up to float roundoff), which is what every
bound built on top of it relies on.  Every function works on batches: row i
of an (n, d) array is repetition i, and a codec is the case n = 1.  Each
shared draw of the rotated quantizers is split into its Generator calls
(`sign_words`; one uniform a row for the window of kept coordinates of a
subsampled code) and the arithmetic on the drawn values (`_signs_of`; the
window's indices in `rotated_kernel`), so a sampler can draw a large chunk
and work through it in smaller blocks of rows.  A sign draw carries 32
signs: the top 32 of the 53 bits of one uniform, so a sign diagonal of d
entries costs ceil(d / 32) 64-bit outputs of the stream.
The H_a, H_b pair of each dimension is built once, and so is the scaled
pair the rotation applies: it carries 2^-floor(p/2) of 1/sqrt(d), d = 2^p,
so the rotation scales by multiplying inside its two matmuls instead of
dividing the whole result (and for odd p divides once by sqrt(2)).  That
gives the bits of fwht(x) / sqrt(d) whenever no intermediate is subnormal:
a power-of-two scale is exact and commutes with every rounding of the
matmuls, and fl(sqrt(2^p)) = 2^floor(p/2) * fl(sqrt(2)).  Subnormal
intermediates may round differently.
`rotated_kernel` is the one home of the rotate, subsample and correct steps
of the rotated codes (RATQ, RMQ and the RDAQ family): each of them gives it
only its per-coordinate rule on the sent rotated coordinates, ``encode(xk,
v, u)`` and ``decode(fields, yk, v)``, and it runs this module's own steps
(`sign_words`, `rotate_batch`, `unrotate_batch`) around that rule.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .core import Kernel, next_pow2

__all__ = [
    "next_pow2",
    "sign_words",
    "sample_signs_batch",
    "rotate_batch",
    "unrotate_batch",
    "pad_to_pow2",
    "fwht",
    "rotated_kernel",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def sign_words(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, ceil(d / 32)) uniforms that carry the sign diagonals of n
    repetitions, 32 signs per draw (`_signs_of`).

    Each draw is one 64-bit output of the generator, a double of 53 random
    bits; its top 32 bits are the signs."""
    if not _is_pow2(d):
        raise ValueError(f"dimension {d} is not a power of two")
    return rng.random((n, -(-d // 32)))


# The eight signs of each byte value b, least significant bit first: row b
# is 1 - 2 * (the bits of b); read-only.
_BYTE_SIGNS = 1.0 - 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                                         bitorder="little").astype(np.float64)
_BYTE_SIGNS.flags.writeable = False


def _signs_of(words: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) float64 signs of `sign_words` draws: sign j of a row is
    -1.0 where bit j % 32 (least significant first) of floor(u * 2^32) is
    1, u the row's draw j // 32, else 1.0.

    floor(u * 2^32) is exactly the top 32 of the draw's 53 bits.  Its "<u4"
    bytes are little-endian on every host, so the bit order does not
    depend on the machine; each byte looks up its eight signs."""
    octets = (words * 2.0**32).astype("<u4").view(np.uint8)
    return _BYTE_SIGNS.take(octets, axis=0).reshape(len(words), 8 * octets.shape[1])[:, :d]


def sample_signs_batch(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) array of iid signs; row i is the sign diagonal of repetition i."""
    return _signs_of(sign_words(rng, n, d), d)


@functools.lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """Read-only Sylvester Hadamard matrix H_n (n a power of two)."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=None)
def _kron_factors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(H_a, H_b) with H_d = H_a kron H_b, a = 2^(p // 2) and b =
    2^(p - p // 2) for d = 2^p; ValueError unless d is a power of two."""
    if not _is_pow2(d):
        raise ValueError(f"dimension {d} is not a power of two")
    p = d.bit_length() - 1
    return _hadamard(1 << (p // 2)), _hadamard(1 << (p - p // 2))


@functools.lru_cache(maxsize=None)
def _scaled_factors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `_kron_factors(d)` that carry 2^-(p // 2) between them, d =
    2^p: H_a times 2^-(k // 2) and H_b times 2^-(k - k // 2), k = p // 2."""
    h_a, h_b = _kron_factors(d)
    k = (d.bit_length() - 1) // 2
    scaled = h_a * 2.0 ** -(k // 2), h_b * 2.0 ** -(k - k // 2)
    for h in scaled:
        h.flags.writeable = False
    return scaled


def _kron_apply(x: np.ndarray, h_a: np.ndarray, h_b: np.ndarray) -> np.ndarray:
    """(H_a kron H_b) x over the last axis of x, as two matmuls: each
    length-d vector reshaped to an (a, b) matrix X maps to H_a X H_b."""
    a, b = len(h_a), len(h_b)
    y = x.reshape(-1, b) @ h_b
    return (h_a @ y.reshape(-1, a, b)).reshape(x.shape)


def fwht(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform H x (unnormalized) over the last axis.

    With d = a * b, H_d = H_a kron H_b, so each length-d vector reshaped to an
    (a, b) matrix X maps to H_a X H_b: two BLAS matmuls, O(d (a + b)) work per
    vector with a and b near sqrt(d).  Works on any leading batch shape;
    returns a new float array.
    """
    x = np.asarray(x, dtype=float)
    return _kron_apply(x, *_kron_factors(x.shape[-1]))


_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _normalized_wht(d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> H x / sqrt(d) over a last axis of length d, with its
    constants fixed once per dimension: the `_scaled_factors` transform,
    then for odd p one division by sqrt(2).  The bits of fwht(x) /
    math.sqrt(d) unless an intermediate is subnormal (module docstring)."""
    h_a, h_b = _scaled_factors(d)
    odd_p = d.bit_length() % 2 == 0

    def transform(x: np.ndarray) -> np.ndarray:
        out = _kron_apply(x, h_a, h_b)
        if odd_p:
            out /= _SQRT2
        return out

    return transform


def rotate_batch(y: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(1/sqrt(d)) H (signs * y) for each row, with per-row sign diagonals
    (shapes broadcast on rows).  The 1/sqrt(d) is applied inside the
    transform's matmuls (`_normalized_wht`), with the bits of
    fwht(signs * y) / sqrt(d) wherever no intermediate is subnormal."""
    x = y * signs
    return _normalized_wht(x.shape[-1])(x)


def unrotate_batch(z: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Exact inverse of rotate_batch: signs * (H z / sqrt(d)), scaled inside
    the transform as in rotate_batch, with the bits of signs * (fwht(z) /
    sqrt(d)) wherever no intermediate is subnormal.  The product is taken
    in place when z already has the shape of the result."""
    z = np.asarray(z, dtype=float)
    out = _normalized_wht(z.shape[-1])(z)
    if out.shape != signs.shape:
        return signs * out
    out *= signs
    return out


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


@functools.lru_cache(maxsize=None)
def _ring_windows(d_pad: int, mu_d: int) -> np.ndarray:
    """Read-only (2 d_pad - mu_d + 1, mu_d) view whose row b holds the cyclic
    window b, b + 1, ..., b + mu_d - 1 (mod d_pad) for every start b <
    d_pad: the sliding windows of the ring 0..d_pad - 1, 0..d_pad - 1.  The
    view shares the ring's 2 d_pad entries, so it takes O(d_pad) memory
    where a table of the windows would take d_pad * mu_d."""
    ring = np.arange(2 * d_pad, dtype=np.intp) % d_pad
    ring.flags.writeable = False
    return np.lib.stride_tricks.sliding_window_view(ring, mu_d)


def rotated_kernel(d: int, mu_d: Optional[int], row_elems: int, check_input, check_side,
                   encode, decode, write, read,
                   shared: Optional[Callable] = None, noise: Optional[Callable] = None) -> Kernel:
    """The `core.Kernel` of a rotated code of dimension d: rotate by the
    shared signs, send the kept coordinates (all d_pad of them when mu_d is
    None, a shared window of mu_d otherwise) and move the rotated side
    information by a correction on the sent ones.  The code gives only its
    per-coordinate rule on the sent rotated coordinates:

    - ``encode(xk, v, u)``: the fields of the sent rotated coordinates xk,
      (m, width);
    - ``decode(fields, yk, v)``: the correction of each sent coordinate,
      (m, width), against its rotated side information yk (zeros when there
      is none).

    The estimate is yr + correction, or with mu_d yr with each sent entry
    moved by 1/mu = d_pad / mu_d times its correction, unrotated and cut to
    d.  The draws of m repetitions, in the one order that codecs and
    samplers use: the (m, ceil(d_pad / 32)) `sign_words`, with mu_d one
    window uniform per row, (m, 1), then ``v = shared(rng, (m, width))``
    (None without `shared`), then the encoder's private ``u = noise(rng,
    (m, width))`` (None without `noise`); width is d_pad or mu_d.
    ``check_input``, ``check_side``, ``write``, ``read`` and ``row_elems``
    are the kernel's own.  ValueError unless mu_d is None or an integer in
    1..d_pad.

    A row with window uniform u keeps the cyclic window b, b + 1, ..., b +
    mu_d - 1 (mod d_pad), b = floor(u d_pad) (exact: d_pad is a power of
    two), and sends it in that order.  The thesis keeps a uniform
    mu_d-subset instead; the window has the same guarantees.  Every
    subsampled code here works out each sent coordinate's fields and
    correction from that coordinate alone and its own uniforms (RATQ with
    s = 1, `RatqConfig.for_subsampling`; RMQ and RDAQ per coordinate), and
    those uniforms, like the signs, are iid and drawn independently of the
    window.  So the squared error of the rotated estimate is a sum of
    per-coordinate terms, each of which depends on the window only through
    P(j kept) = mu_d / d_pad, the same for the window as for a uniform
    subset: each client's unbiasedness and expected MSE are exactly the
    subset's, and clients, drawing from their own streams, stay
    independent.

    With mu_d the kernel builds once the `_ring_windows` view: a row's kept
    indices are row b of it plus d_pad times the row's number.
    """
    d_pad = next_pow2(d)
    if mu_d is not None:
        if isinstance(mu_d, bool) or not isinstance(mu_d, (int, np.integer)):
            raise ValueError(f"sample count mu_d = {mu_d!r} is not an integer")
        if not 1 <= mu_d <= d_pad:
            raise ValueError(f"sample count mu_d = {mu_d} outside 1..{d_pad}")
    width = d_pad if mu_d is None else mu_d
    mu = width / d_pad
    windows = None if mu_d is None else _ring_windows(d_pad, mu_d)

    def draw(rng, m):
        return (sign_words(rng, m, d_pad), None if mu_d is None else rng.random((m, 1)),
                None if shared is None else shared(rng, (m, width)))

    def derive(draws):
        words, u, v = draws
        kept = None
        if u is not None:  # flat indices of each row's window, in window order
            kept = windows[(u[:, 0] * d_pad).astype(np.intp)]
            kept += np.arange(0, d_pad * len(u), d_pad)[:, None]
            kept = kept.ravel()
        return _signs_of(words, d_pad), kept, v

    def sent(a, kept):
        return a if kept is None else a.reshape(-1)[kept].reshape(len(a), width)

    def encode_rows(rows, drawn, u):
        signs, kept, v = drawn
        return encode(sent(rotate_batch(pad_to_pow2(rows)[0], signs), kept), v, u)

    def decode_rows(fields, side, drawn):
        signs, kept, v = drawn
        yr = np.zeros(signs.shape) if side is None else rotate_batch(pad_to_pow2(side)[0], signs)
        corr = decode(fields, sent(yr, kept), v)
        if kept is None:
            yr += corr
        else:
            yr.ravel()[kept] += corr.ravel() / mu
        return unrotate_batch(yr, signs)[:, :d]

    return Kernel(
        d, row_elems, check_input, check_side, draw,
        lambda rng, x, m: None if noise is None else noise(rng, (m, width)),
        derive, encode_rows, decode_rows, write, read,
    )
