"""Bit-level I/O, reproducible seed derivation, and the common quantizer contract.

Conventions used by every encoder/decoder pair in this package:

* Bit fields are MSB-first and packed back to back with no alignment padding,
  so every bit-budget assertion is exact.  A block of equal-width fields is
  packed into int64 words, `63 // width` fields to a word, and the words are
  joined into the message; the bits are the same as field by field.  A
  block read back is range-checked where it is read: `BitReader.read_fields`
  takes the block's largest legal value and makes one `max` over it.
* Encoder and decoder are driven by streams derived from the same SeedPath.
  A path's 64-bit key is derived once, when the path is made (a child's from
  its parent's key), so seeding a stream costs the same at any depth.  A
  round trip derives the path's PCG64 seed words once and builds two fresh
  generators from them, one for the encoder and one for the decoder; each
  starts where ``path.stream()`` does, and nothing is rewound.  The streams
  of many children of one path are derived together
  (`SeedPath.child_streams`, which `run_dme` calls for its client
  streams): their keys and numpy's SeedSequence seed words are worked out
  as arrays, each generator in the state of ``path.child(role, i).stream()``.
  Shared randomness (rotation signs, sampled windows, dither uniforms that the
  decoder must regenerate) is always drawn *first* and in the same order on
  both sides; encoder-private randomness (randomized rounding) is drawn after
  all shared values, so the decoder never needs it.  A kernel draws only
  what its arithmetic reads: 32 signs to a draw, and a per-coordinate
  uniform for each coordinate it sends, not for every coordinate.

Every quantizer in this package is declared as a `Kernel`, and the shared
code enforces that order: the codec that `kernel_quantizer` builds and the
sampler `Kernel.run` both check their input before any draw, then make the
kernel's shared draws and its private ones (`draw`, then `noise`), and only
then run its arithmetic (`derive`, `encode`, `decode`), which makes no
draw.  So a codec round trip under a SeedPath is the one row the sampler
draws for n = 1 from that path's stream.  The sampler draws in large chunks
and does the arithmetic in blocks of at most `_BLOCK_ELEMS // d_pad` rows,
which join the chunks of several clients or cut one chunk into several;
every row comes out the same bits either way.

A kernel's input check is `check_vector` where its domain is every finite
vector, and otherwise one `check_ball` call, which states its norm ball
(order and radius) and rejects a norm above it, or one that overflows, in
one message form and with no floating-point warning.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

import numpy as np

__all__ = [
    "BitString",
    "BitReader",
    "SeedPath",
    "Quantizer",
    "Kernel",
    "kernel_quantizer",
    "MalformedStreamError",
    "TruncatedStreamError",
    "check_vector",
    "check_ball",
    "check_config",
    "next_pow2",
]

_MASK64 = (1 << 64) - 1

# The 63 // w fields of a w-bit word, first field in the highest bits: the
# right shift of each (_FIELD_SHIFTS[w]) and its weight 2^shift
# (_FIELD_WEIGHTS[w]).
_FIELD_SHIFTS = [None] + [np.arange(63 // w - 1, -1, -1, dtype=np.int64) * w
                          for w in range(1, 64)]
_FIELD_WEIGHTS = [None] + [np.int64(1) << shifts for shifts in _FIELD_SHIFTS[1:]]


class MalformedStreamError(ValueError):
    """Raised by every decoder for a message it cannot have been sent:
    truncated, over-long, or carrying a field value out of range.

    A ValueError, so callers that catch ValueError keep working.
    """


class TruncatedStreamError(MalformedStreamError):
    """Raised when a read runs past the end of a BitString."""


def _shaped(x, d: int, what: str) -> np.ndarray:
    """`x` as a float vector of length d or as (m, d) rows; ValueError for
    another shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):  # a codec's one vector pays one comparison
        if x.ndim != 2:
            raise ValueError(f"{what} has shape {x.shape}, expected ({d},)")
        if x.shape[1] != d:
            raise ValueError(f"{what} rows have length {x.shape[1]}, expected {d}")
    return x


def check_vector(x, d: int, what: str = "input") -> np.ndarray:
    """`x` as a float vector of length d or as (m, d) rows; raises
    ValueError if it has another shape or a NaN or infinite entry.

    Kernels whose domain is every finite vector call this in their input
    and side-information checks, which `Kernel.run` and the codec make
    before their first draw; the others call `check_ball`.
    """
    x = _shaped(x, d, what)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} has non-finite entries")
    return x


# The relative slack every norm-bound check allows: a vector scaled to norm
# exactly B may land a rounding step above it.
_NORM_SLACK = 1.0 + 1e-9


def _l2_norm(x: np.ndarray) -> float:
    """The l2 norm of one vector, or the largest of (m, d) rows (0 for no
    rows); inf, without a warning, where the sum of squares overflows.  A
    vector takes one `vdot`: a codec checks one vector a message, and a row
    reduction costs it three times as much.  Neither `vdot` nor `einsum`
    reports a floating-point overflow (`dot` and `matmul` do), so no error
    state is switched."""
    if x.ndim == 1:
        return math.sqrt(np.vdot(x, x))
    return math.sqrt(np.einsum("ij,ij->i", x, x).max(initial=0.0))


def check_ball(x, d: int, bound: float = math.inf, ord: float = 2,
               what: str = "input") -> np.ndarray:
    """What `check_vector` checks, and ValueError unless the l_ord norm of
    the vector, or of each of its rows, is finite and at most `bound` (up
    to `_NORM_SLACK`); ord is 1, 2, a real q > 2 or inf.  Every kernel
    whose domain is a norm ball states it in this one call.

    No norm raises a floating-point warning, and one that overflows is inf:
    l2 is `_l2_norm`; l1 an `einsum` sum of |x|, which (unlike `sum`) does
    not report an overflow; l_inf the largest |entry|, and l_q that entry
    times the l_q norm of |x| over it, whose entries lie in [0, 1] and, in
    the largest row, include a 1.  A NaN or infinite entry makes the norm
    NaN or inf, so the entries are checked only for a norm that fails."""
    x = _shaped(x, d, what)
    if ord == 2:
        norm = _l2_norm(x)
    elif ord == 1:
        norm = float(np.einsum("...i->...", np.abs(x)).max(initial=0.0))
    else:
        a = np.abs(x)
        norm = float(a.max(initial=0.0))
        if ord != math.inf and 0 < norm < math.inf:
            scale = max(norm, sys.float_info.min)  # whose inverse is finite
            np.power(np.multiply(a, 1 / scale, out=a), ord, out=a)
            norm = scale * float(np.einsum("...i->...", a).max()) ** (1 / ord)
    if not norm <= bound * _NORM_SLACK or norm == math.inf:
        check_vector(x, d, what)
        if norm == math.inf:
            raise ValueError(f"{what} l{ord:g} norm overflows double precision")
        raise ValueError(f"{what} l{ord:g} norm {norm:.6g} exceeds bound {bound:.6g}")
    return x


def _check_int(value, name: str, least: int) -> None:
    """ValueError, naming the field, unless `value` is an integer (not a
    bool) >= least; for config builders."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_config(d, B: Optional[float] = None) -> None:
    """ValueError, naming the parameter, unless the dimension d is an integer
    >= 1 and the norm bound B (if given) finite and positive; for builders."""
    _check_int(d, "dimension d", 1)
    if B is not None and not (math.isfinite(B) and B > 0):
        raise ValueError(f"norm bound B must be finite and positive, got {B!r}")


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


class BitString:
    """Append-only bit sequence with exact length accounting.

    The bits are one MSB-first Python int plus their count; leading zero
    bits exist only in the count.
    """

    __slots__ = ("_value", "_len")

    def __init__(self) -> None:
        self._value = 0
        self._len = 0

    @property
    def nbits(self) -> int:
        return self._len

    def __len__(self) -> int:
        return self._len

    def write_uint(self, value: int, width: int) -> "BitString":
        """Append `value` as a `width`-bit MSB-first field."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        value = int(value)
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._len += width
        return self

    def write_fields(self, values, width: int) -> "BitString":
        """Append each of `values` as a `width`-bit field, back to back.

        The fields are packed `63 // width` to an int64 word, as one product
        with the fields' weights, and the words are joined into the message
        int.  Zero fields pad the first word; they add nothing to the int."""
        if not 1 <= width <= 63:
            raise ValueError(f"field width must be in 1..63, got {width}")
        try:
            v = np.asarray(values, dtype=np.int64).ravel()
        except OverflowError:  # a value outside int64, so wider than any field
            bad = next(x for x in np.ravel(np.asarray(values, dtype=object))
                       if not -(1 << 63) <= x < 1 << 63)
            raise ValueError(f"value {bad} does not fit in {width} bits") from None
        if v.size == 0:
            return self
        if np.bitwise_or.reduce(v) >> width:  # a negative value or one too wide
            bad = v[(v < 0) | (v >> width != 0)][0]
            raise ValueError(f"value {bad} does not fit in {width} bits")
        weights = _FIELD_WEIGHTS[width]
        fields = np.zeros(-(-v.size // weights.size) * weights.size, dtype=np.int64)
        fields[fields.size - v.size:] = v
        step = weights.size * width
        packed = 0
        for word in (fields.reshape(-1, weights.size) @ weights).tolist():
            packed = (packed << step) | word
        return self.write_uint(packed, v.size * width)

    def to01(self) -> str:
        return format(self._value, f"0{self._len}b") if self._len else ""

    def extend(self, other: "BitString") -> "BitString":
        return self.write_uint(other._value, other._len) if other._len else self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._len == other._len
            and self._value == other._value
        )

    def __repr__(self) -> str:
        head = self.to01() if self._len <= 64 else self.to01()[:64] + "..."
        return f"BitString({head!r}, nbits={self._len})"


class BitReader:
    """Cursor over a BitString; reads advance the cursor."""

    def __init__(self, bs: BitString, cursor: int = 0) -> None:
        self._bs = bs
        self.cursor = cursor

    def read_uint(self, width: int) -> int:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        bs, end = self._bs, self.cursor + width
        if end > bs._len:
            raise TruncatedStreamError(
                f"read of {width} bits at {self.cursor} overruns length {bs._len}"
            )
        self.cursor = end
        return (bs._value >> (bs._len - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_fields(self, count: int, width: int, top: Optional[int] = None) -> np.ndarray:
        """Read `count` back-to-back `width`-bit fields as an int64 array.

        The bits are split into words of `63 // width` fields, the first
        word padded with leading zero fields as `write_fields` packs it, and
        each word into its fields with one shift-and-mask.  `top` is the
        largest value the block's format allows: a larger field raises
        MalformedStreamError, found by one `max` over the block.  Without
        it (and when it is the largest `width`-bit value) every field is
        legal and nothing is checked."""
        if not 1 <= width <= 63:
            raise ValueError(f"field width must be in 1..63, got {width}")
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        shifts = _FIELD_SHIFTS[width]
        packed = self.read_uint(count * width)
        pad = -count % shifts.size
        step = shifts.size * width
        mask = (1 << step) - 1
        words = np.array([(packed >> lo) & mask
                          for lo in range((count + pad) * width - step, -1, -step)],
                         dtype=np.int64)
        fields = ((words[:, None] >> shifts) & ((1 << width) - 1)).ravel()[pad:]
        if top is not None and top < (1 << width) - 1:
            high = fields.max()
            if high > top:
                raise MalformedStreamError(
                    f"malformed stream: {width}-bit field value {high} above its top {top}")
        return fields

    def finish(self) -> None:
        """Raise MalformedStreamError unless every bit has been read: no
        decoder accepts trailing bits."""
        if self.remaining:
            raise MalformedStreamError(f"malformed stream: {self.remaining} bits left over")

    @property
    def remaining(self) -> int:
        return self._bs.nbits - self.cursor


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=1024)
def _fnv64(s: str) -> int:
    h = 0xCBF29CE484222325
    for byte in s.encode("utf8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _mix_label(h: int, role: str, index: int) -> int:
    """The key of a path whose parent has key `h`, one (role, index) down."""
    return _splitmix64(_splitmix64(h ^ _fnv64(role)) ^ (index & _MASK64))


def _mix_labels(h: int, role: str, indices: np.ndarray) -> np.ndarray:
    """`_mix_label` of each of a uint64 array of indices (already masked to
    64 bits), as a uint64 array; the products wrap mod 2^64 as they do
    there."""
    x = indices ^ np.uint64(_splitmix64(h ^ _fnv64(role)))
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, ..., init * mult^n mod 2^32, as uint32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# numpy's SeedSequence with its pool of 4 uint32 words, on arrays of keys.
# Its hash multipliers do not depend on the data: the k-th hash of a pool
# word XORs in _SS_POOL[k] and multiplies by _SS_POOL[k + 1] (4 fills, then
# 3 mixes from each of the 4 source words), and output word j XORs in
# _SS_OUT[j] and multiplies by _SS_OUT[j + 1].
_SS_POOL = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_SS_OUT = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)


def _mix_consts(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The XOR and multiply constants of mixing from source word s, by
    destination word: the other three in order, each once, and 0 at s
    itself, whose result `_seed_words_of` puts back."""
    dst, k = [d for d in range(4) if d != s], 4 + 3 * s
    xor, mul = np.zeros(4, dtype=np.uint32), np.zeros(4, dtype=np.uint32)
    xor[dst], mul[dst] = _SS_POOL[k : k + 3], _SS_POOL[k + 1 : k + 4]
    return xor, mul


_SS_MIX = [_mix_consts(s) for s in range(4)]


def _seed_words_of(keys: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 words ``SeedSequence(k).generate_state(4,
    np.uint64)`` of each of m 64-bit keys, which is what ``PCG64(k)`` seeds
    from: numpy's algorithm on uint32 arrays, each of its steps one array
    operation over every key.

    A key is the entropy words (low, high); numpy hashes the absent high
    word of a key below 2^32 as it hashes 0.  The 8 uint32 output words of
    a key are viewed as 4 little-endian uint64, as numpy lays them out."""
    keys = np.ascontiguousarray(keys, dtype="<u8")
    pool = np.zeros((keys.size, 4), dtype=np.uint32)
    pool[:, :2] = keys.view("<u4").reshape(-1, 2)
    pool ^= _SS_POOL[:4]
    pool *= _SS_POOL[1:5]
    pool ^= pool >> _SS_SHIFT
    for s, (xor, mul) in enumerate(_SS_MIX):
        h = pool[:, s, None] ^ xor
        h *= mul
        h ^= h >> _SS_SHIFT
        h *= _SS_MIX_R
        mixed = pool * _SS_MIX_L
        mixed -= h
        mixed ^= mixed >> _SS_SHIFT
        mixed[:, s] = pool[:, s]
        pool = mixed
    out = np.concatenate((pool, pool), axis=1)
    out ^= _SS_OUT[:8]
    out *= _SS_OUT[1:9]
    out ^= out >> _SS_SHIFT
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


Label = Tuple[str, int]


@dataclass(frozen=True)
class SeedPath:
    """Deterministic derivation path for shared randomness.

    The same (root_seed, labels) always yields the same stream on every
    platform; distinct label lists yield streams that are independent for all
    practical purposes (64-bit keyed mixing, no cryptographic claim).

    The 64-bit key that seeds the stream is derived once, when the path is
    made: `child` derives it from its parent's key with two SplitMix64 steps,
    so it costs the same at any depth.  The key takes no part in equality,
    hashing or the repr, which stay those of (root_seed, labels).
    """

    root_seed: int
    labels: Tuple[Label, ...] = ()
    _key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = _splitmix64(self.root_seed & _MASK64)
        for role, index in self.labels:
            h = _mix_label(h, role, index)
        object.__setattr__(self, "_key", h)

    def child(self, role: str, index: int = 0) -> "SeedPath":
        index = int(index)
        path = object.__new__(SeedPath)
        object.__setattr__(path, "root_seed", self.root_seed)
        object.__setattr__(path, "labels", self.labels + ((role, index),))
        object.__setattr__(path, "_key", _mix_label(self._key, role, index))
        return path

    def mixed(self) -> int:
        """The path's 64-bit key."""
        return self._key

    def stream(self) -> np.random.Generator:
        """Derive the random stream for this path (uniform 64-bit words; reals
        are 53-bit mantissa draws in [0, 1))."""
        return np.random.Generator(np.random.PCG64(self._key))

    def child_streams(self, role: str, indices) -> list:
        """The streams of ``self.child(role, i)`` for each i of `indices`,
        each generator in the state of ``self.child(role, i).stream()``.

        The children's keys and their PCG64 seed words are derived together,
        as arrays (`_seed_words_of`), so m streams cost one derivation and m
        generators; `stream()` keeps numpy's own derivation, faster for one."""
        indices = np.array([int(i) & _MASK64 for i in indices], dtype=np.uint64)
        if indices.size == 0:
            return []
        words = _seed_words_of(_mix_labels(self._key, role, indices))
        return [_SeedWords.of_words(row).stream() for row in words]


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The PCG64 seed words of one key, derived once: ``PCG64(key)`` asks
    ``SeedSequence(key)`` for these four uint64 words, so a PCG64 seeded
    from this object starts in the same state, and several can be seeded
    for the cost of one derivation."""

    __slots__ = ("_words",)

    def __init__(self, key: int) -> None:
        self._words = np.random.SeedSequence(key).generate_state(4, np.uint64)

    @classmethod
    def of_words(cls, words: np.ndarray) -> "_SeedWords":
        """Seed words already derived: 4 contiguous uint64, as from
        `_seed_words_of`."""
        seed = cls.__new__(cls)
        seed._words = words
        return seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words hold 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self._words

    def stream(self) -> np.random.Generator:
        """A fresh generator, in the state of ``SeedPath.stream()``."""
        return np.random.Generator(np.random.PCG64(self))


EncodeFn = Callable[[np.ndarray, Optional[np.ndarray], np.random.Generator], BitString]
DecodeFn = Callable[[BitString, Optional[np.ndarray], np.random.Generator], np.ndarray]


# The elements of one (rows, d_pad) float array in an arithmetic block: at
# 128 KiB a block's temporaries are reused from the heap, where a chunk's
# 2 MiB arrays are often mapped and zero-filled afresh.  On the perfbench
# montecarlo shapes 1.5 * 2^13 and 2^14 were fastest: 2^13 cuts the 40-trial
# no-side-info chunks, 1.5 * 2^14 (96 rows at d_pad = 256) is slower on the
# 10-trial known-delta clients, and only 2^14 keeps the 256-row boosted RDAQ
# N = 4 chunk at d_pad = 64 whole.
_BLOCK_ELEMS = 1 << 14
_CHUNK_ELEMS = 1 << 18  # the elements of one draw chunk, 2 MiB of float64


def _chunks(n: int, d: int):
    """Consecutive [lo, hi) ranges of n rows, _CHUNK_ELEMS // d rows at a time."""
    step = max(1, _CHUNK_ELEMS // max(d, 1))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _take(draws, lo: int, hi: int):
    """Rows lo..hi of a kernel's draws: arrays with a leading row axis,
    nested in tuples, or None."""
    if isinstance(draws, tuple):
        return tuple(_take(a, lo, hi) for a in draws)
    return None if draws is None else draws[lo:hi]


def _join(parts: list):
    """The draws of consecutive pieces as the draws of one block."""
    first = parts[0]
    if len(parts) == 1 or first is None:
        return first
    if isinstance(first, tuple):
        return tuple(_join(list(p)) for p in zip(*parts))
    return np.concatenate(parts)


def _block_input(pieces: list, col: int, m: int):
    """The per-client input in column `col` of the m rows of pieces (rows or
    side information) as one block: None, the one vector every piece
    shares, or one row per repetition."""
    first = pieces[0][col]
    if first is None or (first.ndim == 1 and all(p[col] is first for p in pieces)):
        return first
    out = np.empty((m, first.shape[-1]))
    at = 0
    for p in pieces:
        v, lo, hi = p[col], p[1], p[2]
        out[at : at + hi - lo] = v if v.ndim == 1 else v[lo:hi]
        at += hi - lo
    return out


@dataclass(frozen=True)
class Kernel:
    """A quantizer declared once, for its codec and its sampler alike.

    ``check_input(x)`` and ``check_side(side)`` return the input and side
    information as float arrays, or raise ValueError for one outside the
    quantizer's domain.  Each takes one vector or (m, d) rows and checks
    every row; `run` and the codec call them, so no caller checks first.
    The randomness of m repetitions is made by two steps that only call the
    Generator: ``draw(rng, m)``, the shared draws, then ``noise(rng, rows,
    m)``, the encoder's private draws for the input rows.  Every draw is an
    array with a leading axis of m rows (or tuples of such arrays, or
    None), so any run of rows can be taken or joined.  The arithmetic makes
    no draw: ``derive(draws)`` works out the shared values (signs, kept
    coordinates) from the shared draws of some rows, ``encode(rows, shared,
    noise)`` returns their fields, and ``decode(fields, side, shared)``
    their (m, d) reconstructions.  ``rows`` is one vector for every
    repetition or one row per repetition, (m, d); ``side`` likewise.  ``write(bits, fields)`` packs the fields of one
    repetition, and ``read(reader)`` reads them back as a batch of one,
    raising MalformedStreamError on a value out of range (a fixed-width
    block by passing its top to `BitReader.read_fields`).  ``row_elems``,
    the elements of one repetition's largest array, sizes the sampler's
    draw chunks.
    """

    d: int
    row_elems: int
    check_input: Callable[[np.ndarray], np.ndarray]
    check_side: Callable[[Optional[np.ndarray]], Optional[np.ndarray]]
    draw: Callable[[np.random.Generator, int], Any]
    noise: Callable[[np.random.Generator, np.ndarray, int], Any]
    derive: Callable[[Any], Any]
    encode: Callable[[np.ndarray, Any, Any], Any]
    decode: Callable[[Any, Optional[np.ndarray], Any], np.ndarray]
    write: Callable[[BitString, Any], BitString]
    read: Callable[[BitReader], Any]

    def run(self, clients, n: int):
        """The sampler: n repetitions of each client, yielding
        (i, lo, hi, recs), the (hi - lo, d) reconstructions of client i's
        repetitions lo..hi, in client order.

        `clients` holds (x, side, rng) triples: the input (one vector for
        all n repetitions, or n rows), the side information (None for
        every client or for none; likewise one vector or n rows) and the
        client's own stream.  `run` checks every client's input and side
        information (`check_input`, `check_side`, n rows each where rows
        are given), and that n is an integer >= 0, before any client draws,
        so on a ValueError no stream has moved.  Each client draws chunk by
        chunk (`_chunks` of `row_elems`): the shared draws, then the noise
        of the chunk's rows.  The arithmetic runs on blocks of at most
        `_BLOCK_ELEMS // d_pad` rows, filled in turn: a block joins the
        chunks of consecutive clients (never two of one client), and a chunk
        too large for one block is cut across several.  Each row is worked
        out the same way in any block, so a client's rows are the same bits
        whichever clients share its blocks.
        """
        _check_int(n, "repetitions n", 0)
        clients = [(self.check_input(x), self.check_side(side), rng) for x, side, rng in clients]
        wrong = {len(v) for c in clients for v in c[:2] if v is not None and v.ndim == 2} - {n}
        if wrong:
            raise ValueError(f"{wrong.pop()} rows given for n = {n} repetitions")
        size = max(1, _BLOCK_ELEMS // next_pow2(self.d))
        block, room = [], size
        for i, (rows, side, rng) in enumerate(clients):
            for lo, hi in _chunks(n, self.row_elems):
                drawn = (self.draw(rng, hi - lo),
                         self.noise(rng, rows if rows.ndim == 1 else rows[lo:hi], hi - lo))
                for at in range(lo, hi, size):
                    end = min(hi, at + size)
                    if block and (end - at > room or (at == lo and block[-1][0] == i)):
                        yield from self._block(block)
                        block, room = [], size
                    part = drawn if end - at == hi - lo else _take(drawn, at - lo, end - lo)
                    block.append((i, at, end, rows, side, part))
                    room -= end - at
        if block:
            yield from self._block(block)

    def _block(self, pieces: list):
        """Derive, encode and decode one block of pieces
        (i, lo, hi, rows, side, drawn); yield each piece's reconstructions."""
        m = sum(p[2] - p[1] for p in pieces)
        draws, noise = _join([p[5] for p in pieces])
        shared = self.derive(draws)
        recs = self.decode(self.encode(_block_input(pieces, 3, m), shared, noise),
                           _block_input(pieces, 4, m), shared)
        at = 0
        for i, lo, hi, *_ in pieces:
            yield i, lo, hi, recs[at : at + hi - lo]
            at += hi - lo

    def sample(self, rows: np.ndarray, side: Optional[np.ndarray], n: int,
               rng: np.random.Generator) -> np.ndarray:
        """`run` on one client: its n reconstructions, (n, d)."""
        _check_int(n, "repetitions n", 0)
        out = np.empty((n, self.d))
        for _, lo, hi, recs in self.run([(rows, side, rng)], n):
            out[lo:hi] = recs
        return out


@dataclass
class Quantizer:
    """Encoder/decoder pair with a declared worst-case bit budget.

    ``bit_budget`` is the worst-case message length in bits; ``None`` marks a
    variable-length scheme whose guarantee is on expected length only.
    ``kernel`` is set by `kernel_quantizer`, which builds every quantizer in
    this package; `sample` and `run_dme` run it.  A Quantizer built from a
    bare encode/decode pair (a wrapper's, say) has none: it cannot sample,
    and `run_dme` round-trips, so packs, its every message.
    """

    encode: EncodeFn
    decode: DecodeFn
    bit_budget: Optional[int]
    name: str = "quantizer"
    uses_side_info: bool = False
    kernel: Optional[Kernel] = None

    def roundtrip(
        self,
        x: np.ndarray,
        side: Optional[np.ndarray],
        path: SeedPath,
        check_budget: bool = True,
    ) -> Tuple[BitString, np.ndarray]:
        """Encode then decode with identically derived streams.

        The path's PCG64 seed words are derived once, and two fresh
        generators are built from them, one for the encoder and one for the
        decoder: each starts where a fresh ``path.stream()`` would, so the
        decoder makes every shared draw itself.  Returns (message,
        reconstruction) and asserts the fixed-length budget.
        """
        seed = _SeedWords(path._key)
        msg = self.encode(np.asarray(x, dtype=float), side, seed.stream())
        if check_budget and self.bit_budget is not None and msg.nbits > self.bit_budget:
            raise AssertionError(
                f"{self.name}: emitted {msg.nbits} bits > budget {self.bit_budget}"
            )
        xhat = self.decode(msg, side, seed.stream())
        return msg, xhat

    def sample(
        self, x: np.ndarray, side: Optional[np.ndarray], n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """n independent reconstructions of x, (n, d): the codec's checks,
        draws and kernel without the packing, as `Kernel.run` on one client.
        With n = 1, drawn from ``path.stream()``, the one row is the round
        trip's reconstruction under ``path``.  With n > 1 it is not in
        general: each draw of m rows is one (m, ...) array, so row 0's later
        draws sit further down the stream.  TypeError without a kernel."""
        if self.kernel is None:
            raise TypeError(f"{self.name} has no batched kernel to sample")
        return self.kernel.sample(x, side, n, rng)


def kernel_quantizer(
    kernel: Kernel, bit_budget: int, name: str, uses_side_info: bool = False
) -> Quantizer:
    """The bit-exact codec of `kernel`.  Encode checks x, makes the shared
    and private draws of one repetition, encodes and packs; decode checks
    the side information, makes the same shared draws, reads every field and
    decodes.  The kernel's checks take rows; the codec takes one vector."""

    def one_vector(v, what):
        if v is not None and v.ndim != 1:
            raise ValueError(f"{what} has shape {v.shape}, expected ({kernel.d},)")
        return v

    def encode(x, side, rng):
        x = one_vector(kernel.check_input(x), "input")
        draws = kernel.draw(rng, 1)
        noise = kernel.noise(rng, x, 1)
        return kernel.write(BitString(), kernel.encode(x, kernel.derive(draws), noise))

    def decode(bits, side, rng):
        side = one_vector(kernel.check_side(side), "side information")
        shared = kernel.derive(kernel.draw(rng, 1))
        reader = BitReader(bits)
        fields = kernel.read(reader)
        reader.finish()
        return kernel.decode(fields, side, shared)[0]

    return Quantizer(encode, decode, bit_budget, name, uses_side_info, kernel)
