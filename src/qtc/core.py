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
  its parent's key), so seeding a stream costs the same at any depth.
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
"""

from __future__ import annotations

import functools
import math
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


def check_vector(x, d: int, what: str = "input") -> np.ndarray:
    """`x` as a float vector of length d or as (m, d) rows; raises
    ValueError if it has another shape or a NaN or infinite entry.

    Kernels call this in their input and side-information checks, which
    `Kernel.run` and the codec make before their first draw.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):  # a codec's one vector pays one comparison
        if x.ndim != 2:
            raise ValueError(f"{what} has shape {x.shape}, expected ({d},)")
        if x.shape[1] != d:
            raise ValueError(f"{what} rows have length {x.shape[1]}, expected {d}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} has non-finite entries")
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


# The relative slack every norm-bound check allows: a vector scaled to norm
# exactly B may land a rounding step above it.
_NORM_SLACK = 1.0 + 1e-9


def _l2_norm(x: np.ndarray) -> float:
    """The l2 norm of one vector, or the largest of (m, d) rows (0 for no
    rows); inf, without a warning, where the sum of squares overflows.  A
    vector takes one `dot`: a codec checks one vector a message, and a row
    reduction costs it three times as much."""
    with np.errstate(over="ignore"):
        if x.ndim == 1:
            return math.sqrt(x.dot(x))
        return math.sqrt(np.einsum("ij,ij->i", x, x).max(initial=0.0))


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
        are given) before any client draws, so on a ValueError no stream
        has moved.  Each client draws chunk by chunk (`_chunks` of
        `row_elems`): the shared draws, then the noise of the chunk's rows.
        The arithmetic runs on blocks of at most `_BLOCK_ELEMS // d_pad`
        rows, filled in turn: a block joins the chunks of consecutive
        clients (never two of one client), and a chunk too large for one
        block is cut across several.  Each row is worked out the same way
        in any block, so a client's rows are the same bits whichever
        clients share its blocks.
        """
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

        One stream is seeded from `path`; its state is saved before the
        encode and restored before the decode, so the decoder starts where a
        fresh ``path.stream()`` would and makes every shared draw itself.
        Returns (message, reconstruction) and asserts the fixed-length budget.
        """
        rng = path.stream()
        start = rng.bit_generator.state
        msg = self.encode(np.asarray(x, dtype=float), side, rng)
        if check_budget and self.bit_budget is not None and msg.nbits > self.bit_budget:
            raise AssertionError(
                f"{self.name}: emitted {msg.nbits} bits > budget {self.bit_budget}"
            )
        rng.bit_generator.state = start
        xhat = self.decode(msg, side, rng)
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
