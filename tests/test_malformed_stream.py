"""Every decoder rejects a message it cannot have been sent with MalformedStreamError."""

import numpy as np
import pytest

from qtc.adaptive import Ladder
from qtc.core import BitString, MalformedStreamError, SeedPath, TruncatedStreamError
from qtc.sideinfo import RmqConfig, wz_known_quantizer
from qtc.vector import RatqConfig, ratq_quantizer
from test_wire_format import CASES, _case, _codec, _pair, _resized, _vec

# Formats in which an all-ones message of the right length names a value
# outside the code: a unary range past the ladder, a count above N, more
# large coordinates than the split allows, a SimQ code above 2d, a type rank
# past the last composition.  In the other formats every field value is
# valid, so the all-ones message decodes.
ALL_ONES_OUT_OF_RANGE = {"aratq_aguq_plus", "boosted_rdaq", "lp_split", "simq", "simq_plus"}


def test_error_types():
    assert issubclass(MalformedStreamError, ValueError)
    assert issubclass(TruncatedStreamError, MalformedStreamError)


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_messages_raise_malformed_stream_error(name):
    q, x, side = _case(name)
    path = SeedPath(11).child(name)
    msg = q.encode(x, side, path.stream())
    for extra in (1, -1):
        with pytest.raises(MalformedStreamError):
            q.decode(_resized(msg, extra), side, path.stream())
    ones = BitString().write_fields(np.ones(msg.nbits, dtype=np.int64), 1)
    if name in ALL_ONES_OUT_OF_RANGE:
        with pytest.raises(MalformedStreamError, match="malformed stream"):
            q.decode(ones, side, path.stream())
    else:
        assert np.all(np.isfinite(q.decode(ones, side, path.stream())))


FLIPPED_MESSAGES = 300


@pytest.mark.parametrize("name", sorted(CASES))
def test_flipped_bits_decode_or_raise_malformed_stream_error(name):
    """Valid messages with 1-3 bits flipped decode to a finite vector of the
    input's shape or raise MalformedStreamError, never anything else."""
    q, x, side = _case(name)
    rng = SeedPath(12).child(name).stream()
    for t in range(FLIPPED_MESSAGES):
        path = SeedPath(12).child(name, t)
        bits = np.array([int(c) for c in q.encode(x, side, path.stream()).to01()], dtype=np.int64)
        flip = rng.choice(bits.size, size=min(bits.size, int(rng.integers(1, 4))), replace=False)
        bits[flip] ^= 1
        try:
            rec = q.decode(BitString().write_fields(bits, 1), side, path.stream())
        except MalformedStreamError:
            continue
        assert rec.shape == x.shape and np.all(np.isfinite(rec))


# Fixed-length formats with a field block whose largest legal value (its
# top) is below its width's maximum, so the all-ones message above never
# reaches the block's range check: (quantizer factory, input, side
# information, bit offset of one field of the block, field width, top).
# Only boosted RDAQ at N = 2 is a catalog code: no entry builds an RMQ k
# that is not a power of two, RATQ ladders with inf ranges, or k = 5.
FIELD_TOPS = {
    # 3-bit cosets of k = 6: 6 and 7 name no coset
    "rmq_k6_coset": (lambda: wz_known_quantizer(RmqConfig(64, 0.5, 0.05, 6), None),
                     *_pair(20, 64, 0.4), 3 * 5, 3, 5),
    # an 8-range ladder whose ranges 4..7 are inf: 3-bit index block first
    "ratq_inf_ladder_index": (
        lambda: ratq_quantizer(RatqConfig(1.0, 16, 1, 7, Ladder.tetra(3 / 16, 0.0, 8))),
        _vec(1, 16, 0.9), None, 3 * 2, 3, 3),
    # k = 5 levels and the overflow code 5 in 3-bit symbols, after 16 2-bit indices
    "ratq_k5_symbol": (
        lambda: ratq_quantizer(RatqConfig(1.0, 16, 1, 5, Ladder.tetra(3 / 16, 0.0, 4))),
        _vec(1, 16, 0.9), None, 16 * 2 + 3 * 4, 3, 5),
    # N = 2 draws per count in 2-bit fields, after 16 1-bit scale indices
    "boosted_rdaq_n2_count": (lambda: _codec("boosted_rdaq", 16, 2),
                              *_pair(30, 16, 0.2), 16 + 2 * 3, 2, 2),
}


def _with_field(msg: BitString, offset: int, width: int, value: int) -> BitString:
    """`msg` with its `width`-bit field at bit `offset` set to `value`."""
    bits = msg.to01()
    bits = bits[:offset] + format(value, f"0{width}b") + bits[offset + width:]
    return BitString().write_uint(int(bits, 2), len(bits))


@pytest.mark.parametrize("name", sorted(FIELD_TOPS))
def test_field_above_its_top_raises_malformed_stream_error(name):
    """A valid message with one field set to its block's top decodes; set to
    any value above the top it raises MalformedStreamError."""
    factory, x, side, offset, width, top = FIELD_TOPS[name]
    q = factory()
    path = SeedPath(13).child(name)
    msg = q.encode(x, side, path.stream())
    rec = q.decode(_with_field(msg, offset, width, top), side, path.stream())
    assert rec.shape == x.shape and np.all(np.isfinite(rec))
    for bad in range(top + 1, 1 << width):
        with pytest.raises(MalformedStreamError, match="malformed stream"):
            q.decode(_with_field(msg, offset, width, bad), side, path.stream())
