"""Every decoder rejects a message it cannot have been sent with MalformedStreamError."""

import numpy as np
import pytest

from qtc.core import BitString, MalformedStreamError, SeedPath, TruncatedStreamError
from test_wire_format import CASES, _resized

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
    factory, x, side = CASES[name]
    q = factory()
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
    factory, x, side = CASES[name]
    q = factory()
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
