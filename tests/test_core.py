import numpy as np
import pytest

from qtc.core import BitReader, BitString, SeedPath, TruncatedStreamError


def test_write_examples():
    assert BitString().write_uint(5, 3).to01() == "101"
    assert BitString().write_uint(0, 1).to01() == "0"
    assert BitString().write_uint(1, 1).write_uint(2, 2).to01() == "110"
    assert repr(BitString().write_uint(5, 3)) == "BitString('101', nbits=3)"


def test_roundtrip_all_widths():
    rng = np.random.default_rng(0)
    bs = BitString()
    fields = []
    for width in range(1, 65):
        value = int(rng.integers(0, 1 << min(width, 62))) % (1 << width)
        fields.append((value, width))
        bs.write_uint(value, width)
    assert bs.nbits == sum(w for _, w in fields)
    reader = BitReader(bs)
    for value, width in fields:
        assert reader.read_uint(width) == value
    # boundary: the full 64-bit range
    big = (1 << 64) - 1
    bs2 = BitString().write_uint(big, 64)
    assert BitReader(bs2).read_uint(64) == big


def test_bit_accounting_is_exact():
    bs = BitString()
    total = 0
    for width in (1, 3, 7, 31, 32, 33, 64, 5):
        bs.write_uint(0, width)
        total += width
        assert bs.nbits == len(bs) == total


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitString().write_uint(2, 1)
    with pytest.raises(ValueError):
        BitString().write_uint(-1, 4)
    with pytest.raises(ValueError):
        BitString().write_uint(0, 0)


def test_truncated_stream_error():
    bs = BitString().write_uint(3, 2)
    reader = BitReader(bs)
    assert reader.read_uint(2) == 3
    with pytest.raises(TruncatedStreamError):
        reader.read_uint(1)
    reader2 = BitReader(BitString().write_uint(6, 3), cursor=2)
    with pytest.raises(TruncatedStreamError):
        reader2.read_uint(2)


def test_extend_concatenates():
    a = BitString().write_uint(5, 3)
    b = BitString().write_uint(1, 2)
    a.extend(b)
    assert a.to01() == "10101"


def test_leading_zeros_live_in_the_length():
    # the bits are one integer, so a message's leading zeros exist only in nbits
    fields = [(0, 40), (0, 3), (1, 1), (0, 17), (5, 3), (0, 9)]
    bs = BitString()
    for value, width in fields:
        bs.write_uint(value, width)
    assert bs.nbits == 73
    assert bs.to01() == "0" * 43 + "1" + "0" * 17 + "101" + "0" * 9
    assert repr(bs) == f"BitString('{'0' * 43 + '1' + '0' * 17 + '101'}...', nbits=73)"
    reader = BitReader(bs)
    assert [reader.read_uint(width) for _, width in fields] == [v for v, _ in fields]
    reader.finish()
    zeros = BitString().write_uint(0, 40)
    assert zeros.extend(BitString().write_uint(0, 30)).to01() == "0" * 70
    assert BitString().write_uint(0, 3) != BitString().write_uint(0, 4)
    assert BitString().write_uint(1, 3) != BitString().write_uint(1, 4)
    assert BitString().write_uint(0, 3) == BitString().write_uint(0, 1).write_uint(0, 2)


def test_seedpath_determinism():
    p = SeedPath(42).child("client", 3).child("round", 7)
    first = p.stream().integers(0, 1 << 63, size=100)
    second = p.stream().integers(0, 1 << 63, size=100)
    assert np.array_equal(first, second)


def test_seedpath_streams_distinct():
    seen = set()
    for i in range(10_000):
        word = int(SeedPath(9).child("rep", i).stream().integers(0, 1 << 63))
        seen.add(word)
    assert len(seen) == 10_000  # no identical first words among 1e4 streams


_M64 = (1 << 64) - 1


def _reference_key(root_seed, labels):
    """SeedPath's key from scratch: SplitMix64 of the root seed, then for each
    label SplitMix64 of the key XOR the role's FNV-1a hash, then of the key
    XOR the index, all mod 2^64."""

    def splitmix(x):
        x = (x + 0x9E3779B97F4A7C15) & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        return x ^ (x >> 31)

    h = splitmix(root_seed & _M64)
    for role, index in labels:
        fnv = 0xCBF29CE484222325
        for byte in role.encode("utf8"):
            fnv = ((fnv ^ byte) * 0x100000001B3) & _M64
        h = splitmix(h ^ fnv)
        h = splitmix(h ^ (index & _M64))
    return h


KEY_CASES = [
    (0, ()),
    (7, (("client", 3),)),
    (41, (("bitexact", 0), ("known-delta", 0), ("client", 2), ("trial", 17))),
    (-5, (("msg", -1), ("x", (1 << 64) + 9))),
    ((1 << 70) + 3, (("été", 0),)),
    (3, (("a", 1 << 63), ("a", -(1 << 63)), ("", 0), ("a", _M64), ("a", 1 << 200))),
]


@pytest.mark.parametrize("root_seed, labels", KEY_CASES)
def test_seedpath_key_matches_the_reference_built_either_way(root_seed, labels):
    direct = SeedPath(root_seed, labels)
    chained = SeedPath(root_seed)
    for role, index in labels:
        chained = chained.child(role, index)
    want = _reference_key(root_seed, labels)
    assert direct.mixed() == chained.mixed() == want
    assert direct == chained and hash(direct) == hash(chained)
    assert direct.labels == chained.labels and repr(direct) == repr(chained)
    assert np.array_equal(direct.stream().integers(0, 1 << 63, 4),
                          np.random.Generator(np.random.PCG64(want)).integers(0, 1 << 63, 4))


def test_seedpath_keys_are_pinned():
    # recorded before the key was stored on the path
    pinned = {
        KEY_CASES[0]: 0xE220A8397B1DCDAF,
        KEY_CASES[1]: 0xE97A08C1DF0A3E5B,
        KEY_CASES[2]: 0xAF8C0F61849A5A89,
        KEY_CASES[3]: 0x5DA7F580C64709D7,
        KEY_CASES[4]: 0x29F8DD3BDFF313D7,
    }
    for (root_seed, labels), key in pinned.items():
        assert SeedPath(root_seed, labels).mixed() == key


def test_sibling_labels_differ():
    a = SeedPath(1).child("x", 0).stream().integers(0, 1 << 63, 2)
    b = SeedPath(1).child("x", 1).stream().integers(0, 1 << 63, 2)
    c = SeedPath(1).child("y", 0).stream().integers(0, 1 << 63, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_real_mean():
    vals = SeedPath(5).stream().random(10**6)
    assert abs(vals.mean() - 0.5) < 0.002
    assert vals.min() >= 0.0 and vals.max() < 1.0


def test_fields_match_per_field_writes_and_reads():
    rng = np.random.default_rng(1)
    fields = {w: rng.integers(0, 1 << w, size=37) for w in (1, 3, 7, 32, 33, 63)}
    packed, looped = BitString().write_uint(5, 3), BitString().write_uint(5, 3)
    for w, vals in fields.items():
        packed.write_fields(vals, w)
        for v in vals:
            looped.write_uint(int(v), w)
    assert packed == looped and packed.to01() == looped.to01()
    reader = BitReader(packed)
    assert reader.read_uint(3) == 5
    for w, vals in fields.items():
        assert np.array_equal(reader.read_fields(len(vals), w), vals)
    reader.finish()
    assert BitReader(BitString()).read_fields(0, 3).shape == (0,)


def test_fields_match_a_string_reference_across_word_boundaries():
    """Widths 1..63 and counts 0..130 cross every `63 // width` word
    boundary; the fields sit between write_uint fields at odd bit offsets."""
    rng = np.random.default_rng(2)
    for w in range(1, 64):
        top = (1 << w) - 1
        vals = rng.integers(0, top, size=131, endpoint=True)
        vals[::7], vals[3::7] = 0, top
        for count in range(131):
            v = vals[:count]
            bs = BitString().write_uint(5, 3).write_fields(v, w).write_uint(1, 5)
            want = "101" + "".join(format(int(f), f"0{w}b") for f in v) + "00001"
            assert bs.to01() == want, (w, count)
            reader = BitReader(bs)
            assert reader.read_uint(3) == 5
            got = reader.read_fields(count, w)
            assert got.dtype == np.int64 and np.array_equal(got, v), (w, count)
            assert reader.read_uint(5) == 1
            reader.finish()
            with pytest.raises(TruncatedStreamError):
                BitReader(bs, cursor=3).read_fields(count + 6, w)
        for bad in (top + 1, -1) if w < 63 else (-1,):  # 2^63 is no int64
            with pytest.raises(ValueError, match="does not fit"):
                BitString().write_fields(vals[:70].tolist() + [bad], w)


def test_fields_reject_bad_values_and_leftovers():
    with pytest.raises(ValueError, match="does not fit"):
        BitString().write_fields([1, 8], 3)
    with pytest.raises(ValueError, match="does not fit"):
        BitString().write_fields([-1], 3)
    for w in (62, 63):  # values no int64 holds fail like any other misfit
        for bad in (2**63, 2**64, -(2**63) - 1):
            with pytest.raises(ValueError, match=f"value {bad} does not fit in {w} bits"):
                BitString().write_fields([1, bad, 2], w)
    reader = BitReader(BitString().write_fields([1, 2, 3], 2))
    with pytest.raises(TruncatedStreamError):
        reader.read_fields(4, 2)
    reader.read_fields(2, 2)
    with pytest.raises(ValueError, match="left over"):
        reader.finish()
    for w in (0, 64):
        with pytest.raises(ValueError, match=f"field width must be in 1..63, got {w}"):
            BitString().write_fields([0], w)
        with pytest.raises(ValueError, match=f"field width must be in 1..63, got {w}"):
            BitReader(BitString().write_uint(0, 64)).read_fields(1, w)
    with pytest.raises(ValueError, match="width must be >= 1, got 0"):
        BitReader(BitString().write_uint(0, 4)).read_uint(0)
    assert issubclass(TruncatedStreamError, ValueError)
