import pytest
from hypothesis import given, settings, strategies as st

from tausync.bitstream import BitStream
from tausync.errors import DecodeError, InvalidArgument
from tausync.reference.ranksupport import from_positions


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=(1 << 64) - 1),
                          st.integers(min_value=0, max_value=64)),
                max_size=20))
def test_roundtrip_property(chunks):
    whole = length = 0
    offsets = []
    for value, count in chunks:
        value &= (1 << count) - 1
        offsets.append((length, value, count))
        whole |= value << length
        length += count
    s = BitStream.from_int(whole, length)
    for off, value, count in offsets:
        assert s.to01()[off:off + count] == f"{value:0{count}b}"[::-1][:count]


def test_serialization_roundtrip(rng):
    for _ in range(20):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(200)))
        s = BitStream.from01(bits)
        data = s.to_bytes(decoded_len=1234)
        back, decoded_len = BitStream.from_bytes(data)
        assert back == s and decoded_len == 1234
    assert BitStream.from_bytes(BitStream().to_bytes(0))[0] == BitStream()


def test_serialization_rejects_garbage():
    with pytest.raises(DecodeError):
        BitStream.from_bytes(b"NOPE" + b"\0" * 16)
    good = BitStream.from01("10101").to_bytes(5)
    with pytest.raises(DecodeError):
        BitStream.from_bytes(good + b"\0")
    # nonzero padding bits after the declared length
    bad = bytearray(good)
    bad[-1] |= 0x80
    with pytest.raises(DecodeError):
        BitStream.from_bytes(bytes(bad))


def test_from_int_to_int(rng):
    for _ in range(30):
        length = rng.randrange(0, 200)
        value = rng.getrandbits(length) if length else 0
        s = BitStream.from_int(value, length)
        assert len(s) == length
        assert s.to_int() == value


def test_positions_roundtrip_word_edges(rng):
    for n in (0, 1, 63, 64, 65):
        empty = from_positions(n, [])
        assert empty == BitStream.from01("0" * n)
        assert empty.to_positions() == []
        if n:
            last = from_positions(n, [n - 1])
            assert last == BitStream.from01("0" * (n - 1) + "1")
            assert last.to_positions() == [n - 1]
        for _ in range(10):
            bits = "".join(rng.choice("01") for _ in range(n))
            ones = [i for i, b in enumerate(bits) if b == "1"]
            mask = from_positions(n, ones)
            assert mask == BitStream.from01(bits) and len(mask) == n
            assert mask.to_positions() == ones


@pytest.mark.parametrize("n, positions", [
    (4, [4]), (4, [-1]), (0, [0]), (8, [1, 9, 2]),   # out of range
    (8, [3, 1]), (8, [2, 2]), (8, [0, 5, 4, 7]),     # not strictly increasing
])
def test_positions_rejected(n, positions):
    with pytest.raises(InvalidArgument):
        from_positions(n, positions)


@pytest.mark.parametrize("bits, bad", [("0120", "'2'"), ("10 1", "' '"),
                                       ("x", "'x'"), ("01\n", "'\\n'")])
def test_from01_rejects_a_non_bit(bits, bad):
    with pytest.raises(InvalidArgument) as err:
        BitStream.from01(bits)
    assert str(err.value) == f"not a bit: {bad}"


@pytest.mark.parametrize("value, length", [(-1, 4), (16, 4), (1, 0),
                                           (1 << 64, 64)])
def test_from_int_rejects_a_value_that_does_not_fit(value, length):
    with pytest.raises(InvalidArgument,
                       match="^value does not fit in length bits$"):
        BitStream.from_int(value, length)
    assert len(BitStream.from_int((1 << length) - 1, length)) == length


@pytest.mark.parametrize("n, positions, text", [
    (4, [4], "positions outside [0..4)"),
    (8, [-1, 3], "positions outside [0..8)"),
    (8, [5, 3, 9], "positions outside [0..8)"),    # the range is checked first
    (8, [1, 9, 2], "positions must be strictly increasing"),   # ends in range
    (8, [2, 2], "positions must be strictly increasing"),
    (8, [0, 5, 4, 7], "positions must be strictly increasing"),
])
def test_positions_rejection_texts(n, positions, text):
    with pytest.raises(InvalidArgument) as err:
        from_positions(n, positions)
    assert str(err.value) == text


def test_value_semantics_equality_hash_and_repr():
    # a stream equals only a stream: against an int __eq__ returns
    # NotImplemented, so Python falls back to identity
    empty = BitStream()
    assert empty.__eq__(0) is NotImplemented
    assert not empty == 0 and empty != 0 and empty != ""
    # equal (length, value) pairs hash equal and dedupe in a set; the same
    # value at another length is another stream
    a, b = BitStream.from01("0110"), BitStream.from_int(0b0110, 4)
    assert a == b and hash(a) == hash(b) and a is not b
    wider = BitStream.from_int(0b0110, 5)
    assert a != wider
    assert {a, b, wider, BitStream(), BitStream.from01("")} == {
        a, wider, empty}
    assert len({a, b, wider, empty}) == 3
    # up to 80 bits the repr spells the bits; past that, only the length
    assert repr(BitStream.from01("1" * 80)) == f"BitStream({'1' * 80!r})"
    assert repr(a) == "BitStream('0110')" and repr(empty) == "BitStream('')"
    assert repr(BitStream.from_int(1, 81)) == "BitStream(len=81)"
    assert repr(BitStream.from_int(0, 1000)) == "BitStream(len=1000)"
