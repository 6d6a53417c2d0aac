import io

import pytest
from hypothesis import given, strategies as st

from pakemail import wire


def test_pack_known_answer():
    assert wire.pack([b"ab", b"", b"\xff"]) == bytes.fromhex("0000000261620000000000000001ff")
    assert wire.pack([]) == b""


@given(st.lists(st.binary(max_size=300), max_size=6), st.binary(max_size=8))
def test_unpack_inverts_pack(fields, prefix):
    packed = wire.pack(fields)
    assert wire.unpack(packed) == fields
    assert wire.unpack(prefix + packed, len(prefix)) == fields


def test_unpack_refuses_data_that_does_not_end_on_a_field_boundary():
    packed = wire.pack([b"abc", b"defg"])
    for cut in set(range(1, len(packed))) - {7}:  # 7 ends the first field
        with pytest.raises(wire.WireError):
            wire.unpack(packed[:cut])
    with pytest.raises(wire.WireError):
        wire.unpack(packed + b"\x00")
    with pytest.raises(ValueError):  # WireError is a ValueError
        wire.unpack(b"\x00\x00\x00\x05abc")


def test_read_field_from_a_stream():
    stream = io.BytesIO(wire.pack([b"one", b""]))
    assert wire.read_field(stream.read, 10) == b"one"
    assert wire.read_field(stream.read, 10) == b""
    assert wire.read_field(stream.read, 10) is None  # clean end


@pytest.mark.parametrize("cut", range(1, 7))
def test_read_field_refuses_a_torn_field(cut):
    stream = io.BytesIO(wire.pack([b"abc"])[:cut])
    with pytest.raises(wire.WireError):
        wire.read_field(stream.read, 10)


def test_read_field_refuses_an_oversized_field_before_reading_it():
    reads = []

    def read(n):
        reads.append(n)
        return (11).to_bytes(4, "big") if n == 4 else bytes(n)

    with pytest.raises(wire.WireError):
        wire.read_field(read, 10)
    assert reads == [4]
