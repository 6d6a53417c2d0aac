"""Length-prefixed fields, the byte format of hash inputs, envelopes,
relay frames and the relay log: each field is its length as a 4-byte
big-endian integer, then its bytes. No other module writes or reads a length
prefix. This module imports nothing from the package, so the relay can use
it and still import no code that touches keys.
"""

from __future__ import annotations


class WireError(ValueError):
    """Bytes that do not split into whole length-prefixed fields."""


def pack(fields) -> bytes:
    """Each field preceded by its 4-byte big-endian length."""
    parts = []
    for field in fields:
        parts.append(len(field).to_bytes(4, "big"))
        parts.append(field)
    return b"".join(parts)


def unpack(data: bytes, offset: int = 0) -> list[bytes]:
    """The fields packed in ``data[offset:]``, which must end on a field boundary."""
    fields = []
    end = len(data)
    while offset < end:
        start = offset + 4
        if start > end:
            raise WireError("truncated length prefix")
        offset = start + int.from_bytes(data[start - 4:start], "big")
        if offset > end:
            raise WireError("truncated field")
        fields.append(data[start:offset])
    return fields


def read_field(read, limit: int) -> bytes | None:
    """One field from a stream, or None if the stream ends before it starts.

    ``read(n)`` returns fewer than ``n`` bytes only at the end of the stream.
    """
    header = read(4)
    if not header:
        return None
    if len(header) < 4:
        raise WireError("truncated length prefix")
    length = int.from_bytes(header, "big")
    if length > limit:
        raise WireError(f"field of {length} bytes exceeds the {limit}-byte limit")
    data = read(length)
    if len(data) < length:
        raise WireError("truncated field")
    return data
