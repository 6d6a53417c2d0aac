"""SPAKE2 key exchange, one side at a time.

One :class:`PakeSession` per party per exchange. The initiator blinds its
Diffie-Hellman term with the public constant M, the responder with N; both
end up with the same pre-confirmation key ``sk`` iff they hashed the same
password. Explicit key confirmation lives in :mod:`pakemail.confirm`, and
:class:`pakemail.exchange.Exchange` drives both steps and keeps the outcome.
"""

from __future__ import annotations

import enum
import hashlib

from . import wire
from .groups import DecodeError, Group

PROTOCOL_VERSION = b"pakemail-v1"


class PakeError(Exception):
    pass


class StateError(PakeError):
    """Operation called out of order, or a second time where once is the rule."""


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"

    def order(self, mine, theirs) -> tuple:
        """(mine, theirs) put in (initiator's, responder's) order.

        The swap is its own inverse, so the same call also turns an
        (initiator's, responder's) pair into (mine, theirs).
        """
        return (mine, theirs) if self is Role.INITIATOR else (theirs, mine)


def password_context(group: Group) -> bytes:
    return PROTOCOL_VERSION + b"/" + group.name.encode()


class PakeSession:
    """One party's half of a key exchange.

    Its state is its two shares: ``start`` sets this side's, ``finish``
    takes the peer's, which ends the session even when it is refused. The
    ephemeral exponent and the password scalar never leave the object.
    """

    def __init__(self, role: Role, self_id: bytes, peer_id: bytes,
                 password: bytes, group: Group, *, rng=None):
        if not self_id or not peer_id:
            raise ValueError("identities must be non-empty")
        if not password:
            raise ValueError("password must be non-empty")
        self.role = role
        self.self_id = bytes(self_id)
        self.peer_id = bytes(peer_id)
        self.group = group
        self._pi = group.scalar_from_password(bytes(password), password_context(group))
        self._x = group.random_scalar(rng)
        self._share: bytes | None = None  # encoding of our X* or Y*, once started
        # (id_A, id_B, X*, Y*) packed once the peer's share is taken; empty
        # if it was refused
        self._transcript: bytes | None = None

    def __repr__(self) -> str:
        # deliberately omits x, pi and sk
        return (f"PakeSession(role={self.role.value}, self_id={self.self_id!r}, "
                f"peer_id={self.peer_id!r})")

    def start(self) -> bytes:
        """Produce the outbound blinded term X* = M^pi * g^x (initiator) or
        Y* = N^pi * g^y (responder), as one two-term exponentiation."""
        if self._share is not None:
            raise StateError("start() has already run")
        g = self.group
        blind = self.role.order(g.M, g.N)[0]
        self._share = g.encode(g.exp(blind, self._pi, g.generator, self._x))
        return self._share

    def finish(self, inbound_message: bytes) -> bytes:
        """Consume the peer's blinded term and derive the session key sk.

        The initiator computes K = N^(-pi*x) * (Y*)^x, which is (Y* / N^pi)^x,
        as one two-term exponentiation; the responder likewise
        K = M^(-pi*y) * (X*)^y.
        """
        if self._share is None or self._transcript is not None:
            raise StateError("finish() runs once, after start()")
        self._transcript = b""
        g = self.group
        inbound = g.decode(inbound_message)
        # RFC 9382: reject the identity as a share. The toy group keeps
        # it, since an honest order-11 run draws it 1 time in 11.
        if inbound == g.identity and g.security_bits >= 128:
            raise DecodeError("the identity element is not a valid share")
        # decode takes only canonical encodings: the bytes are the share's encoding
        shares = self.role.order(self._share, bytes(inbound_message))
        self._transcript = wire.pack([*self.role.order(self.self_id, self.peer_id), *shares])
        peer_blind = self.role.order(g.M, g.N)[1]
        K = g.exp(peer_blind, -self._pi * self._x, inbound, self._x)
        h = hashlib.sha256(self._transcript)
        h.update(wire.pack([g.scalar_bytes(self._pi), g.encode(K)]))
        return h.digest()

    def transcript(self) -> bytes:
        """Canonical (id_A, id_B, X*, Y*) bytes, initiator values in the A slots."""
        if not self._transcript:
            raise StateError("transcript available only after both terms are known")
        return self._transcript
