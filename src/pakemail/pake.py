"""SPAKE2 key-exchange state machine.

One :class:`PakeSession` per party per exchange. The initiator blinds its
Diffie-Hellman term with the public constant M, the responder with N; both
end up with the same pre-confirmation key ``sk`` iff they hashed the same
password. Explicit key confirmation lives in :mod:`pakemail.confirm`.
"""

from __future__ import annotations

import enum
import hashlib

from . import wire
from .groups import DecodeError, Group, GroupElement

PROTOCOL_VERSION = b"pakemail-v1"


class PakeError(Exception):
    pass


class StateError(PakeError):
    """Operation called in the wrong session phase."""


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"

    @property
    def peer(self) -> "Role":
        return Role.RESPONDER if self is Role.INITIATOR else Role.INITIATOR


class Phase(enum.Enum):
    CREATED = "created"
    STARTED = "started"
    KEYED = "keyed"
    CONFIRMED = "confirmed"
    FAILED = "failed"


def password_context(group: Group) -> bytes:
    return PROTOCOL_VERSION + b"/" + group.name.encode()


class PakeSession:
    """One party's half of a key exchange.

    Single-owner state machine: created -> started -> keyed, then the
    confirmation layer moves it to confirmed or failed. The ephemeral
    exponent and the password scalar never leave the object.
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
        self.phase = Phase.CREATED
        self.sk: bytes | None = None
        self._pi = group.scalar_from_password(bytes(password), password_context(group))
        self._x = group.random_scalar(rng)
        # encodings of X* and Y*: the identity element is None on secp256k1
        self._outbound_star: bytes | None = None
        self._inbound_star: bytes | None = None

    def __repr__(self) -> str:
        # deliberately omits x, pi and sk
        return (f"PakeSession(role={self.role.value}, self_id={self.self_id!r}, "
                f"peer_id={self.peer_id!r}, phase={self.phase.value})")

    @property
    def _blind(self) -> GroupElement:
        return self.group.M if self.role is Role.INITIATOR else self.group.N

    @property
    def _peer_blind(self) -> GroupElement:
        return self.group.N if self.role is Role.INITIATOR else self.group.M

    def start(self) -> bytes:
        """Produce the outbound blinded term X* (initiator) or Y* (responder)."""
        if self.phase is not Phase.CREATED:
            raise StateError(f"start() in phase {self.phase.value}")
        g = self.group
        star = g.encode(g.mul(g.exp(g.generator, self._x), g.exp(self._blind, self._pi)))
        self._outbound_star = star
        self.phase = Phase.STARTED
        return star

    def finish(self, inbound_message: bytes) -> bytes:
        """Consume the peer's blinded term and derive the session key sk."""
        if self.phase is not Phase.STARTED:
            raise StateError(f"finish() in phase {self.phase.value}")
        g = self.group
        try:
            inbound = g.decode(inbound_message)
            # RFC 9382: reject the identity as a share. The toy group keeps
            # it, since an honest order-11 run draws it 1 time in 11.
            if inbound == g.identity and g.security_bits >= 128:
                raise DecodeError("the identity element is not a valid share")
        except DecodeError:
            self.phase = Phase.FAILED
            raise
        self._inbound_star = g.encode(inbound)
        K = g.exp(g.div(inbound, g.exp(self._peer_blind, self._pi)), self._x)
        h = hashlib.sha256(self.transcript())
        h.update(wire.pack([g.scalar_bytes(self._pi), g.encode(K)]))
        self.sk = h.digest()
        self.phase = Phase.KEYED
        return self.sk

    def transcript(self) -> bytes:
        """Canonical (id_A, id_B, X*, Y*) bytes, initiator values in the A slots."""
        if self._outbound_star is None or self._inbound_star is None:
            raise StateError("transcript available only after both terms are known")
        if self.role is Role.INITIATOR:
            id_a, id_b = self.self_id, self.peer_id
            x_star, y_star = self._outbound_star, self._inbound_star
        else:
            id_a, id_b = self.peer_id, self.self_id
            x_star, y_star = self._inbound_star, self._outbound_star
        return wire.pack([id_a, id_b, x_star, y_star])

    def mark_confirmed(self) -> None:
        if self.phase is not Phase.KEYED:
            raise StateError(f"confirm in phase {self.phase.value}")
        self.phase = Phase.CONFIRMED

    def mark_failed(self) -> None:
        self.phase = Phase.FAILED
        self.sk = None
