"""One side of one three-flow exchange, without I/O and without a clock.

An :class:`Exchange` takes the peer's flows as they come, in any order and
with duplicates, and returns the flows to send in reply. It ends in an
:class:`Outcome`. Moving the flows and deciding when to give up
(:meth:`Exchange.expire`) is the caller's part: the session manager drives
one engine per ``authenticate`` call over a transport, the adversary
harness drives two engines by hand.

The flows, in RFC 9382 §4 order: the initiator's share (flow 0); the
responder's share and tag, packed (flow 1); the initiator's tag, or an
empty payload if the responder's did not verify (flow 2). Both shares carry
the sender's fingerprint. Only the responder releases its tag unverified;
a side releases the key only once the peer's tag verifies.
"""

from __future__ import annotations

import enum

from . import confirm, pake, wire
from .confirm import Fingerprint
from .pake import Role
from .transport import FLOW_INITIATOR_PAKE, FLOW_INITIATOR_TAG, FLOW_RESPONDER_PAKE


class Outcome(enum.Enum):
    SUCCESS = "success"
    PASSWORD_MISMATCH = "password-mismatch"
    ABORTED_BY_TIMEOUT = "aborted-by-timeout"
    PROTOCOL_ERROR = "protocol-error"


class Exchange:
    """One party's side of one exchange.

    A flow to send is ``(flow, payload, fingerprint or None)``. Both
    sides begin with :meth:`start`. The initiator is given its exchange
    id; the responder takes the id from the first flow it receives.
    ``peer_fpr`` is the peer's fingerprint as already known, used when
    its share carries none. ``binding="pi"`` also folds both fingerprints
    into the password, so it needs ``peer_fpr``. Once :attr:`outcome` is
    set, :attr:`key` holds the key on success and is None otherwise, and
    :attr:`peer_fpr` is the fingerprint the tags bound. :attr:`released`
    turns true in the :meth:`receive` that returns this side's tag while
    the outcome is still open, so the peer could check it offline.
    """

    def __init__(self, role: Role, self_id: bytes, peer_id: bytes, password: bytes, group,
                 own_fpr: Fingerprint, peer_fpr: Fingerprint | None = None, *,
                 exchange_id: bytes | None = None, binding: str = "kc", rng=None):
        if binding not in ("kc", "pi"):
            raise ValueError(f"unknown binding {binding!r}")
        self.role = role
        self.exchange_id = exchange_id
        self.own_fpr = own_fpr
        self.peer_fpr = peer_fpr
        if binding == "pi":
            password = confirm.embed_fingerprints_in_secret(
                password, *role.order(own_fpr, peer_fpr))
        self.outcome: Outcome | None = None
        self.key: bytes | None = None
        self.released = False
        self._session = pake.PakeSession(role, self_id, peer_id, password, group, rng=rng)
        self._share: bytes | None = None
        self._bundle: confirm.ConfirmationBundle | None = None

    def start(self) -> list[tuple]:
        """The initiator's opening share, with its fingerprint. A responder
        sends nothing yet: its share leaves with its tag, after an opening."""
        self._share = self._session.start()
        if self.role is Role.RESPONDER:
            return []
        return [(FLOW_INITIATOR_PAKE, self._share, self.own_fpr)]

    def receive(self, exchange_id: bytes, flow: int, payload: bytes,
                fingerprint: Fingerprint | None = None) -> list[tuple]:
        """Take one flow from the peer; return the flows to send, in order.

        A flow of another exchange, a flow this side does not take, a
        repeated share and anything after the outcome are ignored.
        """
        if self.outcome is not None or exchange_id != (self.exchange_id or exchange_id):
            return []
        self.exchange_id = exchange_id
        if self._bundle is not None:  # a responder that has released its tag
            if flow == FLOW_INITIATOR_TAG:
                self._verify(payload)
            return []
        initiator = self.role is Role.INITIATOR
        if flow != (FLOW_RESPONDER_PAKE if initiator else FLOW_INITIATOR_PAKE):
            return []
        try:
            # the initiator takes the responder's share and tag together
            share, tag = wire.unpack(payload) if initiator else (payload, None)
            sk = self._session.finish(share)
            peer_fpr = fingerprint or self.peer_fpr
        except ValueError:  # a DecodeError, a WireError or not two fields
            peer_fpr = None
        if peer_fpr is None:  # a malformed flow, or no fingerprint for the peer
            self.outcome = Outcome.PROTOCOL_ERROR
            return []
        self.peer_fpr = peer_fpr
        sid = self._session.transcript() + wire.pack([exchange_id])
        fprs = self.role.order(self.own_fpr, peer_fpr)
        self._bundle = confirm.derive_bundle(sk, sid, *fprs, self.role)
        if not initiator:
            self.released = True
            return [(FLOW_RESPONDER_PAKE, wire.pack([self._share, self._bundle.tau_self]),
                     self.own_fpr)]
        self._verify(tag)
        # the initiator's tag goes only to a peer whose own tag verified
        own_tag = self._bundle.tau_self if self.outcome is Outcome.SUCCESS else b""
        return [(FLOW_INITIATOR_TAG, own_tag, None)]

    def _verify(self, tag: bytes) -> None:
        ok, self.key = self._bundle.verify_peer_tag(tag)
        self.outcome = Outcome.SUCCESS if ok else Outcome.PASSWORD_MISMATCH

    def expire(self) -> None:
        """Stop waiting: an exchange that has not ended ends in a timeout."""
        if self.outcome is None:
            self.outcome = Outcome.ABORTED_BY_TIMEOUT
