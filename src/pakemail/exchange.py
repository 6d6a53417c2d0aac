"""One side of one four-flow exchange, without I/O and without a clock.

An :class:`Exchange` takes the peer's flows as they come, in any order and
with duplicates, and returns the flows to send in reply. It ends in an
:class:`Outcome`. Moving the flows and deciding when to give up
(:meth:`Exchange.expire`) is the caller's part: the session manager drives
one engine per ``authenticate`` call over a transport, the adversary
harness drives two engines by hand.

The four flows: the initiator opens with its SPAKE2 share (flow 0); the
responder answers with its share (flow 1) and its confirmation tag
(flow 3); the initiator sends its tag (flow 2). Both shares carry the
sender's fingerprint. A side releases the key only once the peer's tag
verifies.
"""

from __future__ import annotations

import enum

from . import confirm, pake, wire
from .confirm import Fingerprint
from .groups import DecodeError
from .pake import Role
from .transport import (
    FLOW_INITIATOR_PAKE,
    FLOW_INITIATOR_TAG,
    FLOW_RESPONDER_PAKE,
    FLOW_RESPONDER_TAG,
)


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
    :attr:`peer_fpr` is the fingerprint the tags bound.
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
        # the (share, tag) flows this side sends, then the pair it takes
        self._flows = role.order((FLOW_INITIATOR_PAKE, FLOW_INITIATOR_TAG),
                                 (FLOW_RESPONDER_PAKE, FLOW_RESPONDER_TAG))
        self._session = pake.PakeSession(role, self_id, peer_id, password, group, rng=rng)
        self._bundle: confirm.ConfirmationBundle | None = None
        self._early_tag: bytes | None = None  # a peer tag that overtook the peer's share

    def start(self) -> list[tuple]:
        """This side's share, with its fingerprint.

        The initiator sends it at once: it is the opening. A responder
        sends it once it holds an opening, before it hands the opening to
        :meth:`receive`, so the peer can work out the key at the same time.
        """
        return [(self._flows[0][0], self._session.start(), self.own_fpr)]

    def receive(self, exchange_id: bytes, flow: int, payload: bytes,
                fingerprint: Fingerprint | None = None) -> list[tuple]:
        """Take one flow from the peer; return the flows to send, in order.

        A flow of another exchange, a flow this side does not take, a
        repeated share and anything after the outcome are ignored.
        """
        if self.outcome is not None or exchange_id != (self.exchange_id or exchange_id):
            return []
        self.exchange_id = exchange_id
        (_, tag_flow), (peer_share, peer_tag) = self._flows
        if flow == peer_tag:
            if self._bundle is None:
                self._early_tag = payload
            else:
                self._verify(payload)
            return []
        if flow != peer_share or self._bundle is not None:
            return []
        peer_fpr = fingerprint or self.peer_fpr
        if peer_fpr is None:
            self.outcome = Outcome.PROTOCOL_ERROR
            return []
        try:
            sk = self._session.finish(payload)
        except DecodeError:
            self.outcome = Outcome.PROTOCOL_ERROR
            return []
        self.peer_fpr = peer_fpr
        sid = self._session.transcript() + wire.pack([exchange_id])
        fprs = self.role.order(self.own_fpr, peer_fpr)
        self._bundle = confirm.derive_bundle(sk, sid, *fprs, self.role)
        if self._early_tag is not None:
            self._verify(self._early_tag)
        return [(tag_flow, self._bundle.tau_self, None)]

    def _verify(self, tag: bytes) -> None:
        ok, self.key = self._bundle.verify_peer_tag(tag)
        self.outcome = Outcome.SUCCESS if ok else Outcome.PASSWORD_MISMATCH

    def expire(self) -> None:
        """Stop waiting: an exchange that has not ended ends in a timeout."""
        if self.outcome is None:
            self.outcome = Outcome.ABORTED_BY_TIMEOUT
