"""Keystore persistence and the exchange driver.

The :class:`SessionManager` runs complete four-flow authentications over
any transport backend, enforces the failed-attempt lockout, keeps a
persistent exchange history (so a silent guess-and-abort shows up as a
timeout, not nothing), and re-authenticates renewed key material by
chaining the stored high-entropy key into the next run as its password.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import secrets
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from . import confirm, pake, sealed, wire
from .confirm import Fingerprint
from .groups import Group
from .pake import Role
from .transport import (
    FLOW_DATA,
    FLOW_INITIATOR_PAKE,
    FLOW_INITIATOR_TAG,
    FLOW_RESPONDER_PAKE,
    FLOW_RESPONDER_TAG,
    TransportBackend,
    TransportEnvelope,
    fresh_exchange_id,
)

KEYSTORE_HEADER = "pakemail-keystore v2"
_V1_HEADER = "pakemail-keystore v1"
# the longest single backend wait: a thread serving another peer may have
# moved this thread's envelope into the shared inbox, and would not wake it
POLL_INTERVAL = 0.005

logger = logging.getLogger(__name__)


class ManagerError(Exception):
    pass


class LockedOutError(ManagerError):
    """Failed-attempt limit reached for this peer; operator override required."""


class NoChainError(ManagerError):
    """No stored chained key for this peer."""


class Outcome(enum.Enum):
    SUCCESS = "success"
    PASSWORD_MISMATCH = "password-mismatch"
    ABORTED_BY_TIMEOUT = "aborted-by-timeout"
    PROTOCOL_ERROR = "protocol-error"


@dataclass
class AttemptPolicy:
    max_failed_attempts: int = 3
    timeout: float = 30.0


@dataclass
class PeerRecord:
    identity: bytes
    fingerprint: Fingerprint | None = None
    authenticated: bool = False
    chained_key: bytes | None = None
    failed_attempts: int = 0


@dataclass
class ExchangeRecord:
    exchange_id: bytes
    peer: bytes
    role: Role
    outcome: Outcome
    started_at: float
    ended_at: float


@dataclass
class AuthResult:
    outcome: Outcome
    exchange_id: bytes | None = None
    key: bytes | None = None
    fallback_to_manual: bool = False


# ---------------------------------------------------------------------------
# Keystore
# ---------------------------------------------------------------------------

def _hex(value: bytes | None) -> str | None:
    return value.hex() if value is not None else None


def _unhex(value: str | None) -> bytes | None:
    return bytes.fromhex(value) if value is not None else None


def _checksummed(body: bytes) -> bytes:
    """``body`` behind 8 hex digits: the CRC-32 of the rest of the line."""
    rest = b" " + body
    return b"%08x" % zlib.crc32(rest) + rest


def _intact(line: bytes) -> bool:
    return line[:8] == b"%08x" % zlib.crc32(line[8:])


def _seal(crc: int) -> bytes:
    """A seal record: ``crc`` is the CRC-32 of every byte of the file before it."""
    return _checksummed(b"seal %08x" % crc) + b"\n"


def _sealed(data: bytes, lines: list[bytes], end: int) -> tuple[int, int, int]:
    """(n, offset, crc) for the newest seal among ``lines``, which end at ``end``.

    If it is intact and matches, the first n lines are intact too and the
    CRC-32 of ``data[:offset]`` is ``crc``; otherwise (0, 0, 0).
    """
    for n in range(len(lines) - 1, -1, -1):
        end -= len(lines[n]) + 1
        if lines[n][9:14] == b"seal ":
            crc = zlib.crc32(memoryview(data)[:end])
            if _intact(lines[n]) and lines[n][14:22] == b"%08x" % crc:
                return n, end, crc
            break
    return 0, 0, 0


def _line(prefix: str, obj: dict) -> bytes:
    """One journal record, ``<checksum> <prefix> <JSON>``, without its newline."""
    return _checksummed(f"{prefix} {json.dumps(obj)}".encode())


def _peer_state(record: PeerRecord) -> tuple:
    return (record.fingerprint, record.authenticated, record.chained_key,
            record.failed_attempts)


def _peer_line(record: PeerRecord) -> bytes:
    return _line(f"peer {record.identity.hex()}", {
        "fingerprint": record.fingerprint.hex if record.fingerprint else None,
        "authenticated": record.authenticated,
        "chained_key": _hex(record.chained_key),
        "failed_attempts": record.failed_attempts,
    })


def _peer_record(identity: bytes, obj: dict) -> PeerRecord:
    fpr = _unhex(obj.get("fingerprint"))
    return PeerRecord(
        identity=identity,
        fingerprint=Fingerprint(fpr) if fpr else None,
        authenticated=obj["authenticated"],
        chained_key=_unhex(obj.get("chained_key")),
        failed_attempts=obj["failed_attempts"],
    )


def _exchange_line(rec: ExchangeRecord) -> bytes:
    return _line("exchange", {
        "exchange_id": _hex(rec.exchange_id),
        "peer": _hex(rec.peer),
        "role": rec.role.value,
        "outcome": rec.outcome.value,
        "started_at": rec.started_at,
        "ended_at": rec.ended_at,
    })


def _exchange_record(obj: dict) -> ExchangeRecord:
    return ExchangeRecord(
        exchange_id=_unhex(obj["exchange_id"]),
        peer=_unhex(obj["peer"]),
        role=Role(obj["role"]),
        outcome=Outcome(obj["outcome"]),
        started_at=obj["started_at"],
        ended_at=obj["ended_at"],
    )


# an exchange record starts with its checksum, then _EXCHANGE
_TAG, _EXCHANGE = slice(9, 18), b"exchange "


def _parse_exchange(line: bytes) -> ExchangeRecord:
    return _exchange_record(json.loads(line[_TAG.stop:]))


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Keystore:
    """Single-file persistent store: an append-only, checksummed journal.

    Format ``pakemail-keystore v2``: a header line, then one record per
    line, ``<checksum> <tag> ...``. The checksum is 8 hex digits, the
    CRC-32 of the rest of the line. Binaries are in hex. Records:

    * ``self <JSON>``: own identity and fingerprint;
    * ``peer <identity> <JSON>``: one peer's state; the newest record per
      identity wins, and only that one is parsed;
    * ``exchange <JSON>``: one history entry, oldest first;
    * ``seal <crc>``: ``crc`` is the CRC-32 of every byte before the seal.

    ``save()`` appends only what changed since the last save: peer records
    that differ from their last saved state (mutated in place or new) and
    exchange records added to :attr:`exchanges`, which is append-only. A
    seal ends every append, and the append is fsynced, so its cost does
    not depend on the length of the history. Once superseded records (old
    peer records and seals) outnumber live ones, the next save compacts
    instead: it writes the live records and a seal to a temporary file,
    fsyncs it, renames it over the keystore and fsyncs the directory. A
    new keystore is written the same way.

    Loading checks the newest seal with one CRC over the bytes before it;
    when it matches, every record before it is intact, and only the lines
    after it are checked one by one. When it does not (a corrupt record,
    or an append from another process in between), every line is checked.
    Exchange records stay raw lines until :attr:`exchanges` is read.

    Crash rule: an unterminated or checksum-failing *final* record is a
    torn append. Loading drops it, and the next save cuts the file back to
    the last good newline before appending. A checksum failure on any
    other line raises :class:`ManagerError`; skipping a peer record there
    could roll back its lockout counter.

    A ``pakemail-keystore v1`` file (records without checksums or seals)
    loads and is rewritten as v2 on its first save. One lock serializes
    saves, so threads sharing a keystore cannot interleave appends.
    """

    def __init__(self, path, self_identity: bytes | None = None):
        self.path = Path(path)
        self.self_identity: bytes | None = None
        self.self_fingerprint: Fingerprint | None = None
        self.peers: dict[bytes, PeerRecord] = {}
        self._lock = threading.RLock()
        # exchange history: lines loaded from disk stay unparsed until read,
        # then go to the front of _exchanges; the first _saved entries of
        # _exchanges are on disk, the rest are still to be appended
        self._unparsed: list[bytes] = []
        self._exchanges: list[ExchangeRecord] = []
        self._saved = 0
        # what the file holds: last saved state per peer, superseded record
        # count, offset just past the last good record and the CRC-32 of the
        # bytes before it, whether a torn record follows it, whether the
        # next save must write a fresh file
        self._saved_peers: dict[bytes, tuple] = {}
        self._superseded = 0
        self._end = 0
        self._crc = 0
        self._torn = False
        self._rewrite = False
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = None
        if data is not None:
            self._load(data)
        if self.self_identity is None:
            if self_identity is None:
                raise ManagerError("new keystore needs a self identity")
            # stands in for the fingerprint of the user's existing keypair
            self.self_identity = bytes(self_identity)
            self.self_fingerprint = Fingerprint(secrets.token_bytes(20))
            self._rewrite = True
            self.save()
        elif self_identity is not None and bytes(self_identity) != self.self_identity:
            raise ManagerError("keystore belongs to a different identity")

    def _load(self, data: bytes) -> None:
        header, newline, rest = data.partition(b"\n")
        if newline and header == _V1_HEADER.encode():
            return self._load_v1(rest)
        if not newline or header != KEYSTORE_HEADER.encode():
            raise ManagerError(f"{self.path} is not a {KEYSTORE_HEADER} file")
        lines = rest.split(b"\n")
        tail = lines.pop()  # bytes after the last newline: a torn record
        sealed, offset, crc = _sealed(data, lines, len(data) - len(tail))
        bad = next((n for n, line in enumerate(lines[sealed:]) if not _intact(line)), None)
        if bad is not None and sealed + bad == len(lines) - 1:
            tail = lines.pop() + b"\n" + tail  # a torn final record
        elif bad is not None:
            raise ManagerError(f"{self.path}: line {sealed + bad + 2} fails its checksum")
        self._end = len(data) - len(tail)
        self._torn = bool(tail)
        self._crc = zlib.crc32(memoryview(data)[offset:self._end], crc)
        self._unparsed = [line for line in lines if line[_TAG] == _EXCHANGE]
        # only the newest self record and the newest record per peer count,
        # so only those are parsed; the dict keeps first-appearance order
        latest = {}
        others = [line for line in lines if line[_TAG] != _EXCHANGE]
        for line in others:
            tag, _, rest = line[9:].partition(b" ")
            key, payload = rest.partition(b" ")[::2] if tag == b"peer" else (b"", rest)
            latest[tag, key] = line, payload
        self._superseded = len(others) - len(latest)
        for (tag, key), (line, payload) in latest.items():
            try:
                if tag == b"self":
                    self._set_self(json.loads(payload))
                elif tag == b"peer":
                    record = _peer_record(bytes.fromhex(key.decode()), json.loads(payload))
                    self.peers[record.identity] = record
                    self._saved_peers[record.identity] = _peer_state(record)
                elif tag != b"seal":
                    raise ValueError(f"unknown record tag {tag!r}")
            except (ValueError, KeyError, TypeError) as exc:
                number = lines.index(line) + 2
                raise ManagerError(f"{self.path}: line {number} is malformed") from exc

    def _load_v1(self, rest: bytes) -> None:
        """The same records without checksums; the next save rewrites the file as v2."""
        for number, line in enumerate(rest.split(b"\n"), start=2):
            if not line.strip():
                continue
            tag, _, payload = line.partition(b" ")
            try:
                obj = json.loads(payload)
                if tag == b"self":
                    self._set_self(obj)
                elif tag == b"peer":
                    record = _peer_record(_unhex(obj["identity"]), obj)
                    self.peers[record.identity] = record
                elif tag == b"exchange":
                    self._exchanges.append(_exchange_record(obj))
                else:
                    raise ValueError(f"unknown record tag {tag!r}")
            except (ValueError, KeyError, TypeError) as exc:
                raise ManagerError(f"{self.path}: line {number} is malformed") from exc
        self._rewrite = True

    def _set_self(self, obj: dict) -> None:
        self.self_identity = _unhex(obj["identity"])
        self.self_fingerprint = Fingerprint(_unhex(obj["fingerprint"]))

    @property
    def exchanges(self) -> list[ExchangeRecord]:
        """The exchange history, oldest first; append to it and save()."""
        with self._lock:
            if self._unparsed:
                self._exchanges[:0] = [_parse_exchange(line) for line in self._unparsed]
                self._saved += len(self._unparsed)
                self._unparsed = []
            return self._exchanges

    def save(self) -> None:
        with self._lock:
            changed = [identity for identity, record in self.peers.items()
                       if _peer_state(record) != self._saved_peers.get(identity)]
            new = [_exchange_line(rec) for rec in self._exchanges[self._saved:]]
            # an append supersedes the previous seal
            superseded = self._superseded + 1 + sum(
                identity in self._saved_peers for identity in changed)
            live = 2 + len(self.peers) + len(self._unparsed) + len(self._exchanges)
            if self._rewrite or superseded > live:
                self._compact(new)
                superseded = 0
            elif changed or new:
                records = [_peer_line(self.peers[identity]) for identity in changed]
                self._append(b"\n".join(records + new) + b"\n")
            else:
                return
            self._saved += len(new)
            self._superseded = superseded
            for identity in changed:
                self._saved_peers[identity] = _peer_state(self.peers[identity])

    def _append(self, data: bytes) -> None:
        # O_APPEND and one unbuffered write: an append from another process
        # sharing this keystore lands whole, before or after this one
        with open(self.path, "ab", buffering=0) as fh:
            if self._torn:
                fh.truncate(self._end)
            self._torn = True  # until the whole append is on disk
            crc = zlib.crc32(data, self._crc)
            seal = _seal(crc)
            fh.write(data + seal)
            os.fsync(fh.fileno())
            self._end = fh.tell()
        self._torn = False
        self._crc = zlib.crc32(seal, crc)

    def _compact(self, new: list[bytes]) -> None:
        """Write only live records to a fresh file and rename it into place."""
        own = _line("self", {
            "identity": _hex(self.self_identity),
            "fingerprint": self.self_fingerprint.hex,
        })
        data = b"\n".join([KEYSTORE_HEADER.encode(), own]
                         + [_peer_line(record) for record in self.peers.values()]
                         + self._unparsed
                         + [_exchange_line(rec) for rec in self._exchanges[:self._saved]]
                         + new) + b"\n"
        crc = zlib.crc32(data)
        data += _seal(crc)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=".keystore-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        _fsync_dir(self.path.parent)
        self._end = len(data)
        self._crc = zlib.crc32(data)
        self._torn = False
        self._rewrite = False

    def peer(self, identity: bytes) -> PeerRecord:
        identity = bytes(identity)
        with self._lock:
            if identity not in self.peers:
                self.peers[identity] = PeerRecord(identity=identity)
            return self.peers[identity]

    def record_exchange(self, record: ExchangeRecord) -> None:
        with self._lock:
            self._exchanges.append(record)
            self.save()

    def reset_attempts(self, identity: bytes) -> None:
        """Operator override after a lockout."""
        with self._lock:
            self.peer(identity).failed_attempts = 0
            self.save()


# ---------------------------------------------------------------------------
# Session manager
# ---------------------------------------------------------------------------

def assign_role(self_id: bytes, peer_id: bytes) -> Role:
    """Tie-break when both sides start concurrently: smaller identity initiates."""
    return Role.INITIATOR if bytes(self_id) < bytes(peer_id) else Role.RESPONDER


def _sid(session: pake.PakeSession, exchange_id: bytes) -> bytes:
    return session.transcript() + wire.pack([exchange_id])


class SessionManager:
    """Drives exchanges for one client identity over one backend."""

    def __init__(self, keystore: Keystore, backend: TransportBackend, group: Group,
                 policy: AttemptPolicy | None = None):
        self.keystore = keystore
        self.backend = backend
        self.group = group
        self.policy = policy if policy is not None else AttemptPolicy()
        self._inbox: dict[tuple[bytes, int], TransportEnvelope] = {}
        self._processed: set[tuple[bytes, int]] = set()
        # threads serving several peers share the inbox
        self._inbox_lock = threading.Lock()

    @property
    def identity(self) -> bytes:
        return self.keystore.self_identity

    # -- envelope plumbing -------------------------------------------------

    def _collect(self) -> None:
        for env in self.backend.poll(self.identity):
            key = (env.exchange_id, env.flow)
            if key in self._processed or key in self._inbox:
                continue  # at-least-once delivery: drop duplicates
            self._inbox[key] = env

    def _wait_for(self, flow: int, deadline: float, exchange_id: bytes | None = None,
                  sender: bytes | None = None) -> TransportEnvelope | None:
        """Block until a matching flow arrives or the deadline passes.

        With ``exchange_id=None`` (responder waiting for a first flow) any
        exchange from ``sender`` matches, and the one that arrived last wins:
        older ones are openings the sender has given up on, and are dropped
        as superseded. Early-arriving later flows stay buffered in the inbox.
        """
        while True:
            with self._inbox_lock:
                self._collect()
                matches = [key for key, env in self._inbox.items()
                           if key[1] == flow
                           and (exchange_id is None or key[0] == exchange_id)
                           and (sender is None or env.sender == sender)]
                if matches:  # in arrival order, as the inbox keeps them
                    *superseded, newest = matches
                    for key in superseded:
                        del self._inbox[key]
                    self._processed.update(matches)
                    return self._inbox.pop(newest)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.backend.wait(self.identity, min(remaining, POLL_INTERVAL))

    def _send(self, peer: bytes, exchange_id: bytes, flow: int, payload: bytes,
              with_fingerprint: bool = False) -> None:
        self.backend.send(TransportEnvelope(
            exchange_id=exchange_id,
            flow=flow,
            sender=self.identity,
            recipient=bytes(peer),
            payload=payload,
            fingerprint=self.keystore.self_fingerprint if with_fingerprint else None,
        ))

    # -- authentication ----------------------------------------------------

    def authenticate(self, peer: bytes, password: bytes, role: Role | None = None, *,
                     binding: str = "kc", timeout: float | None = None) -> AuthResult:
        """Run a full exchange with key confirmation against ``peer``.

        ``binding`` selects where fingerprints bind: ``"kc"`` puts them in
        the confirmation MACs (default), ``"pi"`` additionally folds them
        into the password-derived scalar (requires the peer fingerprint to
        be known in advance).
        """
        peer = bytes(peer)
        record = self.keystore.peer(peer)
        if record.failed_attempts >= self.policy.max_failed_attempts:
            raise LockedOutError(
                f"{self.policy.max_failed_attempts} failed attempts with this peer; "
                "operator override required")
        if role is None:
            role = assign_role(self.identity, peer)
        if binding not in ("kc", "pi"):
            raise ValueError(f"unknown binding {binding!r}")
        deadline = time.monotonic() + (timeout if timeout is not None else self.policy.timeout)
        started = time.time()
        outcome, exchange_id, key, peer_fpr = self._run_exchange(
            peer, password, role, binding, deadline)
        self._finalize(peer, exchange_id, role, outcome, started, key, peer_fpr)
        return AuthResult(outcome, exchange_id, key)

    def _run_exchange(self, peer: bytes, password: bytes, role: Role, binding: str,
                      deadline: float) -> tuple[Outcome, bytes | None, bytes | None,
                                                Fingerprint | None]:
        """(outcome, exchange id, key, peer fingerprint); key and fingerprint on success."""
        record = self.keystore.peer(peer)
        exchange_id = fresh_exchange_id() if role is Role.INITIATOR else None

        if binding == "pi":
            if record.fingerprint is None:
                raise ManagerError("in-pi binding needs the peer fingerprint in the keystore")
            fprs = self._ordered_fingerprints(role, record.fingerprint)
            password = confirm.embed_fingerprints_in_secret(password, *fprs)

        if role is Role.INITIATOR:
            session = pake.PakeSession(role, self.identity, peer, password, self.group)
            first = session.start()
            self._send(peer, exchange_id, FLOW_INITIATOR_PAKE, first, with_fingerprint=True)
            reply = self._wait_for(FLOW_RESPONDER_PAKE, deadline, exchange_id)
            if reply is None:
                return Outcome.ABORTED_BY_TIMEOUT, exchange_id, None, None
            peer_fpr = reply.fingerprint or record.fingerprint
        else:
            opening = self._wait_for(FLOW_INITIATOR_PAKE, deadline, sender=peer)
            if opening is None:
                return Outcome.ABORTED_BY_TIMEOUT, None, None, None
            exchange_id = opening.exchange_id
            session = pake.PakeSession(role, self.identity, peer, password, self.group)
            first = session.start()
            self._send(peer, exchange_id, FLOW_RESPONDER_PAKE, first, with_fingerprint=True)
            reply = opening
            peer_fpr = opening.fingerprint or record.fingerprint

        if peer_fpr is None:
            return Outcome.PROTOCOL_ERROR, exchange_id, None, None

        try:
            sk = session.finish(reply.payload)
        except Exception:
            return Outcome.PROTOCOL_ERROR, exchange_id, None, None

        fpr_a, fpr_b = self._ordered_fingerprints(session.role, peer_fpr)
        sid = _sid(session, exchange_id)
        bundle = confirm.derive_bundle(sk, sid, fpr_a, fpr_b, session.role)
        own_tag_flow = FLOW_INITIATOR_TAG if role is Role.INITIATOR else FLOW_RESPONDER_TAG
        peer_tag_flow = FLOW_RESPONDER_TAG if role is Role.INITIATOR else FLOW_INITIATOR_TAG
        self._send(peer, exchange_id, own_tag_flow, bundle.tau_self)
        tag_env = self._wait_for(peer_tag_flow, deadline, exchange_id)
        if tag_env is None:
            session.mark_failed()
            return Outcome.ABORTED_BY_TIMEOUT, exchange_id, None, None
        ok, key = bundle.verify_peer_tag(tag_env.payload, fpr_a, fpr_b, sid)
        if not ok:
            session.mark_failed()
            return Outcome.PASSWORD_MISMATCH, exchange_id, None, None
        session.mark_confirmed()
        return Outcome.SUCCESS, exchange_id, key, peer_fpr

    def _ordered_fingerprints(self, role: Role, peer_fpr: Fingerprint):
        """(fpr_A, fpr_B) with the initiator's fingerprint in the A slot."""
        own = self.keystore.self_fingerprint
        return (own, peer_fpr) if role is Role.INITIATOR else (peer_fpr, own)

    def _finalize(self, peer: bytes, exchange_id: bytes | None, role: Role,
                  outcome: Outcome, started: float, key: bytes | None,
                  peer_fpr: Fingerprint | None) -> None:
        record = self.keystore.peer(peer)
        if outcome is Outcome.SUCCESS:
            record.authenticated = True
            record.chained_key = key
            record.failed_attempts = 0
            record.fingerprint = peer_fpr
        elif outcome is Outcome.PASSWORD_MISMATCH:
            record.failed_attempts += 1
        self.keystore.record_exchange(ExchangeRecord(
            exchange_id=exchange_id or b"\x00" * 16,
            peer=peer,
            role=role,
            outcome=outcome,
            started_at=started,
            ended_at=time.time(),
        ))

    # -- chaining ----------------------------------------------------------

    def reauthenticate_chained(self, peer: bytes, role: Role | None = None, *,
                               timeout: float | None = None) -> AuthResult:
        """Re-authenticate with the stored key as the password; no prompt.

        A success rotates the stored key; a mismatch means the chains
        diverged and manual authentication is required.
        """
        peer = bytes(peer)
        record = self.keystore.peer(peer)
        if record.chained_key is None:
            raise NoChainError(f"no stored chained key for {peer!r}")
        password = record.chained_key.hex().encode()
        result = self.authenticate(peer, password, role, timeout=timeout)
        if result.outcome is Outcome.PASSWORD_MISMATCH:
            result.fallback_to_manual = True
        return result

    # -- data messages -----------------------------------------------------

    def send_sealed(self, peer: bytes, plaintext: bytes) -> None:
        record = self.keystore.peer(bytes(peer))
        if not record.authenticated or record.chained_key is None:
            raise ManagerError("peer is not authenticated; refuse to send")
        blob = sealed.seal(record.chained_key, plaintext).to_bytes()
        self._send(peer, fresh_exchange_id(), FLOW_DATA, blob)

    def recv_sealed(self, timeout: float = 5.0) -> list[tuple[bytes, bytes]]:
        """Collect data messages; returns (sender, plaintext) pairs.

        A message that does not open is logged and dropped; the rest of its
        batch is still returned.
        """
        deadline = time.monotonic() + timeout
        out = []
        while True:
            with self._inbox_lock:
                self._collect()
                keys = [k for k, env in self._inbox.items() if env.flow == FLOW_DATA]
                for key in keys:
                    env = self._inbox.pop(key)
                    self._processed.add(key)
                    record = self.keystore.peer(env.sender)
                    if record.chained_key is None:
                        continue
                    try:
                        out.append((env.sender, sealed.open_sealed(
                            record.chained_key, sealed.SealedMessage.from_bytes(env.payload))))
                    except sealed.SealError:
                        logger.warning("dropped a sealed message from %r (exchange %s) "
                                       "that did not open", env.sender, env.exchange_id.hex())
            remaining = deadline - time.monotonic()
            if out or remaining <= 0:
                return out
            self.backend.wait(self.identity, min(remaining, POLL_INTERVAL))
