"""Keystore persistence and the exchange driver.

The :class:`SessionManager` drives the three-flow exchange engine of
:mod:`pakemail.exchange` over any transport backend, enforces the
failed-attempt lockout, keeps a persistent exchange history, and
re-authenticates renewed key material by chaining the stored high-entropy
key into the next run as its password. Only a responder releases its tag
unverified, so only it can be probed by guess-and-abort; it counts a failed
attempt on disk before that tag leaves, and a silent probe shows in the
history as a timeout, not nothing.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import secrets
import tempfile
import threading
import time
import typing
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from . import sealed
from .confirm import Fingerprint
from .exchange import Exchange, Outcome
from .groups import Group
from .pake import Role
from .transport import (
    FLOW_DATA,
    FLOW_INITIATOR_PAKE,
    TransportBackend,
    TransportEnvelope,
    fresh_exchange_id,
)

KEYSTORE_HEADER = "pakemail-keystore v2"
# the longest single blocking poll: a thread serving another peer may have
# filed this thread's envelope, and would not wake it
POLL_INTERVAL = 0.005
# how many recently filed (exchange id, flow) keys are remembered to drop
# transport duplicates, which land right behind their original; also the
# most openings and data messages a manager holds
DEDUPE_WINDOW = 4096

logger = logging.getLogger(__name__)


class ManagerError(Exception):
    pass


class LockedOutError(ManagerError):
    """Failed-attempt limit reached for this peer; operator override required."""


class NoChainError(ManagerError):
    """No stored chained key for this peer."""


@dataclass
class AttemptPolicy:
    max_failed_attempts: int = 3
    timeout: float = 30.0


@dataclass
class _SelfRecord:
    identity: bytes
    fingerprint: Fingerprint


@dataclass
class PeerRecord:
    identity: bytes = dataclasses.field(metadata={"in_tag": True})  # tag `peer <hex>`
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


# (to JSON, from JSON) by declared type; None and other types stay as they are
_CONVERTERS = {bytes: (bytes.hex, bytes.fromhex),
               Fingerprint: (attrgetter("hex"), Fingerprint.from_hex),
               Role: (attrgetter("value"), Role), Outcome: (attrgetter("value"), Outcome)}


def _converters(cls) -> list[tuple]:
    """(name, to JSON, from JSON) for each journal field of ``cls``, in order."""
    kinds = {name: (typing.get_args(kind) or (kind,))[0]  # X | None converts as X
             for name, kind in typing.get_type_hints(cls).items()}
    return [(f.name, *_CONVERTERS.get(kinds[f.name], (None, None)))
            for f in dataclasses.fields(cls) if not f.metadata.get("in_tag")]


_FIELDS = {cls: _converters(cls) for cls in (_SelfRecord, PeerRecord, ExchangeRecord)}


def _convert(value, convert):
    return value if value is None or convert is None else convert(value)


def _line(prefix: str, record) -> bytes:
    """One journal record, ``<checksum> <prefix> <JSON>``, without its newline."""
    obj = {name: _convert(getattr(record, name), encode)
           for name, encode, _ in _FIELDS[type(record)]}
    return _checksummed(f"{prefix} {json.dumps(obj)}".encode())


def _record(cls, payload: bytes, *tagged):
    """``cls`` from its ``tagged`` leading fields and JSON; a missing key takes its default."""
    obj = json.loads(payload)
    return cls(*tagged, **{name: _convert(obj[name], decode)
                            for name, _, decode in _FIELDS[cls] if name in obj})


def _peer_line(record: PeerRecord) -> bytes:
    return _line(f"peer {record.identity.hex()}", record)


# an exchange record starts with its checksum, then _EXCHANGE
_TAG, _EXCHANGE = slice(9, 18), b"exchange "


def _parse_exchange(line: bytes) -> ExchangeRecord:
    return _record(ExchangeRecord, line[_TAG.stop:])


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
    CRC-32 of the rest of the line. Records:

    * ``self <JSON>``: own identity and fingerprint;
    * ``peer <identity> <JSON>``: one peer's state; the newest record per
      identity wins, and only that one is parsed;
    * ``exchange <JSON>``: one history entry, oldest first;
    * ``seal <crc>``: ``crc`` is the CRC-32 of every byte before the seal.

    Each JSON has one key per field of its dataclass, in declaration order
    (a peer's identity is in hex in its tag); bytes and fingerprints are in
    hex, enums by value. A missing key takes its field's default.

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

    One lock serializes saves, so threads sharing a keystore cannot
    interleave appends.
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
        self._saved_peers: dict[bytes, PeerRecord] = {}
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
                    own = _record(_SelfRecord, payload)
                    self.self_identity, self.self_fingerprint = own.identity, own.fingerprint
                elif tag == b"peer":
                    record = _record(PeerRecord, payload, bytes.fromhex(key.decode()))
                    self.peers[record.identity] = record
                    self._saved_peers[record.identity] = dataclasses.replace(record)
                elif tag != b"seal":
                    raise ValueError(f"unknown record tag {tag!r}")
            except (ValueError, TypeError) as exc:
                raise self._malformed(line) from exc

    def _malformed(self, line: bytes) -> ManagerError:
        number = self.path.read_bytes().split(b"\n").index(line) + 1
        return ManagerError(f"{self.path}: line {number} is malformed")

    @property
    def exchanges(self) -> list[ExchangeRecord]:
        """The exchange history, oldest first; append to it and save()."""
        with self._lock:
            if self._unparsed:
                parsed = []
                try:
                    for line in self._unparsed:
                        parsed.append(_parse_exchange(line))
                except (ValueError, TypeError) as exc:
                    raise self._malformed(line) from exc
                self._exchanges[:0] = parsed
                self._saved += len(self._unparsed)
                self._unparsed = []
            return self._exchanges

    def save(self) -> None:
        with self._lock:
            changed = [identity for identity, record in self.peers.items()
                       if record != self._saved_peers.get(identity)]
            new = [_line("exchange", rec) for rec in self._exchanges[self._saved:]]
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
                self._saved_peers[identity] = dataclasses.replace(self.peers[identity])

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
        own = _SelfRecord(self.self_identity, self.self_fingerprint)
        data = b"\n".join([KEYSTORE_HEADER.encode(), _line("self", own)]
                         + [_peer_line(record) for record in self.peers.values()]
                         + self._unparsed
                         + [_line("exchange", rec) for rec in self._exchanges[:self._saved]]
                         + new) + b"\n"
        data += _seal(zlib.crc32(data))
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
            return self.peers.setdefault(identity, PeerRecord(identity))

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


def _remember(window: OrderedDict, key, value) -> None:
    """Put ``key`` last in ``window``, forgetting the oldest beyond ``DEDUPE_WINDOW``."""
    window.pop(key, None)
    window[key] = value
    if len(window) > DEDUPE_WINDOW:
        window.popitem(last=False)


class SessionManager:
    """Drives exchanges for one client identity over one backend.

    Each ``authenticate`` call drives one :class:`~pakemail.exchange.Exchange`.
    Whichever thread polls files each new envelope: under the exchange it
    belongs to if this manager runs that exchange, else as the newest
    opening from its sender, or as a data message. Everything else is
    dropped, and so is an (exchange id, flow) already seen among the last
    ``DEDUPE_WINDOW``. No container here grows past ``DEDUPE_WINDOW``.
    """

    def __init__(self, keystore: Keystore, backend: TransportBackend, group: Group,
                 policy: AttemptPolicy | None = None):
        self.keystore = keystore
        self.backend = backend
        self.group = group
        self.policy = policy if policy is not None else AttemptPolicy()
        # filed under _lock by whichever thread polls, since threads serving
        # several peers share them: envelopes waiting for the exchanges this
        # manager runs, by exchange id; the newest opening per sender; data
        self._running: dict[bytes, list[TransportEnvelope]] = {}
        self._openings: OrderedDict[bytes, TransportEnvelope] = OrderedDict()
        self._data: deque[TransportEnvelope] = deque(maxlen=DEDUPE_WINDOW)
        self._processed: OrderedDict[tuple[bytes, int], None] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def identity(self) -> bytes:
        return self.keystore.self_identity

    # -- envelope plumbing -------------------------------------------------

    def _file(self, env: TransportEnvelope) -> None:
        key = (env.exchange_id, env.flow)
        if key in self._processed:
            return  # at-least-once delivery: drop duplicates
        _remember(self._processed, key, None)
        if env.exchange_id in self._running:
            self._running[env.exchange_id].append(env)
        elif env.flow == FLOW_INITIATOR_PAKE:
            # older openings are ones the sender has given up on
            _remember(self._openings, env.sender, env)
        elif env.flow == FLOW_DATA:
            self._data.append(env)  # when full, the oldest waiting message is dropped

    def _receive(self, deadline: float, pick):
        """Poll until ``pick()`` takes something or the deadline passes.

        The first poll does not block; later ones block for at most
        ``POLL_INTERVAL``. ``pick`` runs under the lock and returns what it
        took, falsy for nothing; the last pick is returned.
        """
        timeout = 0.0
        while True:
            envelopes = self.backend.poll(self.identity, timeout)
            with self._lock:
                for env in envelopes:
                    self._file(env)
                taken = pick()
            remaining = deadline - time.monotonic()
            if taken or remaining <= 0:
                return taken
            timeout = min(remaining, POLL_INTERVAL)

    def _send(self, peer: bytes, exchange_id: bytes, flows) -> None:
        for flow, payload, fingerprint in flows:
            self.backend.send(TransportEnvelope(
                exchange_id, flow, self.identity, bytes(peer), payload, fingerprint))

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
        if binding == "pi" and record.fingerprint is None:
            raise ManagerError("in-pi binding needs the peer fingerprint in the keystore")
        deadline = time.monotonic() + (timeout if timeout is not None else self.policy.timeout)
        started = time.time()
        exchange_id = fresh_exchange_id() if role is Role.INITIATOR else None
        engine = Exchange(role, self.identity, peer, password, self.group,
                          self.keystore.self_fingerprint, record.fingerprint,
                          exchange_id=exchange_id, binding=binding)

        def pick() -> list[TransportEnvelope]:
            nonlocal exchange_id
            if exchange_id is None:  # a responder answers the newest opening from its peer
                opening = self._openings.pop(peer, None)
                if opening is None:
                    return []
                exchange_id = opening.exchange_id
                self._running[exchange_id] = [opening]
            taken, self._running[exchange_id] = self._running[exchange_id], []
            return taken

        try:
            if role is Role.INITIATOR:
                with self._lock:
                    self._running[exchange_id] = []
            self._send(peer, exchange_id, engine.start())
            while engine.outcome is None:
                envelopes = self._receive(deadline, pick)
                if not envelopes:
                    engine.expire()
                for env in envelopes:
                    flows = engine.receive(env.exchange_id, env.flow, env.payload,
                                           env.fingerprint)
                    if flows and engine.released:  # charged on disk before the tag leaves
                        record.failed_attempts += 1
                        self.keystore.save()
                    self._send(peer, exchange_id, flows)
        finally:
            with self._lock:
                self._running.pop(exchange_id, None)

        if engine.outcome is Outcome.SUCCESS:
            record.authenticated = True
            record.chained_key = engine.key
            record.failed_attempts = 0
            record.fingerprint = engine.peer_fpr
        elif engine.outcome is Outcome.PASSWORD_MISMATCH and not engine.released:
            record.failed_attempts += 1
        self.keystore.record_exchange(ExchangeRecord(
            exchange_id or b"\x00" * 16, peer, role, engine.outcome, started, time.time()))
        return AuthResult(engine.outcome, exchange_id, engine.key)

    # -- chaining ----------------------------------------------------------

    def reauthenticate_chained(self, peer: bytes, role: Role | None = None, *,
                               timeout: float | None = None) -> AuthResult:
        """Re-authenticate with the stored key as the password; no prompt.

        A success rotates the stored key; a mismatch means the chains
        diverged and manual authentication is required.
        """
        peer = bytes(peer)
        record = self.keystore.peers.get(peer)  # a refused renewal adds no record
        if record is None or record.chained_key is None:
            raise NoChainError(f"no stored chained key for {peer!r}")
        password = record.chained_key.hex().encode()
        result = self.authenticate(peer, password, role, timeout=timeout)
        if result.outcome is Outcome.PASSWORD_MISMATCH:
            result.fallback_to_manual = True
        return result

    # -- data messages -----------------------------------------------------

    def send_sealed(self, peer: bytes, plaintext: bytes) -> None:
        record = self.keystore.peers.get(bytes(peer))  # a refused send adds no record
        if record is None or not record.authenticated or record.chained_key is None:
            raise ManagerError("peer is not authenticated; refuse to send")
        blob = sealed.seal(record.chained_key, plaintext).to_bytes()
        self._send(peer, fresh_exchange_id(), [(FLOW_DATA, blob, None)])

    def recv_sealed(self, timeout: float = 5.0) -> list[tuple[bytes, bytes]]:
        """Collect data messages; returns (sender, plaintext) pairs.

        A message that does not open is logged and dropped; the rest of its
        batch is still returned. A message from a sender without a stored
        key is dropped and leaves the keystore as it was.
        """
        def pick() -> list[tuple[bytes, bytes]]:
            out = []
            while self._data:
                env = self._data.popleft()
                record = self.keystore.peers.get(env.sender)
                if record is None or record.chained_key is None:
                    continue
                try:
                    out.append((env.sender, sealed.open_sealed(
                        record.chained_key, sealed.SealedMessage.from_bytes(env.payload))))
                except sealed.SealError:
                    logger.warning("dropped a sealed message from %r (exchange %s) "
                                   "that did not open", env.sender, env.exchange_id.hex())
            return out

        return self._receive(time.monotonic() + timeout, pick)
