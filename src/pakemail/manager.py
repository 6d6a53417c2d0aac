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

import contextlib
import dataclasses
import json
import logging
import os
import secrets
import sqlite3
import threading
import time
import typing
import weakref
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

# the keystore's PRAGMA application_id ("pkml") and user_version (format v3;
# v1 and v2 were text files), and the tables a new one is given
_STORE_ID = (0x706B6D6C, 3)
_SCHEMA = ("CREATE TABLE self (record BLOB NOT NULL)",
           "CREATE TABLE peers (identity BLOB PRIMARY KEY, record BLOB NOT NULL)",
           "CREATE TABLE exchanges (record BLOB NOT NULL)",
           "PRAGMA application_id = %d" % _STORE_ID[0],
           "PRAGMA user_version = %d" % _STORE_ID[1])
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
    """``body`` behind 8 hex digits: the CRC-32 of the rest of the record."""
    rest = b" " + body
    return b"%08x" % zlib.crc32(rest) + rest


def _intact(line: bytes) -> bool:
    return line[:8] == b"%08x" % zlib.crc32(line[8:])


# (to JSON, from JSON) by declared type; None and other types stay as they are
_CONVERTERS = {bytes: (bytes.hex, bytes.fromhex),
               Fingerprint: (attrgetter("hex"), Fingerprint.from_hex),
               Role: (attrgetter("value"), Role), Outcome: (attrgetter("value"), Outcome)}


def _converters(cls) -> list[tuple]:
    """(name, to JSON, from JSON) for each stored field of ``cls``, in order."""
    kinds = {name: (typing.get_args(kind) or (kind,))[0]  # X | None converts as X
             for name, kind in typing.get_type_hints(cls).items()}
    return [(f.name, *_CONVERTERS.get(kinds[f.name], (None, None)))
            for f in dataclasses.fields(cls) if not f.metadata.get("in_tag")]


_FIELDS = {cls: _converters(cls) for cls in (_SelfRecord, PeerRecord, ExchangeRecord)}


def _convert(value, convert):
    return value if value is None or convert is None else convert(value)


def _line(prefix: str, record) -> bytes:
    """One stored record, ``<checksum> <prefix> <JSON>``."""
    obj = {name: _convert(getattr(record, name), encode)
           for name, encode, _ in _FIELDS[type(record)]}
    return _checksummed(f"{prefix} {json.dumps(obj)}".encode())


def _record(cls, line: bytes, prefix: str, *tagged):
    """``cls`` from ``tagged`` and the JSON after ``prefix``; a missing key takes its default."""
    head = f" {prefix} ".encode()
    if line[8:8 + len(head)] != head:
        raise ValueError(f"not a {prefix.split()[0]} record")
    obj = json.loads(line[8 + len(head):])
    return cls(*tagged, **{name: _convert(obj[name], decode)
                            for name, _, decode in _FIELDS[cls] if name in obj})


def _parse_exchange(line: bytes) -> ExchangeRecord:
    return _record(ExchangeRecord, line, "exchange")


class Keystore:
    """Single-file persistent store: one SQLite database in WAL mode.

    Format ``pakemail-keystore v3``: ``PRAGMA application_id`` and
    ``user_version`` are :data:`_STORE_ID`; tables ``self`` (one row),
    ``peers`` (keyed by identity) and ``exchanges`` (in insertion order).
    Each row's ``record`` is one line, ``<checksum> <tag> <JSON>``: 8 hex
    digits of CRC-32 over the rest of the line, then ``self``, ``peer
    <identity hex>`` or ``exchange``, then one JSON key per dataclass field
    in declaration order (bytes and fingerprints in hex, enums by value; a
    missing key takes its default). A row that fails its checksum, or whose
    tag does not match its table and key, is refused with ManagerError.

    Opening reads the self and peer rows only; :attr:`exchanges` reads the
    history when first accessed. ``save()`` is one transaction that upserts
    the peers changed since their last save and inserts the exchanges added
    since, to :attr:`exchanges` or by :meth:`record_exchange` (which keeps
    none in memory while the history is unread); with no change it writes
    nothing. Into a peer's stored row it writes only the fields this handle
    changed, and a rise in failed attempts adds to the stored count, so
    concurrent saves from other processes lose no charge.

    Crash rule: SQLite's atomic commit under ``synchronous=FULL``. A save
    returns once its commit is synced to the write-ahead log; a crash before
    that, or a save that raises, leaves the previous state, and the next
    save writes all that is still unsaved. Only the owner can read the file
    and its write-ahead log. A v2 journal, or any file that is not this
    store, is refused with ManagerError and left as it is; a v2 user runs
    ``pakemail auth`` again. An empty database, which a crash while creating
    a keystore leaves, is filled when opened with a self identity. One lock
    serializes this handle's reads and saves across threads.
    """

    def __init__(self, path, self_identity: bytes | None = None):
        self.path = Path(path)
        self.self_identity: bytes | None = None
        self.self_fingerprint: Fingerprint | None = None
        self.peers: dict[bytes, PeerRecord] = {}
        self._lock = threading.RLock()
        # last saved state per peer; the history once read, whose first
        # _saved entries are stored; records to save while it is unread
        self._saved_peers: dict[bytes, PeerRecord] = {}
        self._exchanges: list[ExchangeRecord] | None = None
        self._saved = 0
        self._unread: list[ExchangeRecord] = []
        if self_identity is None and not self.path.exists():
            raise ManagerError("new keystore needs a self identity")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileExistsError):  # owner-only, and so are -wal and -shm
            os.close(os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600))
        self._db = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
        weakref.finalize(self, self._db.close)  # closed when the keystore is collected
        try:
            kind = self._db.execute("SELECT * FROM pragma_application_id, "
                                    "pragma_user_version, pragma_schema_version").fetchone()
        except sqlite3.DatabaseError:
            kind = None  # not an SQLite database
        ours = kind is not None and kind[:2] == _STORE_ID
        if not ours and (kind != (0, 0, 0) or self_identity is None):
            raise ManagerError(f"{self.path} is not a pakemail-keystore v3 file")
        self._db.execute("PRAGMA synchronous = FULL")
        if ours:
            self._load()
        else:  # an empty database: a new keystore, or what a crash creating one left
            self._create(bytes(self_identity))
        if self_identity is not None and bytes(self_identity) != self.self_identity:
            raise ManagerError("keystore belongs to a different identity")

    def _create(self, identity: bytes) -> None:
        self.self_identity = identity
        # stands in for the fingerprint of the user's existing keypair
        self.self_fingerprint = Fingerprint(secrets.token_bytes(20))
        self._db.execute("PRAGMA journal_mode = WAL")
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            for statement in _SCHEMA:
                self._db.execute(statement)
            self._db.execute("INSERT INTO self VALUES (?)", (
                _line("self", _SelfRecord(self.self_identity, self.self_fingerprint)),))

    def _load(self) -> None:
        rows = self._db.execute("SELECT rowid, record FROM self").fetchall()
        if len(rows) != 1:
            raise ManagerError(f"{self.path}: {len(rows)} self rows")
        own = self._parse("self", *rows[0], lambda line: _record(_SelfRecord, line, "self"))
        self.self_identity, self.self_fingerprint = own.identity, own.fingerprint
        for row in self._db.execute("SELECT rowid, identity, record FROM peers ORDER BY rowid"):
            record = self._parse_peer(*row)
            self.peers[record.identity] = record
            self._saved_peers[record.identity] = dataclasses.replace(record)

    def _parse_peer(self, rowid: int, identity: bytes, line: bytes) -> PeerRecord:
        return self._parse("peers", rowid, line, lambda line: _record(
            PeerRecord, line, f"peer {identity.hex()}", identity))

    def _merge(self, record: PeerRecord) -> PeerRecord:
        """The stored row with the fields this handle changed since its last save."""
        saved = self._saved_peers.get(record.identity, PeerRecord(record.identity))
        row = self._db.execute("SELECT rowid, * FROM peers WHERE identity = ?",
                               (record.identity,)).fetchone()
        stored = self._parse_peer(*row) if row else saved
        merged = dataclasses.replace(stored, **{
            name: getattr(record, name) for name, _, _ in _FIELDS[PeerRecord]
            if getattr(record, name) != getattr(saved, name)})
        if record.failed_attempts > saved.failed_attempts:  # concurrent charges add up
            merged.failed_attempts = stored.failed_attempts + (
                record.failed_attempts - saved.failed_attempts)
        return merged

    def _parse(self, table: str, rowid: int, line: bytes, parse):
        """``parse(line)`` for an intact row; else a ManagerError naming only the row."""
        if not _intact(line):
            raise ManagerError(f"{self.path}: {table} row {rowid} fails its checksum")
        try:
            return parse(line)
        except (ValueError, TypeError) as exc:
            raise ManagerError(f"{self.path}: {table} row {rowid} is malformed") from exc

    @property
    def exchanges(self) -> list[ExchangeRecord]:
        """The exchange history, oldest first; append to it and save()."""
        with self._lock:
            if self._exchanges is None:
                history = [self._parse("exchanges", rowid, line, _parse_exchange)
                           for rowid, line in self._db.execute(
                               "SELECT rowid, record FROM exchanges ORDER BY rowid")]
                self._exchanges, self._saved = history + self._unread, len(history)
                self._unread = []
            return self._exchanges

    def save(self) -> None:
        with self._lock:
            changed = [record for identity, record in self.peers.items()
                       if record != self._saved_peers.get(identity)]
            appended = self._exchanges[self._saved:] if self._exchanges is not None else []
            new = self._unread + appended
            if not (changed or new):
                return
            with self._db:  # commits, or rolls back if anything raises
                self._db.execute("BEGIN IMMEDIATE")
                merged = [self._merge(record) for record in changed]
                self._db.executemany(
                    "INSERT INTO peers VALUES (?, ?) ON CONFLICT (identity) "
                    "DO UPDATE SET record = excluded.record",
                    [(record.identity, _line(f"peer {record.identity.hex()}", record))
                     for record in merged])
                self._db.executemany("INSERT INTO exchanges VALUES (?)",
                                     [(_line("exchange", record),) for record in new])
            for record, stored in zip(changed, merged):
                vars(record).update(vars(stored))  # in place: callers hold the record
                self._saved_peers[record.identity] = stored
            self._saved += len(appended)
            self._unread = []

    def peer(self, identity: bytes) -> PeerRecord:
        identity = bytes(identity)
        with self._lock:
            return self.peers.setdefault(identity, PeerRecord(identity))

    def record_exchange(self, record: ExchangeRecord) -> None:
        with self._lock:
            (self._unread if self._exchanges is None else self._exchanges).append(record)
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
