"""Pluggable asynchronous transports for protocol flows.

Every backend moves :class:`TransportEnvelope` objects: in-memory loopback
for tests, a maildir mailbox with MIME-attachment carriers, an opt-in
IMAP/SMTP client, and a client for the untrusted relay server. Delivery is
at-least-once with no ordering guarantee; the session layer tolerates
duplicates and reordering.

``wait(recipient, timeout)`` blocks until mail for the recipient may be
there: loopback wakes on delivery, every other backend sleeps the timeout.
The relay client keeps one connection and reopens it once if the relay
dropped it.
"""

from __future__ import annotations

import base64
import email
import email.message
import email.utils
import logging
import os
import re
import secrets
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from . import relay, wire
from .confirm import Fingerprint

logger = logging.getLogger(__name__)

FLOW_INITIATOR_PAKE = 0
FLOW_RESPONDER_PAKE = 1
FLOW_INITIATOR_TAG = 2
FLOW_RESPONDER_TAG = 3
FLOW_DATA = 9

VALID_FLOWS = (0, 1, 2, 3, 9)

_SUBJECT_RE = re.compile(r"^PAKEMAIL ([0-9a-f]{32}) (\d)$")
_ENVELOPE_MAGIC = b"PKML1"


class TransportError(Exception):
    """Backend unreachable or envelope could not be moved; retriable."""


class EnvelopeError(ValueError):
    """Malformed envelope bytes or email."""


class NotPakeMailMessage(Exception):
    """An ordinary email without the PAKEMAIL subject marker."""


@dataclass(frozen=True)
class TransportEnvelope:
    """Wire unit for one protocol flow.

    ``exchange_id`` stays constant across all flows of one session; the
    sender's fingerprint travels only on the two PAKE flows (0 and 1).
    On the wire: magic, exchange id, flow byte, then sender, recipient,
    fingerprint (empty when absent) and payload as packed fields.
    """

    exchange_id: bytes
    flow: int
    sender: bytes
    recipient: bytes
    payload: bytes
    fingerprint: Fingerprint | None = None

    def __post_init__(self):
        if len(self.exchange_id) != 16:
            raise EnvelopeError("exchange id must be 16 bytes")
        if self.flow not in VALID_FLOWS:
            raise EnvelopeError(f"flow must be one of {VALID_FLOWS}, got {self.flow}")
        if not self.sender or not self.recipient:
            raise EnvelopeError("sender and recipient must be non-empty")

    def to_bytes(self) -> bytes:
        fpr = self.fingerprint.bytes if self.fingerprint else b""
        return b"".join([_ENVELOPE_MAGIC, self.exchange_id, bytes([self.flow]),
                         wire.pack([self.sender, self.recipient, fpr, self.payload])])

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransportEnvelope":
        if data[:5] != _ENVELOPE_MAGIC:
            raise EnvelopeError("bad envelope magic")
        if len(data) < 22:
            raise EnvelopeError("truncated envelope")
        try:
            sender, recipient, fpr, payload = wire.unpack(data, 22)
        except ValueError as exc:  # a WireError, or not four fields
            raise EnvelopeError(f"malformed envelope: {exc}") from None
        fingerprint = Fingerprint(fpr) if fpr else None
        return cls(data[5:21], data[21], sender, recipient, payload, fingerprint)


def fresh_exchange_id() -> bytes:
    return secrets.token_bytes(16)


class TransportBackend:
    """Send/poll interface every backend implements."""

    def send(self, envelope: TransportEnvelope) -> None:
        raise NotImplementedError

    def poll(self, recipient: bytes) -> list[TransportEnvelope]:
        raise NotImplementedError

    def wait(self, recipient: bytes, timeout: float) -> None:
        """Block until mail for ``recipient`` may be there or ``timeout`` passes."""
        time.sleep(timeout)

    def close(self) -> None:
        """Release a connection kept between calls; most backends keep none."""


# ---------------------------------------------------------------------------
# Loopback
# ---------------------------------------------------------------------------

class LoopbackTransport(TransportBackend):
    """In-memory mailbox map; immediate delivery, thread-safe; a send wakes waiters."""

    def __init__(self) -> None:
        self._boxes: dict[bytes, deque] = {}
        self._cond = threading.Condition()

    def send(self, envelope: TransportEnvelope) -> None:
        blob = envelope.to_bytes()  # serialize up front to mimic the wire
        with self._cond:
            self._boxes.setdefault(bytes(envelope.recipient), deque()).append(blob)
            self._cond.notify_all()

    def poll(self, recipient: bytes) -> list[TransportEnvelope]:
        with self._cond:
            box = self._boxes.get(bytes(recipient))
            blobs = list(box) if box else []
            if box:
                box.clear()
        return [TransportEnvelope.from_bytes(b) for b in blobs]

    def wait(self, recipient: bytes, timeout: float) -> None:
        recipient = bytes(recipient)
        with self._cond:
            self._cond.wait_for(lambda: self._boxes.get(recipient), timeout)


# ---------------------------------------------------------------------------
# Email encoding (shared by maildir and IMAP/SMTP backends)
# ---------------------------------------------------------------------------

def encode_email(envelope: TransportEnvelope) -> bytes:
    """RFC-5322 message with the payload as a base64 attachment.

    Subject grammar is bit-exact: ``PAKEMAIL <32 hex chars> <digit>``; the
    sender fingerprint rides in ``X-PakeMail-Fpr`` on flows 0-1.
    """
    msg = email.message.EmailMessage()
    msg["From"] = envelope.sender.decode("utf-8", "replace")
    msg["To"] = envelope.recipient.decode("utf-8", "replace")
    msg["Subject"] = f"PAKEMAIL {envelope.exchange_id.hex()} {envelope.flow}"
    msg["Date"] = email.utils.formatdate()
    if envelope.fingerprint is not None:
        msg["X-PakeMail-Fpr"] = envelope.fingerprint.hex
    msg.set_content("This message carries authentication data; it is processed automatically.")
    msg.add_attachment(envelope.payload, maintype="application",
                       subtype="octet-stream", filename="pakemail.bin")
    return msg.as_bytes()


def decode_email(raw: bytes) -> TransportEnvelope:
    msg = email.message_from_bytes(raw)
    subject = msg.get("Subject", "")
    match = _SUBJECT_RE.match(subject.strip())
    if not match:
        raise NotPakeMailMessage(f"subject {subject!r} has no PAKEMAIL marker")
    exchange_id = bytes.fromhex(match.group(1))
    flow = int(match.group(2))
    if flow not in VALID_FLOWS:
        raise EnvelopeError(f"flow {flow} out of range")
    sender = (msg.get("From") or "").strip().encode()
    recipient = (msg.get("To") or "").strip().encode()
    fingerprint = None
    fpr_header = msg.get("X-PakeMail-Fpr")
    if fpr_header:
        try:
            fingerprint = Fingerprint(bytes.fromhex(fpr_header.strip()))
        except ValueError as exc:
            raise EnvelopeError(f"bad fingerprint header: {exc}") from exc
    payload = None
    for part in msg.walk():
        if part.get_filename() == "pakemail.bin":
            payload = part.get_payload(decode=True)
            break
    if payload is None:
        raise EnvelopeError("missing pakemail.bin attachment")
    return TransportEnvelope(exchange_id, flow, sender, recipient, payload, fingerprint)


# ---------------------------------------------------------------------------
# Maildir
# ---------------------------------------------------------------------------

def _mailbox_name(identity: bytes) -> str:
    return base64.urlsafe_b64encode(identity).decode().rstrip("=")


class MaildirTransport(TransportBackend):
    """One standard maildir (tmp/new/cur) per recipient identity.

    Delivery writes to tmp and renames into new; polling parses messages
    from new and moves them to cur so nothing is processed twice. Parse
    failures are logged and skipped, never fatal.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _maildir(self, identity: bytes) -> Path:
        box = self.root / _mailbox_name(identity)
        for sub in ("tmp", "new", "cur"):
            (box / sub).mkdir(parents=True, exist_ok=True)
        return box

    def send(self, envelope: TransportEnvelope) -> None:
        box = self._maildir(envelope.recipient)
        name = f"{time.time():.6f}.{os.getpid()}.{secrets.token_hex(8)}"
        tmp_path = box / "tmp" / name
        try:
            tmp_path.write_bytes(encode_email(envelope))
            tmp_path.rename(box / "new" / name)
        except OSError as exc:
            raise TransportError(f"maildir write failed: {exc}") from exc

    def poll(self, recipient: bytes) -> list[TransportEnvelope]:
        box = self._maildir(recipient)
        envelopes = []
        for path in sorted((box / "new").iterdir()):
            try:
                raw = path.read_bytes()
            except OSError as exc:
                logger.warning("unreadable maildir entry %s: %s", path.name, exc)
                continue
            try:
                envelopes.append(decode_email(raw))
            except NotPakeMailMessage:
                logger.debug("ignoring ordinary mail %s", path.name)
            except (EnvelopeError, ValueError) as exc:
                logger.warning("skipping malformed message %s: %s", path.name, exc)
            path.rename(box / "cur" / (path.name + ":2,S"))
        return envelopes


# ---------------------------------------------------------------------------
# IMAP/SMTP (configured from the environment or a config mapping)
# ---------------------------------------------------------------------------

@dataclass
class MailAccountConfig:
    smtp_host: str
    smtp_port: int
    imap_host: str
    imap_port: int
    username: str
    password: str

    @classmethod
    def from_env(cls) -> "MailAccountConfig":
        try:
            return cls(
                smtp_host=os.environ["PAKEMAIL_SMTP_HOST"],
                smtp_port=int(os.environ.get("PAKEMAIL_SMTP_PORT", "465")),
                imap_host=os.environ["PAKEMAIL_IMAP_HOST"],
                imap_port=int(os.environ.get("PAKEMAIL_IMAP_PORT", "993")),
                username=os.environ["PAKEMAIL_SMTP_USER"],
                password=os.environ["PAKEMAIL_SMTP_PASSWORD"],
            )
        except KeyError as exc:
            raise TransportError(f"missing mail configuration variable {exc}") from exc


class ImapSmtpTransport(TransportBackend):
    """Live email backend: sends over SMTP with TLS, polls over IMAP with TLS.

    A poll marks every unseen PAKEMAIL-subject message seen, decodable or not.
    """

    def __init__(self, config: MailAccountConfig) -> None:
        self.config = config

    def send(self, envelope: TransportEnvelope) -> None:
        import smtplib

        raw = encode_email(envelope)
        try:
            with smtplib.SMTP_SSL(self.config.smtp_host, self.config.smtp_port) as smtp:
                smtp.login(self.config.username, self.config.password)
                smtp.sendmail(envelope.sender.decode(), [envelope.recipient.decode()], raw)
        except (OSError, smtplib.SMTPException) as exc:
            raise TransportError(f"smtp send failed: {exc}") from exc

    def poll(self, recipient: bytes) -> list[TransportEnvelope]:
        import imaplib

        envelopes = []
        try:
            with imaplib.IMAP4_SSL(self.config.imap_host, self.config.imap_port) as imap:
                imap.login(self.config.username, self.config.password)
                imap.select("INBOX")
                _, data = imap.search(None, "UNSEEN", 'SUBJECT "PAKEMAIL"')
                for num in data[0].split():
                    _, fetched = imap.fetch(num, "(RFC822)")
                    raw = fetched[0][1]
                    try:
                        envelopes.append(decode_email(raw))
                    except (NotPakeMailMessage, EnvelopeError) as exc:
                        logger.warning("skipping message %s: %s", num, exc)
                    imap.store(num, "+FLAGS", "\\Seen")
        except (OSError, imaplib.IMAP4.error) as exc:
            raise TransportError(f"imap poll failed: {exc}") from exc
        return envelopes


# ---------------------------------------------------------------------------
# Untrusted relay client
# ---------------------------------------------------------------------------

class RelayTransport(TransportBackend):
    """Client for the store-and-forward relay: PUT on send, GET+ACK on poll.

    One connection, opened on first use, carries every request; a lock keeps
    requests from interleaving on it. If the relay closed a connection that
    served earlier requests, the request is sent once more on a fresh one: a
    PUT may then be stored twice, which the session layer drops as a
    duplicate. Any other failure closes the connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _request(self, frame: bytes) -> tuple[int, list[bytes]]:
        if self._sock is not None:
            try:
                self._sock.sendall(frame)
                return relay.read_frame(self._sock)
            except ConnectionError:  # the relay closed the kept connection
                self._drop()
        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._sock.sendall(frame)
        return relay.read_frame(self._sock)

    def _roundtrip(self, frame: bytes) -> tuple[int, list[bytes]]:
        with self._lock:
            try:
                opcode, fields = self._request(frame)
            except (OSError, relay.FrameError) as exc:
                self._drop()  # the stream's state is unknown
                raise TransportError(f"relay unreachable: {exc}") from exc
        if opcode == relay.OP_ERR:
            raise TransportError(f"relay error: {fields[0].decode(errors='replace')}")
        return opcode, fields

    def send(self, envelope: TransportEnvelope) -> None:
        frame = relay.encode_frame(relay.OP_PUT, [envelope.recipient, envelope.to_bytes()])
        opcode, _ = self._roundtrip(frame)
        if opcode != relay.OP_OK:
            raise TransportError(f"unexpected relay reply opcode {opcode}")

    def poll(self, recipient: bytes) -> list[TransportEnvelope]:
        opcode, fields = self._roundtrip(relay.encode_frame(relay.OP_GET, [recipient]))
        if opcode != relay.OP_LIST or len(fields) % 2:
            raise TransportError("malformed relay LIST reply")
        envelopes = []
        for blob in fields[1::2]:
            try:
                envelopes.append(TransportEnvelope.from_bytes(blob))
            except EnvelopeError as exc:
                logger.warning("skipping malformed relay blob: %s", exc)
        if fields:  # malformed blobs are acknowledged too
            self._roundtrip(relay.encode_frame(relay.OP_ACK, [recipient, *fields[::2]]))
        return envelopes
