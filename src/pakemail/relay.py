"""Untrusted store-and-forward relay server and its wire framing.

The server only routes opaque blobs to named mailboxes; it deliberately
imports nothing from the cryptographic modules, so it could not inspect
traffic even by accident. Anyone can PUT into or GET from any mailbox:
privacy rests entirely on the protocol transcript leaking nothing.

Wire format: each frame is one length-prefixed field (see :mod:`.wire`)
holding a 1-byte opcode followed by the packed fields of the request.

    PUT  recipient, blob          -> OK
    GET  recipient                -> LIST id1, blob1, id2, blob2, ...
    ACK  recipient, id1, id2, ... -> OK   (acknowledged blobs are removed)
    WAIT recipient, timeout       -> OK   (4-byte big-endian milliseconds)

GET lists the oldest blobs whose LIST frame fits in ``MAX_FRAME`` (always
at least one), so a large backlog drains over several GETs; a PUT whose
blob could not fit in a LIST on its own is refused. WAIT blocks until the
recipient's mailbox is non-empty or the timeout passes, at most
``MAX_WAIT_MS``; it changes nothing and is never logged.

A connection carries any number of requests, one reply each, until the
client closes it or the server stops. A malformed frame gets an ERR reply
and the connection survives. A length over ``MAX_FRAME`` gets an ERR reply
and the connection is closed: the refused body is never read, so the bytes
after it cannot be told apart from requests.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import socket
import socketserver
import threading
from collections import OrderedDict

from . import wire

logger = logging.getLogger(__name__)

OP_PUT = 0
OP_GET = 1
OP_ACK = 2
OP_OK = 3
OP_ERR = 4
OP_LIST = 5
OP_WAIT = 6

MAX_FRAME = 16 * 1024 * 1024
# a LIST frame carrying one blob: opcode, 8-byte id field, blob field
MAX_BLOB = MAX_FRAME - 1 - (4 + 8) - 4
# the longest a WAIT blocks, well inside the client's 5 s socket timeout
MAX_WAIT_MS = 4000


FrameError = wire.WireError  # frame bytes that do not decode


def encode_frame(opcode: int, fields: list[bytes]) -> bytes:
    return wire.pack([bytes([opcode]) + wire.pack(fields)])


def decode_frame(body: bytes) -> tuple[int, list[bytes]]:
    if not body:
        raise FrameError("empty frame")
    return body[0], wire.unpack(body, 1)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, list[bytes]]:
    # _recv_exact raises ConnectionError where the stream ends
    return decode_frame(wire.read_field(functools.partial(_recv_exact, sock), MAX_FRAME))


class MailboxStore:
    """Per-recipient queues of opaque blobs, optionally persisted.

    Persistence is an append-only log of PUT/ACK frames, each appended before
    it is applied and replayed at startup; the store never looks inside a
    blob. Replay skips a frame that does not apply or is not a PUT or ACK; a
    torn frame at the end (a crash or a failed append) is cut off before the
    next append.
    """

    def __init__(self, log_path=None) -> None:
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)  # notified by every put
        self._stopping = False  # set by wake_waiters: no wait blocks any more
        self._boxes: dict[bytes, OrderedDict] = {}
        self._next_id = 0
        self._log = None
        # end of the last whole frame in the log; whether a torn one follows
        self._end = 0
        self._torn = False
        if log_path:
            log = open(log_path, "a+b")
            log.seek(0)
            self._replay(log)
            self._log = log

    def _replay(self, log) -> None:
        # self._log is still None, so applying a frame appends nothing
        while True:
            try:
                body = wire.read_field(log.read, MAX_FRAME)
            except FrameError as exc:
                logger.warning("relay log: torn frame at offset %d cut off (%s)",
                               self._end, exc)
                self._torn = True
                return
            if body is None:
                return
            try:
                opcode, fields = decode_frame(body)
                if opcode not in (OP_PUT, OP_ACK):  # applying a WAIT would block replay
                    raise FrameError(f"opcode {opcode} is never logged")
                self.apply(opcode, fields)
            except FrameError as exc:
                logger.warning("relay log: frame at offset %d skipped (%s)", self._end, exc)
            self._end = log.tell()

    def _append_log(self, opcode: int, fields: list[bytes]) -> None:
        if self._log is None:
            return
        if self._torn:
            self._log.truncate(self._end)
        self._torn = True  # until the whole frame is in the log
        frame = encode_frame(opcode, fields)
        self._log.write(frame)
        self._log.flush()
        self._end += len(frame)
        self._torn = False

    def put(self, recipient: bytes, blob: bytes) -> bytes:
        with self._lock:
            self._append_log(OP_PUT, [recipient, blob])
            blob_id = self._next_id.to_bytes(8, "big")
            self._next_id += 1
            self._boxes.setdefault(bytes(recipient), OrderedDict())[blob_id] = bytes(blob)
            self._arrived.notify_all()
            return blob_id

    def get(self, recipient: bytes) -> list[tuple[bytes, bytes]]:
        """The oldest (id, blob) pairs that fit in one LIST frame; the first whatever its size."""
        with self._lock:
            pairs = []
            size = 1  # the LIST frame's opcode
            for blob_id, blob in self._boxes.get(bytes(recipient), {}).items():
                size += 4 + len(blob_id) + 4 + len(blob)
                if pairs and size > MAX_FRAME:
                    break
                pairs.append((blob_id, blob))
            return pairs

    def ack(self, recipient: bytes, blob_ids) -> None:
        with self._lock:
            self._append_log(OP_ACK, [recipient, *blob_ids])
            box = self._boxes.get(bytes(recipient), {})
            for blob_id in blob_ids:
                box.pop(bytes(blob_id), None)

    def wait(self, recipient: bytes, timeout: float) -> None:
        """Block until ``recipient`` has mail or ``timeout`` passes; see wake_waiters."""
        recipient = bytes(recipient)
        with self._arrived:
            self._arrived.wait_for(lambda: self._stopping or self._boxes.get(recipient),
                                   timeout)

    def wake_waiters(self) -> None:
        """End every wait now and make later ones return at once."""
        with self._arrived:
            self._stopping = True
            self._arrived.notify_all()

    def apply(self, opcode: int, fields: list[bytes]) -> bytes:
        """Carry out one request frame and return the reply frame."""
        if opcode == OP_PUT:
            if len(fields) != 2:
                raise FrameError("PUT expects recipient and blob")
            if len(fields[1]) > MAX_BLOB:
                raise FrameError(f"a blob over {MAX_BLOB} bytes would not fit in a LIST")
            self.put(fields[0], fields[1])
            return encode_frame(OP_OK, [])
        if opcode == OP_GET:
            if len(fields) != 1:
                raise FrameError("GET expects a recipient")
            return encode_frame(OP_LIST, [x for pair in self.get(fields[0]) for x in pair])
        if opcode == OP_ACK:
            if not fields:
                raise FrameError("ACK expects a recipient")
            self.ack(fields[0], fields[1:])
            return encode_frame(OP_OK, [])
        if opcode == OP_WAIT:
            if len(fields) != 2 or len(fields[1]) != 4:
                raise FrameError("WAIT expects a recipient and a 4-byte timeout")
            self.wait(fields[0], min(int.from_bytes(fields[1], "big"), MAX_WAIT_MS) / 1000)
            return encode_frame(OP_OK, [])
        raise FrameError(f"unknown opcode {opcode}")

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None


class _RelayHandler(socketserver.BaseRequestHandler):

    def handle(self) -> None:
        store: MailboxStore = self.server.store  # type: ignore[attr-defined]
        read = functools.partial(_recv_exact, self.request)
        while True:
            try:
                body = wire.read_field(read, MAX_FRAME)
            except OSError:
                return
            except FrameError as exc:  # oversized: the stream cannot be resynchronised
                with contextlib.suppress(OSError):
                    self.request.sendall(encode_frame(OP_ERR, [str(exc).encode()]))
                return
            try:
                reply = store.apply(*decode_frame(body))
            except FrameError as exc:
                reply = encode_frame(OP_ERR, [str(exc).encode()])
            except OSError as exc:  # the log append failed, nothing was applied
                logger.error("relay log append failed: %s", exc)
                reply = encode_frame(OP_ERR, [b"relay log append failed"])
            try:
                self.request.sendall(reply)
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    """One daemon thread per connection; remembers each open connection's thread."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind_address, store: MailboxStore) -> None:
        self.store = store
        self.connections: dict[socket.socket, threading.Thread] = {}
        self.connections_lock = threading.Lock()
        super().__init__(bind_address, _RelayHandler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self.connections_lock:
            self.connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self.connections_lock:
            self.connections.pop(request, None)
        super().shutdown_request(request)


class RelayServer:
    """Threaded TCP relay; `with RelayServer(...) as srv:` or start()/stop()."""

    def __init__(self, bind_address=("127.0.0.1", 0), store: MailboxStore | None = None):
        self.store = store if store is not None else MailboxStore()
        self._server = _TCPServer(bind_address, self.store)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "RelayServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every open connection and every WAIT, then close the store."""
        if self._thread is not None:
            self._server.shutdown()  # no connection is accepted after this
            self._thread.join(timeout=5)
        self._server.server_close()
        self.store.wake_waiters()
        with self._server.connections_lock:
            connections = list(self._server.connections.items())
        for sock, _ in connections:
            with contextlib.suppress(OSError):  # wakes a handler blocked in recv
                sock.shutdown(socket.SHUT_RDWR)
        for _, thread in connections:
            thread.join(timeout=5)  # a request already read is applied before the close
        self.store.close()

    def __enter__(self) -> "RelayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
