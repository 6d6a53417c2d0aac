import contextlib
import importlib
import socket
import sys
import threading
from pathlib import Path

import pytest

from pakemail import relay
from pakemail.relay import (
    OP_ACK,
    OP_ERR,
    OP_GET,
    OP_LIST,
    OP_OK,
    OP_PUT,
    MAX_BLOB,
    MAX_FRAME,
    FrameError,
    MailboxStore,
    RelayServer,
    decode_frame,
    encode_frame,
    read_frame,
)
from pakemail.transport import RelayTransport, TransportEnvelope, TransportError


def test_frame_roundtrip():
    for opcode, fields in [(OP_PUT, [b"bob", b"blob"]), (OP_GET, [b"bob"]),
                           (OP_OK, []), (OP_LIST, [b"", b"x" * 1000])]:
        frame = encode_frame(opcode, fields)
        assert decode_frame(frame[4:]) == (opcode, fields)


def test_decode_frame_rejects_truncation():
    frame = encode_frame(OP_PUT, [b"bob", b"blob"])[4:]
    with pytest.raises(FrameError):
        decode_frame(frame[:-1])
    with pytest.raises(FrameError):
        decode_frame(b"")


# one frame per opcode: 4-byte length | opcode | 4-byte length + field, ...
KNOWN_FRAMES = [
    (OP_PUT, [b"bob", b"blob"], "00000010" "00" "00000003626f62" "00000004626c6f62"),
    (OP_GET, [b"bob"], "00000008" "01" "00000003626f62"),
    (OP_ACK, [b"bob", bytes(8), (1).to_bytes(8, "big")],
     "00000020" "02" "00000003626f62" "000000080000000000000000" "000000080000000000000001"),
    (OP_OK, [], "00000001" "03"),
    (OP_ERR, [b"no"], "00000007" "04" "000000026e6f"),
    (OP_LIST, [bytes(8), b"blob"], "00000015" "05" "000000080000000000000000" "00000004626c6f62"),
    (OP_GET, [b"bob", (5).to_bytes(4, "big")], "00000010" "01" "00000003626f62" "0000000400000005"),
    # a GET that acknowledges id 1 before it lists
    (OP_GET, [b"bob", (5).to_bytes(4, "big"), (1).to_bytes(8, "big")],
     "0000001c" "01" "00000003626f62" "0000000400000005" "000000080000000000000001"),
]


@pytest.mark.parametrize("opcode, fields, frame_hex", KNOWN_FRAMES)
def test_frame_known_answers(opcode, fields, frame_hex):
    frame = bytes.fromhex(frame_hex)
    assert encode_frame(opcode, fields) == frame
    assert decode_frame(frame[4:]) == (opcode, fields)


# put(bob, "one"), put(carol, "two"), ack(bob, [id 0])
KNOWN_LOG = bytes.fromhex(
    "0000000f" "00" "00000003626f62" "000000036f6e65"
    "00000011" "00" "000000056361726f6c" "0000000374776f"
    "00000014" "02" "00000003626f62" "000000080000000000000000")


def test_relay_log_known_answer(tmp_path):
    log = tmp_path / "relay.log"
    store = MailboxStore(log)
    first = store.put(b"bob", b"one")
    store.put(b"carol", b"two")
    store.ack(b"bob", [first])
    store.close()
    assert log.read_bytes() == KNOWN_LOG

    replayed = tmp_path / "replayed.log"
    replayed.write_bytes(KNOWN_LOG)
    reborn = MailboxStore(replayed)
    assert reborn.get(b"bob") == []
    assert reborn.get(b"carol") == [((1).to_bytes(8, "big"), b"two")]
    reborn.close()


def test_store_put_get_ack():
    store = MailboxStore()
    id1 = store.put(b"bob", b"one")
    id2 = store.put(b"bob", b"two")
    assert store.get(b"bob") == [(id1, b"one"), (id2, b"two")]
    assert store.get(b"bob") == [(id1, b"one"), (id2, b"two")]  # GET is non-destructive
    store.ack(b"bob", [id1])
    assert store.get(b"bob") == [(id2, b"two")]
    assert store.get(b"nobody") == []
    store.ack(b"nobody", [id2])  # harmless


def test_store_persistence_across_restart(tmp_path):
    log = tmp_path / "relay.log"
    store = MailboxStore(log)
    id1 = store.put(b"bob", b"keep")
    id2 = store.put(b"bob", b"drop")
    store.put(b"carol", b"other")
    store.ack(b"bob", [id2])
    store.close()

    reborn = MailboxStore(log)
    assert [blob for _, blob in reborn.get(b"bob")] == [b"keep"]
    assert [blob for _, blob in reborn.get(b"carol")] == [b"other"]
    # new ids must not collide with replayed ones
    id3 = reborn.put(b"bob", b"later")
    assert id3 not in (id1, id2)
    reborn.close()


def test_store_tolerates_truncated_log_tail(tmp_path):
    log = tmp_path / "relay.log"
    store = MailboxStore(log)
    store.put(b"bob", b"whole")
    store.close()
    log.write_bytes(log.read_bytes() + b"\x00\x00\x00\x09partial")
    reborn = MailboxStore(log)
    assert [blob for _, blob in reborn.get(b"bob")] == [b"whole"]
    reborn.close()


def _blobs(store, recipient=b"bob"):
    return [blob for _, blob in store.get(recipient)]


def test_store_cuts_a_torn_tail_before_appending(tmp_path):
    # a crash mid-append leaves a prefix of the last frame; later appends
    # must not land behind it, or every later restart misreads the log
    torn = encode_frame(OP_PUT, [b"bob", b"torn"])
    for cut in range(1, len(torn)):
        log = tmp_path / f"relay-{cut}.log"
        log.write_bytes(encode_frame(OP_PUT, [b"bob", b"whole"]) + torn[:cut])
        store = MailboxStore(log)
        assert _blobs(store) == [b"whole"]
        store.put(b"bob", b"after")
        store.close()
        for _ in range(2):
            reborn = MailboxStore(log)
            assert _blobs(reborn) == [b"whole", b"after"]
            reborn.close()


@pytest.mark.parametrize("bad_frame", [
    # intact outer length, but the field inside claims more bytes than follow
    bytes.fromhex("00000017" "00" "00000003626f62" "00000040") + b"SECRET-BLOB",
    encode_frame(OP_PUT, [b"SECRET-BLOB"]),  # PUT with one field
    encode_frame(42, [b"SECRET-BLOB"]),
    bytes(4),  # empty frame
    # a GET is never logged; applying one would block replay on an empty mailbox
    encode_frame(OP_GET, [b"nobody", (0xFFFFFFFF).to_bytes(4, "big")]),
], ids=["undecodable", "put-one-field", "unknown-opcode", "empty", "wait"])
def test_store_skips_a_malformed_middle_frame(tmp_path, caplog, bad_frame):
    log = tmp_path / "relay.log"
    log.write_bytes(encode_frame(OP_PUT, [b"bob", b"before"]) + bad_frame
                    + encode_frame(OP_PUT, [b"bob", b"after"]))
    with caplog.at_level("WARNING", logger="pakemail.relay"):
        store = MailboxStore(log)
    assert _blobs(store) == [b"before", b"after"]
    assert any("skipped" in rec.getMessage() for rec in caplog.records)
    assert "SECRET" not in caplog.text
    store.put(b"bob", b"later")
    store.close()
    reborn = MailboxStore(log)
    assert _blobs(reborn) == [b"before", b"after", b"later"]
    reborn.close()


class _FailingLog:
    """A log handle whose next write lands half its bytes, then fails."""

    def __init__(self, real):
        self.real = real

    def write(self, data):
        self.real.write(data[:len(data) // 2])
        self.real.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.real, name)


def test_failed_log_append_answers_err_and_stores_nothing(tmp_path):
    log = tmp_path / "relay.log"
    store = MailboxStore(log)
    store.put(b"b@x", b"kept")
    store._log = _FailingLog(store._log)
    envelope = TransportEnvelope(bytes(16), 9, b"a@x", b"b@x", b"lost")
    with RelayServer(store=store) as srv:
        client = RelayTransport(*srv.address)
        with pytest.raises(TransportError, match="relay error"):
            client.send(envelope)
        client.close()
        assert _blobs(store, b"b@x") == [b"kept"]
        with socket.create_connection(srv.address) as sock:
            assert _rpc(sock, OP_PUT, [b"bob", b"lost too"])[0] == OP_ERR
            # the handler survived: the same connection still answers
            assert _rpc(sock, OP_GET, [b"bob"]) == (OP_LIST, [])
            # a GET whose ACK cannot be logged acknowledges nothing
            assert _rpc(sock, OP_GET, [b"b@x", bytes(4), bytes(8)])[0] == OP_ERR
            assert _blobs(store, b"b@x") == [b"kept"]
            store._log = store._log.real
            assert _rpc(sock, OP_PUT, [b"bob", b"stored"]) == (OP_OK, [])
    reborn = MailboxStore(log)
    assert _blobs(reborn, b"b@x") == [b"kept"]
    assert _blobs(reborn) == [b"stored"]
    reborn.close()


def _rpc(sock, opcode, fields):
    sock.sendall(encode_frame(opcode, fields))
    return read_frame(sock)


def test_store_refuses_a_blob_no_list_can_carry():
    store = MailboxStore()
    with pytest.raises(FrameError, match="LIST"):
        store.apply(OP_PUT, [b"b", bytes(MAX_BLOB + 1)])
    assert store.apply(OP_PUT, [b"b", bytes(MAX_BLOB)]) == encode_frame(OP_OK, [])
    reply = store.apply(OP_GET, [b"b"])
    assert len(reply) - 4 == MAX_FRAME  # the largest blob fills a LIST exactly


def test_server_put_get_ack_cycle():
    with RelayServer() as srv, socket.create_connection(srv.address) as sock:
        assert _rpc(sock, OP_PUT, [b"bob", b"hello"]) == (OP_OK, [])
        op, fields = _rpc(sock, OP_GET, [b"bob"])
        assert op == OP_LIST
        assert fields[1::2] == [b"hello"]
        assert _rpc(sock, OP_ACK, [b"bob", fields[0]]) == (OP_OK, [])
        assert _rpc(sock, OP_GET, [b"bob"]) == (OP_LIST, [])
        assert _rpc(sock, OP_GET, [b"stranger"]) == (OP_LIST, [])


def test_server_survives_malformed_frames():
    with RelayServer() as srv, socket.create_connection(srv.address) as sock:
        # unknown opcode
        op, _ = _rpc(sock, 42, [])
        assert op == OP_ERR
        # wrong arity
        op, _ = _rpc(sock, OP_PUT, [b"only-recipient"])
        assert op == OP_ERR
        # zero-length frame
        sock.sendall((0).to_bytes(4, "big"))
        op, _ = read_frame(sock)
        assert op == OP_ERR
        # a GET with ids whose timeout is not 4 bytes acknowledges nothing
        assert _rpc(sock, OP_PUT, [b"bob", b"kept"]) == (OP_OK, [])
        op, _ = _rpc(sock, OP_GET, [b"bob", bytes(2), bytes(8)])
        assert op == OP_ERR
        assert _rpc(sock, OP_GET, [b"bob"]) == (OP_LIST, [bytes(8), b"kept"])
        # the same connection still works afterwards
        assert _rpc(sock, OP_PUT, [b"bob", b"still alive"]) == (OP_OK, [])


def test_oversized_length_closes_the_connection():
    with RelayServer() as srv, socket.create_connection(srv.address, timeout=5) as sock:
        sock.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
        assert read_frame(sock)[0] == OP_ERR
        # the bytes after a refused length are never read as requests
        hidden = b"".join(encode_frame(OP_PUT, [b"bob", b"hidden %d" % i]) for i in range(3))
        try:
            sock.sendall(hidden)
            tail = sock.recv(1)
        except ConnectionError:
            tail = b""
        assert tail == b""
        assert srv.store.get(b"bob") == []


def _envelope(n: int) -> TransportEnvelope:
    return TransportEnvelope(n.to_bytes(16, "big"), 9, b"a@x", b"b@x", b"%d" % n)


def test_relay_client_keeps_one_connection(monkeypatch):
    accepted = []
    handle = relay._RelayHandler.handle

    def counting(self):
        accepted.append(self.client_address)
        handle(self)

    monkeypatch.setattr(relay._RelayHandler, "handle", counting)
    with RelayServer() as srv:
        client = RelayTransport(*srv.address)
        for n in range(10):
            client.send(_envelope(n))
            assert client.poll(b"b@x", 1.0) == [_envelope(n)]
        client.close()
    assert len(accepted) == 1


def test_relay_client_replaces_a_dropped_connection():
    first = RelayServer().start()
    host, port = first.address
    client = RelayTransport(host, port)
    client.send(_envelope(1))
    first.stop()  # ends the connection the client keeps
    with RelayServer((host, port)) as second:
        assert client.poll(b"b@x", 0.01) == []
        client.send(_envelope(2))
        assert client.poll(b"b@x") == [_envelope(2)]
        client.close()
        assert _blobs(second.store, b"b@x") == []


def test_relay_client_acknowledges_with_its_next_get(monkeypatch):
    applied = []
    apply = MailboxStore.apply

    def counting(self, opcode, fields):
        applied.append((opcode, fields))
        return apply(self, opcode, fields)

    monkeypatch.setattr(MailboxStore, "apply", counting)
    with RelayServer() as srv:
        client = RelayTransport(*srv.address)
        assert client.poll(b"b@x") == []
        for n in range(3):
            client.send(_envelope(n))
        ids = [blob_id for blob_id, _ in srv.store.get(b"b@x")]
        applied.clear()
        assert client.poll(b"b@x") == [_envelope(n) for n in range(3)]
        assert [opcode for opcode, _ in applied] == [OP_GET]  # one request, no ACK
        assert applied[0][1][2:] == []
        applied.clear()
        assert client.poll(b"b@x") == []
        assert applied == [(OP_GET, [b"b@x", bytes(4), *ids])]  # the next GET acknowledges them
        assert srv.store.get(b"b@x") == []
        applied.clear()
        client.close()  # nothing pending: no ACK
        assert applied == []

        client.send(_envelope(3))
        (blob_id, _), = srv.store.get(b"b@x")
        assert client.poll(b"b@x") == [_envelope(3)]
        applied.clear()
        client.close()
        assert applied == [(OP_ACK, [b"b@x", blob_id])]
        assert srv.store.get(b"b@x") == []


def test_relay_client_threads_sharing_one_client_take_each_blob_once():
    # six threads poll three mailboxes through one client: a pending id lost
    # or acknowledged twice would leave a blob behind or deliver it again
    recipients = [b"r%d@x" % i for i in range(3)]
    sent = {r: {TransportEnvelope(n.to_bytes(16, "big"), 9, b"a@x", r, b"%d" % n)
                for n in range(40)} for r in recipients}
    got = {r: [] for r in recipients}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with RelayServer() as srv:
            client = RelayTransport(*srv.address)

            def worker(recipient, envelopes):
                for envelope in envelopes:
                    client.send(envelope)
                    got[recipient].extend(client.poll(recipient))

            halves = [(r, sorted(sent[r], key=lambda e: e.payload)[half::2])
                      for r in recipients for half in range(2)]
            threads = [threading.Thread(target=worker, args=half) for half in halves]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            for r in recipients:
                got[r].extend(client.poll(r))
            client.close()
            assert all(srv.store.get(r) == [] for r in recipients)
    finally:
        sys.setswitchinterval(switch)
    for r in recipients:
        assert len(got[r]) == len(sent[r])
        assert set(got[r]) == sent[r]


def test_relay_client_keeps_ids_a_failed_get_did_not_acknowledge(tmp_path):
    store = MailboxStore(tmp_path / "relay.log")
    store.put(b"b@x", _envelope(1).to_bytes())
    with RelayServer(store=store) as srv:
        client = RelayTransport(*srv.address)
        assert client.poll(b"b@x") == [_envelope(1)]
        store._log = _FailingLog(store._log)
        with pytest.raises(TransportError, match="relay error"):
            client.poll(b"b@x")
        store._log = store._log.real
        assert client.poll(b"b@x") == []  # the retry acknowledged the kept id
        assert _blobs(store, b"b@x") == []
        client.close()


def test_relay_client_forgets_ids_when_its_connection_is_replaced():
    # blob ids count within one relay process: a restarted relay hands out
    # id 0 again, which a stale acknowledgement would delete unread
    first = RelayServer().start()
    host, port = first.address
    client = RelayTransport(host, port)
    client.send(_envelope(1))
    assert client.poll(b"b@x") == [_envelope(1)]  # lists id 0, acknowledged by no GET yet
    first.stop()
    with RelayServer((host, port)) as second:
        assert second.store.put(b"b@x", _envelope(2).to_bytes()) == bytes(8)
        assert client.poll(b"b@x") == [_envelope(2)]
        assert _blobs(second.store, b"b@x") == [_envelope(2).to_bytes()]
        client.close()
        assert _blobs(second.store, b"b@x") == []


def test_stopped_relay_refuses_the_next_request(tmp_path):
    log = tmp_path / "relay.log"
    srv = RelayServer(store=MailboxStore(log)).start()
    client = RelayTransport(*srv.address)
    client.send(_envelope(1))
    srv.stop()
    with pytest.raises(TransportError):
        client.send(_envelope(2))
    assert _blobs(srv.store, b"b@x") == [_envelope(1).to_bytes()]
    reborn = MailboxStore(log)
    assert _blobs(reborn, b"b@x") == [_envelope(1).to_bytes()]
    reborn.close()
    client.close()


def test_a_backlog_over_one_frame_drains_over_several_polls():
    # 300 blobs of 60 KiB: one LIST of them all would exceed MAX_FRAME
    envelopes = [TransportEnvelope(n.to_bytes(16, "big"), 9, b"a@x", b"b@x",
                                   bytes([n % 256]) * 60 * 1024) for n in range(300)]
    with RelayServer() as srv:
        for envelope in envelopes:
            srv.store.put(b"b@x", envelope.to_bytes())
        client = RelayTransport(*srv.address)
        got, polls = [], 0
        while len(got) < len(envelopes) and polls < 10:
            got += client.poll(b"b@x")
            polls += 1
        client.close()
        assert got == envelopes
        assert polls > 1
        assert srv.store.get(b"b@x") == []


@pytest.fixture
def long_waits(monkeypatch):
    # lift the relay's cap on one blocking GET, so only a wake-up can end it early
    monkeypatch.setattr(relay, "MAX_WAIT_MS", 600_000)


def test_relay_wait_wakes_on_delivery(long_waits, blocking_poll):
    with RelayServer() as srv:
        waiting = RelayTransport(*srv.address, timeout=600)
        sending = RelayTransport(*srv.address)
        waiter, got = blocking_poll(waiting, 60)
        sending.send(TransportEnvelope(bytes(16), 9, b"a@x", b"c@x", b"other"))
        waiter.join(0.2)
        assert waiter.is_alive()  # mail for someone else does not release it
        sending.send(_envelope(1))  # PUT on another client's connection
        waiter.join(5)
        assert not waiter.is_alive()
        assert got == [_envelope(1)]
        sending.send(_envelope(2))
        assert waiting.poll(b"b@x", 60) == [_envelope(2)]  # mail already there: no wait at all
        waiting.close()
        sending.close()


def test_relay_wait_without_mail_returns_after_its_timeout(blocking_poll):
    with RelayServer() as srv:
        client = RelayTransport(*srv.address)
        waiter, got = blocking_poll(client, 0.01)
        waiter.join(5)
        assert not waiter.is_alive()
        assert got == []
        client.close()


def test_stop_ends_a_wait_in_progress(long_waits, monkeypatch):
    entered = threading.Event()
    store_get = MailboxStore.get

    def get(self, recipient, timeout=0.0):
        if timeout:
            entered.set()
        return store_get(self, recipient, timeout)

    monkeypatch.setattr(MailboxStore, "get", get)
    srv = RelayServer().start()
    client = RelayTransport(*srv.address, timeout=600)

    def wait_out():
        with contextlib.suppress(TransportError):  # the relay went away mid-wait
            client.poll(b"b@x", 60)

    waiter = threading.Thread(target=wait_out)
    waiter.start()
    assert entered.wait(5)
    stopper = threading.Thread(target=srv.stop)
    stopper.start()
    stopper.join(2)  # a handler left waiting would hold stop() for 5 s
    assert not stopper.is_alive()
    waiter.join(5)
    assert not waiter.is_alive()
    with pytest.raises(TransportError):
        client.poll(b"b@x", 0.01)
    client.close()


def test_server_concurrent_puts():
    with RelayServer() as srv:
        def worker(i):
            with socket.create_connection(srv.address) as sock:
                for j in range(20):
                    assert _rpc(sock, OP_PUT,
                                [b"bob", b"%d-%d" % (i, j)]) == (OP_OK, [])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with socket.create_connection(srv.address) as sock:
            _, fields = _rpc(sock, OP_GET, [b"bob"])
        blobs = set(fields[1::2])
        assert len(blobs) == 160
        ids = fields[0::2]
        assert len(set(ids)) == 160


def test_relay_module_is_crypto_free():
    # the relay and the codec it uses must stay oblivious: they route blobs,
    # they never touch keys
    for name in ("relay", "wire"):
        module = importlib.import_module(f"pakemail.{name}")
        source = Path(module.__file__).read_text(encoding="utf-8")
        for forbidden in ("groups", "pake", "confirm", "sealed", "hashlib", "hmac",
                          "cryptography"):
            assert forbidden not in source, (name, forbidden)
