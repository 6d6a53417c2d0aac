import dataclasses
import logging
import os
import random
import sqlite3
import stat
import subprocess
import sys
import threading
import typing
import zlib
from collections import deque
from contextlib import ExitStack, closing
from pathlib import Path

import oracles
import pytest

from pakemail import manager, sealed
from pakemail.confirm import Fingerprint
from pakemail.exchange import Exchange
from pakemail.manager import (
    AttemptPolicy,
    AuthResult,
    ExchangeRecord,
    Keystore,
    LockedOutError,
    ManagerError,
    NoChainError,
    Outcome,
    PeerRecord,
    SessionManager,
    assign_role,
)
from pakemail.pake import Role, password_context
from pakemail.relay import MailboxStore, RelayServer
from pakemail.transport import (
    FLOW_DATA,
    FLOW_INITIATOR_PAKE,
    FLOW_INITIATOR_TAG,
    FLOW_RESPONDER_PAKE,
    LoopbackTransport,
    RelayTransport,
    TransportEnvelope,
    fresh_exchange_id,
)

IDA, IDB = b"a@x", b"b@x"


def make_pair(tmp_path, toy, backend=None, policy=None):
    backend = backend if backend is not None else LoopbackTransport()
    ka = Keystore(tmp_path / "a.ks", IDA)
    kb = Keystore(tmp_path / "b.ks", IDB)
    ma = SessionManager(ka, backend, toy, policy)
    mb = SessionManager(kb, backend, toy, policy)
    return ma, mb


def run_both(ma, mb, pw_a, pw_b, timeout=5.0, **kw):
    results = {}

    def side(name, mgr, pw):
        results[name] = mgr.authenticate(
            mgr.keystore.self_identity == IDA and IDB or IDA, pw,
            timeout=timeout, **kw)

    ta = threading.Thread(target=side, args=("a", ma, pw_a))
    tb = threading.Thread(target=side, args=("b", mb, pw_b))
    ta.start(); tb.start(); ta.join(); tb.join()
    return results["a"], results["b"]


def test_assign_role_tiebreak():
    assert assign_role(IDA, IDB) is Role.INITIATOR
    assert assign_role(IDB, IDA) is Role.RESPONDER


# ---------------------------------------------------------------------------
# Keystore
# ---------------------------------------------------------------------------

def test_keystore_new_and_reload(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    assert ks.self_identity == IDA
    fpr = ks.self_fingerprint
    reloaded = Keystore(path)
    assert reloaded.self_identity == IDA
    assert reloaded.self_fingerprint == fpr


def test_keystore_identity_checks(tmp_path):
    path = tmp_path / "s.ks"
    with pytest.raises(ManagerError):
        Keystore(path)  # new store without identity
    Keystore(path, IDA)
    with pytest.raises(ManagerError):
        Keystore(path, IDB)  # belongs to someone else


def test_keystore_rejects_foreign_file(tmp_path):
    path = tmp_path / "s.ks"
    path.write_text("not a keystore\n")
    with pytest.raises(ManagerError):
        Keystore(path)


def test_keystore_peer_state_roundtrip(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    rec = ks.peer(IDB)
    rec.authenticated = True
    rec.chained_key = bytes(range(32))
    rec.failed_attempts = 2
    ks.save()
    back = Keystore(path).peer(IDB)
    assert back.authenticated is True
    assert back.chained_key == bytes(range(32))
    assert back.failed_attempts == 2


def _exchange(n: int, peer: bytes = IDB) -> ExchangeRecord:
    return ExchangeRecord(exchange_id=n.to_bytes(16, "big"), peer=peer, role=Role.INITIATOR,
                          outcome=Outcome.SUCCESS, started_at=1.7e9 + n,
                          ended_at=1.7e9 + n + 0.25)


def _rows(path, query: str) -> list[tuple]:
    """What ``query`` reads from the keystore database at ``path``, past the Keystore class."""
    with closing(sqlite3.connect(path)) as db:
        return db.execute(query).fetchall()


def _sql(path):
    """A connection of its own to the keystore database, each statement committed."""
    return closing(sqlite3.connect(path, isolation_level=None))


def _tables(path) -> dict[str, list[tuple]]:
    return {table: _rows(path, f"SELECT * FROM {table} ORDER BY rowid")
            for table in ("self", "peers", "exchanges")}


def test_keystore_saves_in_place_mutation_and_direct_appends(tmp_path):
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    ks = Keystore(path)
    ks.peer(IDB).chained_key = bytes(range(32))
    ks.exchanges.append(_exchange(1))
    ks.save()
    ks.peer(IDB).failed_attempts = 2  # the same record, mutated again
    ks.exchanges.append(_exchange(2))
    ks.save()
    back = Keystore(path)
    assert back.peer(IDB).chained_key == bytes(range(32))
    assert back.peer(IDB).failed_attempts == 2
    assert back.exchanges == [_exchange(1), _exchange(2)]


def test_keystore_a_failed_save_leaves_the_previous_state(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.peer(IDB).failed_attempts = 1
    ks.record_exchange(_exchange(1))
    before = _tables(path)
    with _sql(path) as db:  # fails the save after its peer row is written
        db.execute("CREATE TRIGGER refuse BEFORE INSERT ON exchanges "
                   "BEGIN SELECT RAISE(ABORT, 'refused'); END")
    ks.peer(IDB).failed_attempts = 2
    with pytest.raises(sqlite3.IntegrityError, match="refused"):
        ks.record_exchange(_exchange(2))
    assert _tables(path) == before
    back = Keystore(path)
    assert back.peer(IDB).failed_attempts == 1
    assert back.exchanges == [_exchange(1)]
    with _sql(path) as db:
        db.execute("DROP TRIGGER refuse")
    ks.save()  # writes what the failed save did not
    back = Keystore(path)
    assert back.peer(IDB).failed_attempts == 2
    assert back.exchanges == [_exchange(1), _exchange(2)]


def test_keystore_appends_from_two_handles_both_survive(tmp_path):
    # two processes running `pakemail` on one keystore at once
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    first, second = Keystore(path), Keystore(path)
    first.record_exchange(_exchange(1))
    second.peer(IDB).failed_attempts = 1
    second.record_exchange(_exchange(2))
    back = Keystore(path)
    assert back.exchanges == [_exchange(1), _exchange(2)]
    assert back.peer(IDB).failed_attempts == 1


# one child process: wait for "go" on stdin, then raise one peer's failed
# attempts and record 50 exchanges, saving after each
_CHILD = """
import sys
from pakemail.manager import ExchangeRecord, Keystore, Outcome
from pakemail.pake import Role

ks, side = Keystore(sys.argv[1]), int(sys.argv[2])
print("ready", flush=True)
sys.stdin.readline()
for n in range(50):
    if n == 25:
        ks.peer(b"c@x").failed_attempts += 1
    ks.record_exchange(ExchangeRecord(bytes([side, n]) * 8, b"b@x", Role.INITIATOR,
                                      Outcome.SUCCESS, float(n), float(n)))
"""


def test_keystore_saves_from_two_processes_at_once_all_land(tmp_path):
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    src = str(Path(manager.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with ExitStack() as stack:
        children = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(path), str(side)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)) for side in (0, 1)]
        assert [child.stdout.readline() for child in children] == [b"ready\n"] * 2
        for child in children:
            child.stdin.write(b"go\n")
            child.stdin.flush()
        assert [child.wait(timeout=60) for child in children] == [0, 0]
    back = Keystore(path)
    assert sorted(e.exchange_id for e in back.exchanges) == sorted(
        bytes([side, n]) * 8 for side in (0, 1) for n in range(50))
    assert back.peers[b"c@x"].failed_attempts == 2


def test_keystore_merges_concurrent_changes_to_one_peer(tmp_path):
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    first, second = Keystore(path), Keystore(path)
    first.peer(IDB).chained_key = b"\x01" * 32
    first.peer(IDB).failed_attempts += 1
    first.save()
    second.peer(IDB).failed_attempts += 1  # second still holds no key
    second.save()
    assert second.peer(IDB) == PeerRecord(IDB, chained_key=b"\x01" * 32, failed_attempts=2)
    first.peer(IDB).failed_attempts = 0  # an operator reset seen from the first handle
    first.save()
    assert Keystore(path).peer(IDB) == PeerRecord(IDB, chained_key=b"\x01" * 32)


def test_keystore_files_are_readable_by_their_owner_only(tmp_path, toy):
    old = os.umask(0o022)
    try:
        ma, mb = make_pair(tmp_path, toy)
        assert run_both(ma, mb, b"pw", b"pw")[0].outcome is Outcome.SUCCESS
        files = [path for path in tmp_path.iterdir() if path.name.startswith(("a.ks", "b.ks"))]
        assert {"a.ks", "a.ks-wal", "a.ks-shm"} <= {path.name for path in files}
        for path in files:
            assert stat.S_IMODE(path.stat().st_mode) & 0o077 == 0, path.name
    finally:
        os.umask(old)


def test_keystore_refuses_a_corrupt_middle_record(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.peer(IDB).chained_key = bytes(range(32))
    ks.peer(b"c@x")
    ks.save()
    for n in range(3):
        ks.record_exchange(_exchange(n))
    with _sql(path) as db:
        for table, old, forged in (("peers", b'"failed_attempts": 0', b'"failed_attempts": 1'),
                                   ("exchanges", b'"success"', b'"password_mismatch"')):
            (line,), = db.execute(f"SELECT record FROM {table} WHERE rowid = 2")
            db.execute(f"UPDATE {table} SET record = ? WHERE rowid = 2",
                       (line.replace(old, forged),))
    with pytest.raises(ManagerError, match="peers row 2 fails its checksum") as err:
        Keystore(path)
    assert bytes(range(32)).hex() not in str(err.value)
    with _sql(path) as db:
        db.execute("DELETE FROM peers WHERE rowid = 2")
    ks = Keystore(path)  # the history is checked when first read
    with pytest.raises(ManagerError, match="exchanges row 2 fails its checksum"):
        ks.exchanges
    with _sql(path) as db:  # an intact record, under another peer's key
        db.execute("UPDATE peers SET identity = ? WHERE rowid = 1", (b"c@x",))
    with pytest.raises(ManagerError, match="peers row 1 is malformed"):
        Keystore(path)


def test_keystore_v1_file_is_refused_and_left_alone(tmp_path):
    path = tmp_path / "s.ks"
    v1 = "\n".join([
        "pakemail-keystore v1",
        'self {"identity": "%s", "fingerprint": "%s"}' % (IDA.hex(), "ab" * 20),
        'peer {"identity": "%s", "fingerprint": null, "authenticated": true, '
        '"chained_key": "%s", "failed_attempts": 1}' % (IDB.hex(), "11" * 32),
    ]) + "\n"
    path.write_text(v1)
    with pytest.raises(ManagerError, match="not a pakemail-keystore v3 file"):
        Keystore(path, IDA)
    assert path.read_text() == v1


# a v2 keystore journal, byte for byte: header, self, seal, a peer with every
# field set, a peer with every field at its default, an exchange, seal
KNOWN_JOURNAL = b"\n".join([
    b'pakemail-keystore v2',
    b'89f14e66 self {"identity": "614078", "fingerprint": '
    b'"000102030405060708090a0b0c0d0e0f10111213"}',
    b'83f27baa seal 71530fb8',
    b'3462ecc7 peer 624078 {"fingerprint": "6465666768696a6b6c6d6e6f7071727374757677", '
    b'"authenticated": true, "chained_key": '
    b'"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", '
    b'"failed_attempts": 2}',
    b'56b6bb77 peer 634078 {"fingerprint": null, "authenticated": false, '
    b'"chained_key": null, "failed_attempts": 0}',
    b'10bfd79f exchange {"exchange_id": "00000000000000000000000000000001", '
    b'"peer": "624078", "role": "initiator", "outcome": "success", '
    b'"started_at": 1700000001.0, "ended_at": 1700000001.25}',
    b'57a1bc77 seal fa28a003',
]) + b"\n"


def test_keystore_v2_journal_and_foreign_databases_are_refused_and_left_alone(tmp_path):
    journal = tmp_path / "v2.ks"
    journal.write_bytes(KNOWN_JOURNAL)
    foreign = tmp_path / "other.db"
    with _sql(foreign) as db:
        db.execute("CREATE TABLE self (record BLOB NOT NULL)")
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    for path in files:
        for identity in (None, IDA):
            with pytest.raises(ManagerError, match="not a pakemail-keystore v3 file"):
                Keystore(path, identity)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


def test_keystore_an_empty_database_is_filled_only_with_an_identity(tmp_path):
    # what a crash while a keystore is created leaves behind
    path = tmp_path / "s.ks"
    path.write_bytes(b"")
    with pytest.raises(ManagerError, match="not a pakemail-keystore v3 file"):
        Keystore(path)
    Keystore(path, IDA)
    assert Keystore(path).self_identity == IDA


def test_keystore_open_and_record_exchange_read_no_history(tmp_path, monkeypatch):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.exchanges.extend(_exchange(n) for n in range(5000))
    ks.save()
    statements = []
    connect = sqlite3.connect

    def traced(*args, **kwargs):
        db = connect(*args, **kwargs)
        db.set_trace_callback(statements.append)
        return db

    monkeypatch.setattr(manager.sqlite3, "connect", traced)
    ks = Keystore(path)
    ks.peer(IDB).failed_attempts = 1
    ks.record_exchange(_exchange(5000))
    monkeypatch.undo()
    assert any(s.startswith("INSERT INTO exchanges") for s in statements)
    assert [s for s in statements if "SELECT" in s.upper() and "exchanges" in s] == []
    assert ks._unread == []  # nor is the new record kept
    back = Keystore(path).exchanges
    assert len(back) == 5001 and back[-1] == _exchange(5000)


def test_keystore_keeps_one_row_per_peer(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.exchanges.extend(_exchange(n) for n in range(3))
    ks.save()
    ks = Keystore(path)
    for attempts in range(1, 51):
        ks.peer(IDB).failed_attempts = attempts
        ks.save()
    assert _rows(path, "SELECT identity FROM peers") == [(IDB,)]
    back = Keystore(path)
    assert back.peer(IDB).failed_attempts == 50
    assert back.exchanges == [_exchange(n) for n in range(3)]


def test_record_exchange_leaves_the_history_unparsed(tmp_path, monkeypatch):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.exchanges.extend(_exchange(n) for n in range(3))
    ks.save()

    def refuse(line):
        raise AssertionError("history parsed")

    monkeypatch.setattr(manager, "_parse_exchange", refuse)
    ks = Keystore(path)
    ks.peer(IDB).failed_attempts = 1
    ks.record_exchange(_exchange(3))
    monkeypatch.undo()
    assert Keystore(path).exchanges == [_exchange(n) for n in range(4)]


# the rows of a fixed keystore, byte for byte: self, a peer with every field
# set, a peer with every field at its default, an exchange
KNOWN_ROWS = {
    "self": [(b'89f14e66 self {"identity": "614078", "fingerprint": '
              b'"000102030405060708090a0b0c0d0e0f10111213"}',)],
    "peers": [
        (IDB, b'3462ecc7 peer 624078 {"fingerprint": '
              b'"6465666768696a6b6c6d6e6f7071727374757677", "authenticated": true, '
              b'"chained_key": "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"'
              b', "failed_attempts": 2}'),
        (b"c@x", b'56b6bb77 peer 634078 {"fingerprint": null, "authenticated": false, '
                 b'"chained_key": null, "failed_attempts": 0}')],
    "exchanges": [(b'10bfd79f exchange {"exchange_id": "00000000000000000000000000000001", '
                   b'"peer": "624078", "role": "initiator", "outcome": "success", '
                   b'"started_at": 1700000001.0, "ended_at": 1700000001.25}',)],
}


def test_keystore_rows_known_answer(tmp_path, monkeypatch):
    monkeypatch.setattr(manager.secrets, "token_bytes", lambda n: bytes(range(n)))
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    full = ks.peer(IDB)
    full.fingerprint = Fingerprint(bytes(range(100, 120)))
    full.authenticated, full.chained_key, full.failed_attempts = True, bytes(range(32)), 2
    ks.peer(b"c@x")
    ks.record_exchange(_exchange(1))
    assert _tables(path) == KNOWN_ROWS
    assert _rows(path, "SELECT * FROM pragma_application_id, pragma_user_version") == [
        (0x706B6D6C, 3)]
    # and the same rows written by hand load as that keystore
    copy = tmp_path / "copy.ks"
    Keystore(copy, IDA)
    with _sql(copy) as db:
        db.executemany("INSERT INTO peers VALUES (?, ?)", KNOWN_ROWS["peers"])
        db.executemany("INSERT INTO exchanges VALUES (?)", KNOWN_ROWS["exchanges"])
    back = Keystore(copy)
    assert (back.self_identity, back.self_fingerprint) == (IDA, Fingerprint(bytes(range(20))))
    assert back.peers == ks.peers
    assert back.exchanges == [_exchange(1)]


# a value unlike the default for each declared field type; a field of a new
# type needs an entry here
_SAMPLES = {bool: True, int: 5, float: 1.5, bytes: bytes(range(32)),
            Fingerprint: Fingerprint(bytes(range(20))), Role: Role.RESPONDER,
            Outcome: Outcome.PASSWORD_MISMATCH}


def _sample(cls, name):
    kind = typing.get_type_hints(cls)[name]
    return _SAMPLES[next(k for k in typing.get_args(kind) or (kind,) if k is not type(None))]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PeerRecord)
                                  if f.name != "identity"])  # the key, in the record's tag
def test_keystore_saves_a_change_to_any_one_peer_field(tmp_path, name):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.peer(IDB)
    ks.save()
    before = _rows(path, "SELECT * FROM peers")
    value = _sample(PeerRecord, name)
    assert getattr(ks.peer(IDB), name) != value
    setattr(ks.peer(IDB), name, value)
    ks.save()
    after = _rows(path, "SELECT * FROM peers")
    assert [identity for identity, _ in after] == [IDB] and after != before
    assert getattr(Keystore(path).peers[IDB], name) == value


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExchangeRecord)])
def test_keystore_round_trips_any_exchange_field(tmp_path, name):
    record = dataclasses.replace(_exchange(1), **{name: _sample(ExchangeRecord, name)})
    assert record != _exchange(1)
    path = tmp_path / "s.ks"
    Keystore(path, IDA).record_exchange(record)
    assert Keystore(path).exchanges == [record]


def _checksummed(record: bytes) -> bytes:
    return b"%08x %s" % (zlib.crc32(b" " + record), record)


def test_keystore_a_missing_key_takes_the_field_default(tmp_path):
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    with _sql(path) as db:
        db.execute("INSERT INTO peers VALUES (?, ?)", (IDB, _checksummed(
            b'peer 624078 {"fingerprint": null, "authenticated": true, "chained_key": null}')))
    record = Keystore(path).peers[IDB]
    assert record.authenticated is True
    assert record.failed_attempts == 0


def test_keystore_refuses_an_exchange_without_an_outcome(tmp_path):
    path = tmp_path / "s.ks"
    Keystore(path, IDA)
    with _sql(path) as db:
        db.execute("INSERT INTO exchanges VALUES (?)", (_checksummed(
            b'exchange {"exchange_id": "%s", "peer": "624078", "role": "initiator", '
            b'"started_at": 1.0, "ended_at": 2.0}' % (b"00" * 16)),))
    ks = Keystore(path)  # the history is parsed when first read
    with pytest.raises(ManagerError, match="exchanges row 1 is malformed"):
        ks.exchanges


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------

def test_successful_auth_both_sides(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is Outcome.SUCCESS and rb.outcome is Outcome.SUCCESS
    assert ra.key == rb.key is not None
    assert ra.exchange_id == rb.exchange_id
    assert ma.keystore.peer(IDB).authenticated
    assert ma.keystore.peer(IDB).fingerprint == mb.keystore.self_fingerprint
    assert [e.outcome for e in ma.keystore.exchanges] == [Outcome.SUCCESS]


def test_mismatch_counts_attempt_and_withholds_key(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    ra, rb = run_both(ma, mb, b"pw-right", b"pw-wrong")
    assert ra.outcome is Outcome.PASSWORD_MISMATCH
    assert rb.outcome is Outcome.PASSWORD_MISMATCH
    assert ra.key is None and rb.key is None
    assert ma.keystore.peer(IDB).failed_attempts == 1
    assert not ma.keystore.peer(IDB).authenticated


def test_lockout_and_operator_reset(tmp_path, toy):
    policy = AttemptPolicy(max_failed_attempts=2, timeout=5.0)
    ma, mb = make_pair(tmp_path, toy, policy=policy)
    for _ in range(2):
        ra, _ = run_both(ma, mb, b"right", b"wrong")
        assert ra.outcome is Outcome.PASSWORD_MISMATCH
    with pytest.raises(LockedOutError):
        ma.authenticate(IDB, b"right", timeout=0.1)
    ma.keystore.reset_attempts(IDB)
    mb.keystore.reset_attempts(IDA)
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is Outcome.SUCCESS


def test_silent_peer_times_out_and_is_recorded(tmp_path, toy):
    ma, _ = make_pair(tmp_path, toy)
    result = ma.authenticate(IDB, b"pw", timeout=0.1)
    assert result.outcome is Outcome.ABORTED_BY_TIMEOUT
    assert result.key is None
    assert [e.outcome for e in ma.keystore.exchanges] == [Outcome.ABORTED_BY_TIMEOUT]
    # a timeout is not a password failure
    assert ma.keystore.peer(IDB).failed_attempts == 0


@pytest.mark.parametrize("pw_b, outcome", [(b"pw-right", Outcome.SUCCESS),
                                           (b"pw-wrong", Outcome.PASSWORD_MISMATCH)])
def test_a_handshake_sends_three_envelopes(tmp_path, toy, pw_b, outcome):
    sent = []

    class Recording(LoopbackTransport):
        def send(self, env):
            sent.append(env)
            super().send(env)

    ma, mb = make_pair(tmp_path, toy, backend=Recording())
    ra, rb = run_both(ma, mb, b"pw-right", pw_b)
    assert ra.outcome is rb.outcome is outcome
    assert [(e.sender, e.flow) for e in sent] == [
        (IDA, FLOW_INITIATOR_PAKE), (IDB, FLOW_RESPONDER_PAKE), (IDA, FLOW_INITIATOR_TAG)]
    # after a bad responder tag the initiator's flow 2 is empty, never its tag
    assert (sent[2].payload == b"") == (outcome is Outcome.PASSWORD_MISMATCH)
    # a mismatch counts once on each side, the responder's at its release
    failed = int(outcome is Outcome.PASSWORD_MISMATCH)
    assert ma.keystore.peer(IDB).failed_attempts == mb.keystore.peer(IDA).failed_attempts == failed


def test_guess_and_abort_probes_lock_the_responder_out(tmp_path, toy):
    # the scripted initiator checks each responder tag offline and withholds
    # its own; the responder must charge every probe before its tag leaves
    password = oracles.TOY_PASSWORD_BY_PI[0]
    backend = LoopbackTransport()
    policy = AttemptPolicy(max_failed_attempts=3, timeout=5.0)
    _, mb = make_pair(tmp_path, toy, backend=backend, policy=policy)
    # a responder that never got an opening is not charged
    assert mb.authenticate(IDA, password, timeout=0).outcome is Outcome.ABORTED_BY_TIMEOUT
    assert mb.keystore.peer(IDA).failed_attempts == 0
    for n in range(1, 6):
        probe = Exchange(Role.INITIATOR, IDA, IDB, oracles.TOY_PASSWORD_BY_PI[n], toy,
                         Fingerprint(bytes(20)), exchange_id=fresh_exchange_id())
        for flow, payload, fpr in probe.start():
            backend.send(TransportEnvelope(probe.exchange_id, flow, IDA, IDB, payload, fpr))
        if n > policy.max_failed_attempts:
            with pytest.raises(LockedOutError):
                mb.authenticate(IDA, password, timeout=0.05)
            break
        assert mb.authenticate(IDA, password, timeout=0.05).outcome is Outcome.ABORTED_BY_TIMEOUT
        for env in backend.poll(IDA):  # nothing goes back
            probe.receive(env.exchange_id, env.flow, env.payload, env.fingerprint)
        assert probe.outcome is Outcome.PASSWORD_MISMATCH
        assert Keystore(tmp_path / "b.ks").peer(IDA).failed_attempts == n
    assert [e.outcome for e in mb.keystore.exchanges] == [Outcome.ABORTED_BY_TIMEOUT] * 4


def test_a_lost_initiator_tag_is_charged_once_and_cleared_by_the_retry(tmp_path, toy):
    lost = []

    class LosesOneTag(LoopbackTransport):
        def send(self, env):
            if env.flow == FLOW_INITIATOR_TAG and not lost:
                lost.append(env)
            else:
                super().send(env)

    ma, mb = make_pair(tmp_path, toy, backend=LosesOneTag())
    ra, rb = run_both(ma, mb, b"pw", b"pw", timeout=1.0)
    assert lost and ra.outcome is Outcome.SUCCESS and rb.outcome is Outcome.ABORTED_BY_TIMEOUT
    assert mb.keystore.peer(IDA).failed_attempts == 1
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is rb.outcome is Outcome.SUCCESS and ra.key == rb.key
    assert mb.keystore.peer(IDA).failed_attempts == ma.keystore.peer(IDB).failed_attempts == 0


def test_one_manager_serves_two_peers_on_threads(tmp_path, toy):
    idc = b"c@x"
    peers = (IDB, idc)
    # both responders release their tags together, so the manager's two
    # exchanges confirm and save at the same moment
    barrier = threading.Barrier(2, timeout=5.0)

    class InLockstep(LoopbackTransport):
        def send(self, env):
            if env.flow == FLOW_RESPONDER_PAKE:
                barrier.wait()
            super().send(env)

    backend = InLockstep()
    ma = SessionManager(Keystore(tmp_path / "a.ks", IDA), backend, toy)
    others = {peer: SessionManager(Keystore(tmp_path / f"{peer.hex()}.ks", peer), backend, toy)
              for peer in peers}
    results = {}

    def run(name, mgr, peer):
        results[name] = mgr.authenticate(peer, b"pw", timeout=5.0)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            threads = [threading.Thread(target=run, args=(("a", peer), ma, peer))
                       for peer in peers]
            threads += [threading.Thread(target=run, args=(peer, mgr, IDA))
                        for peer, mgr in others.items()]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
            assert all(r.outcome is Outcome.SUCCESS for r in results.values())
            for peer, mgr in others.items():
                assert ma.keystore.peer(peer).fingerprint == mgr.keystore.self_fingerprint
                assert ma.keystore.peer(peer).chained_key == results[peer].key
    finally:
        sys.setswitchinterval(switch)

    ids = [e.exchange_id for e in Keystore(tmp_path / "a.ks").exchanges]
    assert len(ids) == len(set(ids)) == 10
    for peer, mgr in others.items():
        assert ma.keystore.peer(peer).fingerprint == mgr.keystore.self_fingerprint
        theirs = [e.exchange_id for e in Keystore(mgr.keystore.path).exchanges]
        assert len(theirs) == len(set(theirs)) == 5 and set(theirs) <= set(ids)


def test_responder_answers_the_newest_opening_from_a_sender(tmp_path, toy):
    sent = []
    retry_sent = threading.Event()

    class Recording(LoopbackTransport):
        def send(self, env):
            sent.append(env)
            super().send(env)
            if sum(e.flow == FLOW_INITIATOR_PAKE for e in sent) == 2:
                retry_sent.set()

    ma, mb = make_pair(tmp_path, toy, backend=Recording())
    # the initiator gives up once; its opening ends up buffered at the
    # long-lived responder
    stale = ma.authenticate(IDB, b"pw", timeout=0.05)
    assert stale.outcome is Outcome.ABORTED_BY_TIMEOUT
    assert mb.recv_sealed(timeout=0) == []

    results = {}
    retry = threading.Thread(
        target=lambda: results.setdefault("a", ma.authenticate(IDB, b"pw", timeout=2.0)))
    retry.start()
    assert retry_sent.wait(5.0)
    rb = mb.authenticate(IDA, b"pw", timeout=2.0)
    retry.join(10.0)
    assert not retry.is_alive()
    assert results["a"].outcome is Outcome.SUCCESS and rb.outcome is Outcome.SUCCESS
    assert results["a"].key == rb.key
    # the stale opening was superseded: never answered, not even later
    assert not any(e.flow == FLOW_RESPONDER_PAKE and e.exchange_id == stale.exchange_id
                   for e in sent)
    assert mb.authenticate(IDA, b"pw", timeout=0.05).outcome is Outcome.ABORTED_BY_TIMEOUT


def test_duplicate_and_reordered_envelopes_tolerated(tmp_path, toy):
    class NoisyBackend(LoopbackTransport):
        def send(self, env):
            super().send(env)
            super().send(env)  # duplicate everything

        def poll(self, recipient, timeout=0.0):
            return list(reversed(super().poll(recipient, timeout)))  # reorder

    ma, mb = make_pair(tmp_path, toy, backend=NoisyBackend())
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is Outcome.SUCCESS and rb.outcome is Outcome.SUCCESS
    assert ra.key == rb.key


def test_dedupe_window_stays_bounded_and_drops_close_duplicates(tmp_path, toy):
    sent = []

    class Recording(LoopbackTransport):
        def send(self, env):
            sent.append(env)
            super().send(env)

    backend = Recording()
    ma, mb = make_pair(tmp_path, toy, backend=backend)
    # several windows of data envelopes; an unknown sender's are never opened
    for _ in range(3 * manager.DEDUPE_WINDOW // 512):
        for _ in range(512):
            backend.send(TransportEnvelope(fresh_exchange_id(), FLOW_DATA, b"stranger@x",
                                           IDB, b"junk"))
        assert mb.recv_sealed(timeout=0) == []
    assert len(mb._processed) <= manager.DEDUPE_WINDOW
    assert not mb._data and not mb._openings and not mb._running

    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is Outcome.SUCCESS and rb.outcome is Outcome.SUCCESS
    # a transport duplicate of the answered opening is not answered again
    opening = next(e for e in sent if e.flow == FLOW_INITIATOR_PAKE)
    backend.send(opening)
    assert mb.authenticate(IDA, b"pw", timeout=0.05).outcome is Outcome.ABORTED_BY_TIMEOUT
    assert sum(e.flow == FLOW_RESPONDER_PAKE for e in sent) == 1
    # a data message and its duplicate, in one poll and in a later one
    ma.send_sealed(IDB, b"once")
    backend.send(sent[-1])
    assert mb.recv_sealed(timeout=2.0) == [(IDA, b"once")]
    backend.send(sent[-1])
    assert mb.recv_sealed(timeout=0) == []


def test_a_flood_of_unrouted_envelopes_leaves_every_container_bounded(tmp_path, toy):
    backend = LoopbackTransport()
    ma, mb = make_pair(tmp_path, toy, backend=backend)
    n = 20_000
    # tags of exchanges nobody runs, openings from distinct senders nobody
    # answers, and data from senders without a key
    for i in range(n):
        backend.send(TransportEnvelope(fresh_exchange_id(), FLOW_RESPONDER_PAKE + i % 2, IDA,
                                       IDB, b"junk"))
    for i in range(n):
        backend.send(TransportEnvelope(fresh_exchange_id(), FLOW_INITIATOR_PAKE, b"s%d@x" % i,
                                       IDB, b"junk", ma.keystore.self_fingerprint))
    for i in range(n):
        backend.send(TransportEnvelope(fresh_exchange_id(), FLOW_DATA, b"stranger%d@x" % i,
                                       IDB, b"junk"))
    assert mb.recv_sealed(timeout=0) == []
    assert mb.authenticate(IDA, b"pw", timeout=0.05).outcome is Outcome.ABORTED_BY_TIMEOUT
    sizes = {name: len(value) for name, value in vars(mb).items()
             if isinstance(value, (dict, list, set, deque))}
    assert sizes and max(sizes.values()) <= manager.DEDUPE_WINDOW, sizes


def test_unknown_senders_do_not_grow_the_keystore(tmp_path, toy):
    backend = LoopbackTransport()
    _, mb = make_pair(tmp_path, toy, backend=backend)
    peers = dict(mb.keystore.peers)
    rows = _tables(tmp_path / "b.ks")
    for n in range(1000):
        backend.send(TransportEnvelope(fresh_exchange_id(), FLOW_DATA, b"stranger%d@x" % n,
                                       IDB, b"junk"))
    assert mb.recv_sealed(timeout=0) == []
    # nor do a refused send and a refused renewal
    with pytest.raises(ManagerError):
        mb.send_sealed(b"typo@x", b"hi")
    with pytest.raises(NoChainError):
        mb.reauthenticate_chained(b"typo2@x")
    mb.keystore.save()
    assert mb.keystore.peers == peers
    assert _tables(tmp_path / "b.ks") == rows
    # an authenticate does add its peer, even when it times out
    assert mb.authenticate(b"late@x", b"pw", timeout=0).outcome is Outcome.ABORTED_BY_TIMEOUT
    assert set(Keystore(tmp_path / "b.ks").peers) == set(peers) | {b"late@x"}


def test_garbage_pake_payload_is_protocol_error(tmp_path, toy):
    backend = LoopbackTransport()
    ma, mb = make_pair(tmp_path, toy, backend=backend)

    t = threading.Thread(target=lambda: mb.authenticate(IDA, b"pw", timeout=1.0))
    t.start()
    # forge an opening flow with an undecodable group element
    backend.send(TransportEnvelope(
        exchange_id=bytes(16), flow=0, sender=IDA, recipient=IDB,
        payload=b"\x07", fingerprint=ma.keystore.self_fingerprint))
    t.join()
    assert [e.outcome for e in mb.keystore.exchanges] == [Outcome.PROTOCOL_ERROR]


def test_replayed_transcript_cannot_succeed(tmp_path, toy):
    # a MITM replaying a recorded successful exchange at the responder
    backend = LoopbackTransport()
    ma, mb = make_pair(tmp_path, toy, backend=backend)

    captured = []
    original_send = backend.send

    def tap(env):
        captured.append(env)
        original_send(env)

    backend.send = tap
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    assert ra.outcome is Outcome.SUCCESS

    # replay everything the initiator sent, against a fresh responder run
    backend.send = original_send
    result_box = {}
    t = threading.Thread(target=lambda: result_box.update(
        r=mb.authenticate(IDA, b"pw", timeout=1.0)))
    t.start()
    for env in captured:
        if env.sender == IDA:
            backend.send(env)
    t.join()
    # the replayed tag binds the old transcript, never the fresh one
    assert result_box["r"].outcome is not Outcome.SUCCESS
    assert result_box["r"].key is None


def test_password_never_written_anywhere(tmp_path, toy):
    backend = LoopbackTransport()
    ma, mb = make_pair(tmp_path, toy, backend=backend)
    secret = b"hunter2-super-secret"

    captured = []
    original_send = backend.send
    backend.send = lambda env: (captured.append(env), original_send(env))
    ra, rb = run_both(ma, mb, secret, secret)
    assert ra.outcome is Outcome.SUCCESS
    for env in captured:
        assert secret not in env.to_bytes()
    # every file: a keystore's saves land in its write-ahead log first
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert {"a.ks", "a.ks-wal", "b.ks", "b.ks-wal"} <= {path.name for path in files}
    for path in files:
        blob = path.read_bytes()
        assert secret not in blob
        assert secret.hex().encode() not in blob


# ---------------------------------------------------------------------------
# Chaining and sealed data
# ---------------------------------------------------------------------------

def test_chained_reauth_rotates_key(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    ra, rb = run_both(ma, mb, b"pw", b"pw")
    first = ra.key

    results = {}
    ta = threading.Thread(target=lambda: results.update(
        a=ma.reauthenticate_chained(IDB, timeout=5.0)))
    tb = threading.Thread(target=lambda: results.update(
        b=mb.reauthenticate_chained(IDA, timeout=5.0)))
    ta.start(); tb.start(); ta.join(); tb.join()
    assert results["a"].outcome is Outcome.SUCCESS
    assert results["a"].key == results["b"].key
    assert results["a"].key != first
    assert ma.keystore.peer(IDB).chained_key == results["a"].key


def test_chained_reauth_requires_stored_key(tmp_path, toy):
    ma, _ = make_pair(tmp_path, toy)
    with pytest.raises(NoChainError):
        ma.reauthenticate_chained(IDB)


def test_diverged_chain_falls_back_to_manual(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    run_both(ma, mb, b"pw", b"pw")

    def toy_pi(key):
        return toy.scalar_from_password(key.hex().encode(), password_context(toy))

    # simulate divergence; in the 11-element toy group a key chosen blindly
    # would give the same pi as the real chain one time in 11
    real = mb.keystore.peer(IDA).chained_key
    mb.keystore.peer(IDA).chained_key = next(
        key for key in (bytes([i]) * 32 for i in range(256)) if toy_pi(key) != toy_pi(real))

    results = {}
    ta = threading.Thread(target=lambda: results.update(
        a=ma.reauthenticate_chained(IDB, timeout=5.0)))
    tb = threading.Thread(target=lambda: results.update(
        b=mb.reauthenticate_chained(IDA, timeout=5.0)))
    ta.start(); tb.start(); ta.join(); tb.join()
    assert results["a"].outcome is Outcome.PASSWORD_MISMATCH
    assert results["a"].fallback_to_manual is True


def test_sealed_requires_authentication(tmp_path, toy):
    ma, _ = make_pair(tmp_path, toy)
    with pytest.raises(ManagerError):
        ma.send_sealed(IDB, b"hello")


def test_sealed_roundtrip_after_auth(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    run_both(ma, mb, b"pw", b"pw")
    ma.send_sealed(IDB, b"attack at dawn")
    got = mb.recv_sealed(timeout=2.0)
    assert got == [(IDA, b"attack at dawn")]


def test_a_sealed_message_that_does_not_open_does_not_lose_the_batch(tmp_path, toy, caplog):
    ma, mb = make_pair(tmp_path, toy)
    run_both(ma, mb, b"pw", b"pw")
    key = ma.keystore.peer(IDB).chained_key
    forged = bytearray(sealed.seal(key, b"forged").to_bytes())
    forged[-1] ^= 1
    bad = TransportEnvelope(fresh_exchange_id(), FLOW_DATA, IDA, IDB, bytes(forged))
    ma.send_sealed(IDB, b"first")
    ma.backend.send(bad)
    ma.send_sealed(IDB, b"second")
    with caplog.at_level(logging.WARNING, logger="pakemail.manager"):
        got = mb.recv_sealed(timeout=2.0)
    assert got == [(IDA, b"first"), (IDA, b"second")]
    assert bad.exchange_id.hex() in caplog.text and repr(IDA) in caplog.text
    assert key.hex() not in caplog.text and repr(key)[2:-1] not in caplog.text


def test_in_pi_binding_needs_known_fingerprint(tmp_path, toy):
    ma, _ = make_pair(tmp_path, toy)
    with pytest.raises(ManagerError):
        ma.authenticate(IDB, b"pw", binding="pi", timeout=0.1)


def test_in_pi_binding_succeeds_with_exchanged_fingerprints(tmp_path, toy):
    ma, mb = make_pair(tmp_path, toy)
    ma.keystore.peer(IDB).fingerprint = mb.keystore.self_fingerprint
    mb.keystore.peer(IDA).fingerprint = ma.keystore.self_fingerprint
    ra, rb = run_both(ma, mb, b"pw", b"pw", binding="pi")
    assert ra.outcome is Outcome.SUCCESS and rb.outcome is Outcome.SUCCESS
    assert ra.key == rb.key


# ---------------------------------------------------------------------------
# Renewals between sealed bursts over the relay
# ---------------------------------------------------------------------------

def _on_both_sides(side_a, side_b):
    results = {}
    thread = threading.Thread(target=lambda: results.update(b=side_b()))
    thread.start()
    try:
        results["a"] = side_a()
    finally:
        thread.join(15.0)
    assert not thread.is_alive()
    return results["a"], results["b"]


def test_chained_renewals_between_sealed_bursts_over_the_relay(tmp_path, production):
    """Two pairs on one logged relay with the production group: each renewal
    succeeds on both sides and rotates the stored key, and each sealed
    message sent after it opens once, at its addressee."""
    rng = random.Random(23)
    with RelayServer(store=MailboxStore(tmp_path / "relay.log")) as srv:
        pairs = []
        for i in range(2):
            ma, mb = (SessionManager(Keystore(tmp_path / f"{i}{side}.ks", f"r{i}{side}@x".encode()),
                                     RelayTransport(*srv.address), production)
                      for side in "ab")
            ra, rb = _on_both_sides(lambda: ma.authenticate(mb.identity, b"pw", timeout=5.0),
                                    lambda: mb.authenticate(ma.identity, b"pw", timeout=5.0))
            assert ra.outcome is rb.outcome is Outcome.SUCCESS
            pairs.append((ma, mb))
        try:
            for _ in range(10):
                for ma, mb in pairs:
                    old = ma.keystore.peer(mb.identity).chained_key
                    ra, rb = _on_both_sides(
                        lambda: ma.reauthenticate_chained(mb.identity, timeout=5.0),
                        lambda: mb.reauthenticate_chained(ma.identity, timeout=5.0))
                    assert ra.outcome is rb.outcome is Outcome.SUCCESS
                    assert ra.key == rb.key != old
                    assert (ma.keystore.peer(mb.identity).chained_key == ra.key
                            == mb.keystore.peer(ma.identity).chained_key)

                    sender, receiver = (ma, mb) if rng.random() < 0.5 else (mb, ma)
                    sent = [rng.randbytes(int(64 * 1024 ** rng.random())) for _ in range(16)]
                    for plaintext in sent:
                        sender.send_sealed(receiver.identity, plaintext)
                    got = []
                    while len(got) < len(sent):
                        batch = receiver.recv_sealed(timeout=5.0)
                        assert batch, "a sealed message did not arrive"
                        got += batch
                    assert sorted(got) == sorted((sender.identity, p) for p in sent)
                    assert sender.recv_sealed(timeout=0.0) == []
            for ma, mb in pairs:
                assert ma.recv_sealed(timeout=0.05) == mb.recv_sealed(timeout=0.0) == []
        finally:
            for manager in (m for pair in pairs for m in pair):
                manager.backend.close()
