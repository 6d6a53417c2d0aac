import logging
import sys
import threading

import pytest

from pakemail import manager, sealed
from pakemail.manager import (
    AttemptPolicy,
    AuthResult,
    ExchangeRecord,
    Keystore,
    LockedOutError,
    ManagerError,
    NoChainError,
    Outcome,
    SessionManager,
    assign_role,
)
from pakemail.pake import Role, password_context
from pakemail.transport import (
    FLOW_DATA,
    FLOW_INITIATOR_PAKE,
    FLOW_RESPONDER_PAKE,
    FLOW_RESPONDER_TAG,
    LoopbackTransport,
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


def _records(path) -> list[bytes]:
    """The journal's record lines, header excluded."""
    return path.read_bytes().split(b"\n")[1:-1]


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


def test_keystore_torn_tail_loads_a_prefix_and_heals(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.peer(IDB).failed_attempts = 1
    ks.save()
    start = path.stat().st_size
    ks.peer(IDB).failed_attempts = 2
    ks.save()
    ks.record_exchange(_exchange(1))
    # the last four records: peer, seal, exchange, seal
    full = path.read_bytes()
    peer_end = full.index(b"\n", full.index(b'"failed_attempts": 2')) + 1
    exchange_end = full.index(b"\n", full.index(b" exchange ")) + 1
    for cut in range(start, len(full) + 1):
        path.write_bytes(full[:cut])
        torn = Keystore(path)
        attempts = 2 if cut >= peer_end else 1
        history = [_exchange(1)] if cut >= exchange_end else []
        assert torn.peer(IDB).failed_attempts == attempts, cut
        assert torn.exchanges == history, cut
        torn.record_exchange(_exchange(2))
        healed = Keystore(path)
        assert healed.peer(IDB).failed_attempts == attempts, cut
        assert healed.exchanges == history + [_exchange(2)], cut
        assert path.read_bytes().endswith(b"\n")


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


def test_keystore_refuses_a_corrupt_middle_record(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.peer(IDB).chained_key = bytes(range(32))
    ks.save()
    ks.record_exchange(_exchange(1))
    lines = path.read_bytes().split(b"\n")
    n = next(n for n, line in enumerate(lines) if line[8:14] == b" peer ")
    assert n + 1 < len(lines) - 2  # records follow it
    lines[n] = lines[n].replace(b'"failed_attempts": 0', b'"failed_attempts": 1')
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ManagerError, match=f"line {n + 1} ") as err:
        Keystore(path)
    assert bytes(range(32)).hex() not in str(err.value)


def test_keystore_v1_file_is_rewritten_as_v2(tmp_path):
    path = tmp_path / "s.ks"
    fpr = "ab" * 20
    path.write_text("\n".join([
        "pakemail-keystore v1",
        'self {"identity": "%s", "fingerprint": "%s"}' % (IDA.hex(), fpr),
        'peer {"identity": "%s", "fingerprint": null, "authenticated": true, '
        '"chained_key": "%s", "failed_attempts": 1}' % (IDB.hex(), "11" * 32),
        'exchange {"exchange_id": "%s", "peer": "%s", "role": "initiator", '
        '"outcome": "success", "started_at": 1700000001.0, "ended_at": 1700000001.25}'
        % (bytes(15).hex() + "01", IDB.hex()),
    ]) + "\n")
    ks = Keystore(path, IDA)
    assert ks.self_fingerprint.hex == fpr
    assert ks.peer(IDB).chained_key == bytes([0x11]) * 32
    assert ks.peer(IDB).failed_attempts == 1
    assert ks.exchanges == [_exchange(1)]
    ks.record_exchange(_exchange(2))
    assert path.read_text().startswith("pakemail-keystore v2\n")
    back = Keystore(path, IDA)
    assert back.self_fingerprint.hex == fpr
    assert back.peer(IDB).authenticated and back.peer(IDB).failed_attempts == 1
    assert back.exchanges == [_exchange(1), _exchange(2)]


def test_keystore_append_size_does_not_grow_with_history(tmp_path):
    grown = []
    for history in (10, 5000):
        path = tmp_path / f"{history}.ks"
        ks = Keystore(path, IDA)
        ks.exchanges.extend(_exchange(n) for n in range(history))
        ks.save()
        ks = Keystore(path)
        before, inode = path.read_bytes(), path.stat().st_ino
        ks.peer(IDB).failed_attempts = 1
        ks.record_exchange(_exchange(history))
        # appended in place: same file, old bytes untouched
        assert path.stat().st_ino == inode
        assert path.read_bytes().startswith(before)
        grown.append(path.stat().st_size - len(before))
    # one peer record and one exchange record, whatever the history length
    assert grown[0] == grown[1] < 400


def test_keystore_compacts_superseded_records(tmp_path):
    path = tmp_path / "s.ks"
    ks = Keystore(path, IDA)
    ks.exchanges.extend(_exchange(n) for n in range(3))
    ks.save()
    ks = Keystore(path)  # the history stays unparsed through compactions
    for attempts in range(1, 50):
        ks.peer(IDB).failed_attempts = attempts
        ks.save()
        # live records: self, the newest seal, one peer and three
        # exchanges; superseded records never outnumber them
        assert len(_records(path)) <= 2 * 6
    back = Keystore(path)
    assert back.peer(IDB).failed_attempts == 49
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


def test_one_manager_serves_two_peers_on_threads(tmp_path, toy):
    idc = b"c@x"
    peers = (IDB, idc)
    # both responders release their tags together, so the manager's two
    # exchanges confirm and save at the same moment
    barrier = threading.Barrier(2, timeout=5.0)

    class InLockstep(LoopbackTransport):
        def send(self, env):
            if env.flow == FLOW_RESPONDER_TAG:
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

        def poll(self, recipient):
            return list(reversed(super().poll(recipient)))  # reorder

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
    assert mb._inbox == {}

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
    for store in (tmp_path / "a.ks", tmp_path / "b.ks"):
        blob = store.read_bytes()
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
