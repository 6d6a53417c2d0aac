"""The benchmark's tracer (``bench/spans.py``) wraps pakemail's functions and
methods by name. A refactor that moves or renames one of them breaks only a
traced benchmark run, so this checks that the tracer still installs on the
current package and that uninstalling puts every attribute back.
"""

import importlib.util
import threading
from pathlib import Path

import pakemail
from pakemail import analysis, confirm, groups, harness, manager, pake, relay, sealed, transport

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = (groups, pake, confirm, transport, relay, manager, sealed, analysis, harness)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _surface() -> dict:
    """Every attribute of the layer modules and of the classes they define."""
    owners = list(MODULES) + [obj for module in MODULES for obj in vars(module).values()
                              if isinstance(obj, type) and obj.__module__ == module.__name__]
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_hook():
    spans = _load_spans()
    before = _surface()
    recorder = spans.Recorder()
    spans.install(recorder, pakemail)
    try:
        patched = {key for key, value in _surface().items() if before[key] is not value}
    finally:
        recorder.uninstall()
    after = _surface()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    for backend in (transport.LoopbackTransport, transport.MaildirTransport,
                    transport.RelayTransport):
        assert {(backend, "send"), (backend, "poll")} <= patched
    assert {(manager.SessionManager, "authenticate"), (manager.SessionManager, "recv_sealed"),
            (relay.MailboxStore, "put"), (relay.MailboxStore, "get"), (relay.MailboxStore, "ack"),
            (relay._RelayHandler, "handle"), (confirm, "derive_bundle")} <= patched


def _handshake(tmp_path, group) -> list:
    backend = transport.LoopbackTransport()
    ma, mb = (manager.SessionManager(
        manager.Keystore(tmp_path / f"{group.name}-{name.decode()}.ks", name), backend, group)
        for name in (b"a@x", b"b@x"))
    results = []
    responder = threading.Thread(
        target=lambda: results.append(mb.authenticate(b"a@x", b"pw", timeout=5.0)))
    responder.start()
    results.append(ma.authenticate(b"b@x", b"pw", timeout=5.0))
    responder.join(10.0)
    assert not responder.is_alive()
    return [r.outcome for r in results]


def test_tracer_records_the_protocol_spans(tmp_path, toy, production):
    # the tracer patches module attributes: code that imported a patched
    # function by name would run unrecorded and its figures would read 0
    spans = _load_spans()
    recorder = spans.Recorder()
    spans.install(recorder, pakemail)
    try:
        outcomes = _handshake(tmp_path, toy)
        for strategy in harness.Strategy:
            harness.adversary_harness([b"pw0", b"pw1"], strategy, trials=2, seed=1)
        toy_samples = len(recorder.hamming)
        outcomes += _handshake(tmp_path, production)
    finally:
        recorder.uninstall()
    assert outcomes == [manager.Outcome.SUCCESS] * 4
    assert {"pake.start", "pake.finish", "confirm.bundle", "confirm.verify",
            "manager.authenticate", "harness.passive", "harness.active",
            "harness.abort", "groups.exp_fixed"} <= set(recorder.total)
    # the pi timing probe samples exponentiations led by M or N: on
    # secp256k1 too, or groups.exp.us_per_hamming_bit goes silent
    assert len(recorder.hamming) > toy_samples
