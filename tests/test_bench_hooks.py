"""The benchmark's tracer (``bench/spans.py``) wraps pakemail's functions and
methods by name. A refactor that moves or renames one of them breaks only a
traced benchmark run, so this checks that the tracer still installs on the
current package and that uninstalling puts every attribute back.
"""

import importlib.util
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
