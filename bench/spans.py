"""Spans recorded from outside the program, around calls into its modules.

:func:`install` replaces public functions and methods of the ``pakemail``
modules with thin wrappers that time each call and keep a per-thread stack
of open spans, so a span's self time is its duration minus the time its
child spans cover. Nothing under ``src/`` is edited; :meth:`Recorder.uninstall`
puts every original back.

Per-call durations are aggregated in memory as they arrive. Raw spans
(name, thread, start, end, depth, operation id; a span's parent is the
enclosing span one level up on the same thread) are kept only up to
``SPAN_CAP`` so that a long traced run stays small; they are written out
when the benchmark ends.

Scalars are never stored: for exponentiations by the blinding constants M
and N (the password-derived exponent pi) only the Hamming weight of the
exponent is kept next to the call's duration.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter, defaultdict

SPAN_CAP = 20_000


class Recorder:
    """Aggregates span durations per name; thread-safe."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_time: dict[str, array] = defaultdict(lambda: array("d"))
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.hamming: list[tuple[int, float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- operation ids: spans of one operation share an identifier ----------

    def set_op(self, op_id: int) -> None:
        self._local.op = op_id

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, *, namer=None, after=None):
        """Wrap ``fn`` in a span.

        ``namer(args, kwargs)`` picks the span name per call where one
        wrapper covers several metrics; ``after(args, kwargs, result,
        seconds)`` records counts from the call's result.
        """
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            child = [0.0]
            depth = len(stack)
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][0] += seconds
                span_name = namer(args, kwargs) if namer is not None else name
                self._record(span_name, seconds, seconds - child[0], start, end, depth,
                             getattr(local, "op", -1))
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    def _record(self, name, seconds, self_seconds, start, end, depth, op_id) -> None:
        with self._lock:
            self.total[name].append(seconds)
            self.self_time[name].append(self_seconds)
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, threading.get_ident(), start, end, depth, op_id))

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name, **kw) -> None:
        """Replace ``owner.attr`` with a traced wrapper (plain, static or class method)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **kw)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **kw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


def install(recorder: Recorder, pakemail) -> None:
    """Wrap the public surface of every ``pakemail`` layer the benchmark drives."""
    groups, pake, confirm = pakemail.groups, pakemail.pake, pakemail.confirm
    transport, relay, manager = pakemail.transport, pakemail.relay, pakemail.manager
    sealed, analysis, harness = pakemail.sealed, pakemail.analysis, pakemail.harness

    fixed_bases: dict[str, set] = {}
    blinds: dict[str, set] = {}

    def bases_of(group):
        if group.name not in fixed_bases:
            blinds[group.name] = {group.M, group.N}
            fixed_bases[group.name] = {group.generator} | blinds[group.name]
        return fixed_bases[group.name]

    def exp_name(args, kwargs):
        group, base = args[0], args[1]
        return "groups.exp_fixed" if base in bases_of(group) else "groups.exp_var"

    def exp_after(args, kwargs, result, seconds):
        group, base, e = args[0], args[1], args[2]
        if base in blinds[group.name]:
            weight = bin(e % group.order).count("1")
            with recorder._lock:
                recorder.hamming.append((weight, seconds))

    recorder.patch(groups.Group, "exp", None, namer=exp_name, after=exp_after)
    recorder.patch(groups.Group, "mul", "groups.mul")
    recorder.patch(groups.Group, "div", "groups.div")
    recorder.patch(groups.Group, "decode", "groups.decode")

    recorder.patch(pake.PakeSession, "start", "pake.start")
    recorder.patch(pake.PakeSession, "finish", "pake.finish")

    recorder.patch(confirm, "derive_bundle", "confirm.bundle")
    recorder.patch(confirm.ConfirmationBundle, "verify_peer_tag", "confirm.verify")

    recorder.patch(transport.TransportEnvelope, "to_bytes", "transport.envelope_codec.encode")
    recorder.patch(transport.TransportEnvelope, "from_bytes", "transport.envelope_codec.decode")
    recorder.patch(transport, "encode_email", "transport.email_codec.encode")
    recorder.patch(transport, "decode_email", "transport.email_codec.decode")

    def poll_after(args, kwargs, result, seconds):
        recorder.count("transport.poll.calls")
        if not result:
            recorder.count("transport.poll.empty")

    for backend, cls in (("loopback", transport.LoopbackTransport),
                         ("maildir", transport.MaildirTransport),
                         ("relay", transport.RelayTransport)):
        recorder.patch(cls, "send", f"transport.{backend}.send")
        recorder.patch(cls, "poll", f"transport.{backend}.poll", after=poll_after)

    recorder.patch(relay.MailboxStore, "put", "relay.store.put")
    recorder.patch(relay.MailboxStore, "get", "relay.store.get")
    recorder.patch(relay.MailboxStore, "ack", "relay.store.ack")
    # one handler per accepted TCP connection
    recorder.patch(relay._RelayHandler, "handle", "relay.connection")

    recorder.patch(manager.Keystore, "__init__", "manager.keystore.load")
    recorder.patch(manager.Keystore, "save", "manager.keystore.save")
    recorder.patch(manager.SessionManager, "authenticate", "manager.authenticate")
    recorder.patch(manager.SessionManager, "recv_sealed", "manager.recv_sealed")

    recorder.patch(sealed, "seal", "sealed.seal")
    recorder.patch(sealed, "open_sealed", "sealed.open")

    recorder.patch(analysis.Wordlist, "synthetic", "analysis.wordlist")
    recorder.patch(analysis, "trustwords", "analysis.trustwords")

    def harness_name(args, kwargs):
        strategy = harness.Strategy(kwargs.get("strategy", args[1] if len(args) > 1 else None))
        return {"passive": "harness.passive", "active-one-guess": "harness.active",
                "guess-and-abort": "harness.abort"}[strategy.value]

    def harness_after(args, kwargs, result, seconds):
        with recorder._lock:
            recorder.total[harness_name(args, kwargs) + ".trial"].append(seconds / result.trials)

    recorder.patch(harness, "adversary_harness", None, namer=harness_name, after=harness_after)
