"""The four benchmark workloads, each driven through pakemail's public API.

A workload is built from one ``random.Random`` seeded on the command line,
so a seed fixes every input: passwords, which exchanges use a wrong
secret, message sizes and bursts, the preloaded keystore history and the
harness seeds. The load is closed loop from at most two threads: side A
of a pair runs on the calling thread and side B on one helper thread, and
each side's operations run one after another.

Every workload checks the program's outputs as it goes and raises
:class:`CheckFailed` on the first wrong one. An operation that times out,
raises, hits the lockout or ends in an unexpected but harmless outcome is
counted as failed instead.
"""

from __future__ import annotations

import math
import queue
import random
import threading
import time
from collections import defaultdict
from pathlib import Path

# Generous: an exchange that needs this long has failed, and the run must
# still end well inside its time limit.
TIMEOUT = 10.0
KEY_LEN = 32


class CheckFailed(Exception):
    """The program produced a wrong output; the run is not valid."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _letters(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


class Helper:
    """One worker thread that runs side B of each pair operation."""

    def __init__(self) -> None:
        self._jobs: queue.Queue = queue.Queue()
        self._results: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._loop, name="side-b", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            try:
                self._results.put((True, job()))
            except BaseException as exc:  # handed to the caller, which re-raises
                self._results.put((False, exc))

    def both(self, side_a, side_b):
        """Run ``side_a`` here and ``side_b`` on the helper; return both results."""
        self._jobs.put(side_b)
        try:
            a = side_a()
        finally:
            ok, b = self._results.get(timeout=3 * TIMEOUT)
        if not ok:
            raise b
        return a, b

    def close(self) -> None:
        self._jobs.put(None)
        self._thread.join(timeout=3 * TIMEOUT)


class Stats:
    """Samples and counts of one measured phase."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.exchanges = 0
        self.messages = 0
        self.payload_bytes = 0
        self.harness_trials = 0
        self.ops = 0
        self.elapsed = 0.0
        self.cpu_reference_ms: list[float] = []


class Workload:
    """Base: subclasses build their state in ``setup`` and run one ``op``."""

    name = ""
    group_name = "production"

    def __init__(self, pm, seed: int, workdir: Path, secrets, on_op=None) -> None:
        self.pm = pm
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.secrets = secrets
        self.on_op = on_op or (lambda op_id: None)
        self.group = pm.groups.get_group(self.group_name)
        self.policy = pm.manager.AttemptPolicy(timeout=TIMEOUT)
        self.helper: Helper | None = None
        self.op_count = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self, stats: Stats) -> None:
        self.op(stats)

    def op(self, stats: Stats) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (late duplicates, totals)."""

    def teardown(self) -> None:
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def extra(self) -> dict:
        """Per-layer values read from program state rather than from spans."""
        return {}

    # -- shared helpers ------------------------------------------------------

    def both(self, side_a, side_b):
        op_id = self.op_count

        def tagged(fn):
            def run():
                self.on_op(op_id)
                return fn()
            return run

        return self.helper.both(tagged(side_a), tagged(side_b))

    def password(self) -> bytes:
        secret = ("bench-secret-" + _letters(self.rng, 12)).encode()
        self.secrets.add_password(secret, self.group)
        return secret

    def check_pair(self, ra, rb, expect, what: str) -> bool:
        """Check both sides' results; True if the exchange did what it should.

        A wrong key, a key released on a mismatch or a mismatch on matching
        secrets is a CheckFailed. A timeout or protocol error is a failed op.
        """
        Outcome = self.pm.manager.Outcome
        outcomes = (ra.outcome, rb.outcome)
        if expect is Outcome.SUCCESS:
            if outcomes == (Outcome.SUCCESS, Outcome.SUCCESS):
                check(ra.key is not None and len(ra.key) == KEY_LEN,
                      f"{what}: key is not {KEY_LEN} bytes")
                check(ra.key == rb.key, f"{what}: the two sides hold different keys")
                check(ra.exchange_id == rb.exchange_id, f"{what}: exchange ids differ")
                self.secrets.add_key(ra.key)
                # the key's hex is the next renewal's password
                self.secrets.add_password(ra.key.hex().encode(), self.group)
                return True
            check(Outcome.PASSWORD_MISMATCH not in outcomes,
                  f"{what}: matching secrets ended in {outcomes}")
        else:
            if outcomes == (Outcome.PASSWORD_MISMATCH, Outcome.PASSWORD_MISMATCH):
                check(ra.key is None and rb.key is None,
                      f"{what}: a key was released on a mismatch")
                return True
            check(Outcome.SUCCESS not in outcomes,
                  f"{what}: wrong secret ended in {outcomes}")
        return False

    def timed_pair(self, stats: Stats, sample: str, side_a, side_b, expect, what: str):
        stats.attempted += 1
        stats.exchanges += 1
        start = time.perf_counter()
        try:
            ra, rb = self.both(side_a, side_b)
        except (self.pm.manager.LockedOutError, self.pm.transport.TransportError):
            stats.failed += 1
            return None
        seconds = time.perf_counter() - start
        stats.samples[sample].append(seconds)
        # sides return an AuthResult, or a tuple that starts with one
        if not self.check_pair(ra[0] if isinstance(ra, tuple) else ra,
                               rb[0] if isinstance(rb, tuple) else rb, expect, what):
            stats.failed += 1
            return None
        return seconds, ra, rb


# ---------------------------------------------------------------------------
# auth-loopback
# ---------------------------------------------------------------------------

class AuthLoopback(Workload):
    """Back-to-back password handshakes over the in-memory transport."""

    name = "auth-loopback"
    PAIRS = 3       # coprime with WRONG_EVERY, so wrong secrets rotate over pairs
    WRONG_EVERY = 8

    def setup(self) -> None:
        pm = self.pm
        backend = pm.transport.LoopbackTransport()
        self.pairs = []
        for i in range(self.PAIRS):
            a, b = (f"loop-{i}-{side}@bench.example".encode() for side in "ab")
            ma = pm.manager.SessionManager(
                pm.manager.Keystore(self.workdir / f"{i}a.keystore", a), backend,
                self.group, self.policy)
            mb = pm.manager.SessionManager(
                pm.manager.Keystore(self.workdir / f"{i}b.keystore", b), backend,
                self.group, self.policy)
            self.pairs.append((ma, mb))
        self.wrong_slot = self.rng.randrange(self.WRONG_EVERY)
        self.helper = Helper()

    def op(self, stats: Stats) -> None:
        Outcome = self.pm.manager.Outcome
        i = self.op_count
        self.op_count += 1
        ma, mb = self.pairs[i % self.PAIRS]
        secret_a = self.password()
        wrong = i % self.WRONG_EVERY == self.wrong_slot
        secret_b = self.password() if wrong else secret_a
        done = self.timed_pair(
            stats, "handshake",
            lambda: ma.authenticate(mb.identity, secret_a),
            lambda: mb.authenticate(ma.identity, secret_b),
            Outcome.PASSWORD_MISMATCH if wrong else Outcome.SUCCESS,
            "loopback handshake")
        if done is not None:
            stats.samples["op"].append(done[0])
        stats.ops += 1


# ---------------------------------------------------------------------------
# mail-relay
# ---------------------------------------------------------------------------

class MailRelay(Workload):
    """Sealed-message bursts through an in-process relay with a persisted log."""

    name = "mail-relay"
    PAIRS = 2
    # messages per pair between chained renewals: rare enough that renewals
    # take about a tenth of the run, so group work stays a minor share
    RENEW_EVERY = 1000
    MIN_SIZE, MAX_SIZE = 64, 64 * 1024
    MAX_BURST = 16

    def setup(self) -> None:
        pm = self.pm
        self.log_path = self.workdir / "relay.log"
        store = pm.relay.MailboxStore(self.log_path)
        self.server = pm.relay.RelayServer(("127.0.0.1", 0), store).start()
        host, port = self.server.address
        self.pairs = []
        for i in range(self.PAIRS):
            a, b = (f"relay-{i}-{side}@bench.example".encode() for side in "ab")
            ma = pm.manager.SessionManager(
                pm.manager.Keystore(self.workdir / f"{i}a.keystore", a),
                pm.transport.RelayTransport(host, port), self.group, self.policy)
            mb = pm.manager.SessionManager(
                pm.manager.Keystore(self.workdir / f"{i}b.keystore", b),
                pm.transport.RelayTransport(host, port), self.group, self.policy)
            self.pairs.append([ma, mb, 0])
        # payloads are slices of one seeded block behind an 8-byte sequence number
        self.block = self.rng.randbytes(self.MAX_SIZE)
        self.seq = 0
        self.delivered: set[int] = set()
        self.timed_out: set[int] = set()
        self.helper = Helper()

    def warmup(self, stats: Stats) -> None:
        Outcome = self.pm.manager.Outcome
        for ma, mb, _ in self.pairs:
            secret = self.password()
            self.timed_pair(stats, "handshake",
                            lambda: ma.authenticate(mb.identity, secret),
                            lambda: mb.authenticate(ma.identity, secret),
                            Outcome.SUCCESS, "relay handshake")
            self.op_count += 1
        check(stats.failed == 0, "initial relay handshakes failed")

    def _renew(self, stats: Stats, pair) -> None:
        ma, mb, _ = pair
        old = ma.keystore.peer(mb.identity).chained_key
        done = self.timed_pair(stats, "renewal",
                               lambda: ma.reauthenticate_chained(mb.identity),
                               lambda: mb.reauthenticate_chained(ma.identity),
                               self.pm.manager.Outcome.SUCCESS, "relay renewal")
        if done is not None:
            _, ra, _ = done
            check(ra.key != old, "renewal did not rotate the chained key")
            check(ma.keystore.peer(mb.identity).chained_key == ra.key ==
                  mb.keystore.peer(ma.identity).chained_key,
                  "renewed key not stored on both sides")
        pair[2] = 0

    def _payload(self, size: int) -> tuple[int, bytes]:
        seq = self.seq
        self.seq += 1
        offset = self.rng.randrange(self.MAX_SIZE - size + 9)
        return seq, seq.to_bytes(8, "big") + self.block[offset:offset + size - 8]

    def op(self, stats: Stats) -> None:
        pair = self.pairs[self.op_count % self.PAIRS]
        if pair[2] >= self.RENEW_EVERY:
            self._renew(stats, pair)
        self.op_count += 1
        ma, mb, _ = pair
        burst = self.rng.randint(1, self.MAX_BURST)
        sizes = [int(self.MIN_SIZE * (self.MAX_SIZE / self.MIN_SIZE) ** self.rng.random())
                 for _ in range(burst)]
        messages = [self._payload(size) for size in sizes]
        expected = dict(messages)
        sender, receiver = (ma, mb) if self.rng.random() < 0.5 else (mb, ma)
        sent_at: dict[int, float] = {}

        TransportError = self.pm.transport.TransportError

        def send():
            for seq, payload in messages:
                sent_at[seq] = time.perf_counter()
                try:
                    sender.send_sealed(receiver.identity, payload)
                except TransportError:
                    pass  # never arrives, so it counts as failed below

        def receive():
            got: dict[int, float] = {}
            deadline = time.monotonic() + TIMEOUT
            while len(got) < len(expected):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    batch = receiver.recv_sealed(timeout=remaining)
                except TransportError:
                    continue
                except self.pm.sealed.SealError as exc:
                    raise CheckFailed(f"a sealed message did not open: {exc}") from exc
                for who, plaintext in batch:
                    now = time.perf_counter()
                    seq = int.from_bytes(plaintext[:8], "big")
                    if seq in self.timed_out:
                        continue  # already counted as failed
                    check(seq not in self.delivered and seq not in got,
                          f"message {seq} delivered twice")
                    check(who == sender.identity, "message from an unexpected sender")
                    check(plaintext == expected.get(seq), f"message {seq} changed in transit")
                    got[seq] = now
            return got

        side_a, side_b = (send, receive) if sender is ma else (receive, send)
        a, b = self.both(side_a, side_b)
        got = b if sender is ma else a
        stats.attempted += burst
        stats.messages += len(got)
        stats.ops += len(got)
        pair[2] += burst
        for seq, size in zip(expected, sizes):
            if seq in got:
                stats.samples["op"].append(got[seq] - sent_at[seq])
                stats.payload_bytes += size
                self.delivered.add(seq)
            else:
                self.timed_out.add(seq)
                stats.failed += 1

    def finish(self) -> None:
        for ma, mb, _ in self.pairs:
            for manager in (ma, mb):
                late = [int.from_bytes(p[:8], "big") for _, p in manager.recv_sealed(timeout=0.05)]
                check(all(seq in self.timed_out for seq in late),
                      "a delivered message arrived again")

    def teardown(self) -> None:
        super().teardown()
        self.server.stop()

    def extra(self) -> dict:
        return {"relay.log_bytes": self.log_path.stat().st_size}


# ---------------------------------------------------------------------------
# maildir-cli
# ---------------------------------------------------------------------------

class MaildirCli(Workload):
    """CLI-shaped auth and renew runs over maildir with a 5k-record history."""

    name = "maildir-cli"
    HISTORY = 5000
    HISTORY_PEERS = 64

    def setup(self) -> None:
        pm = self.pm
        Outcome, Role = pm.manager.Outcome, pm.pake.Role
        self.mail_root = self.workdir / "mail"
        self.sides = []
        for side in "ab":
            identity = f"cli-{side}@bench.example".encode()
            path = self.workdir / f"{side}.keystore"
            keystore = pm.manager.Keystore(path, identity)
            peers = [f"past-{n}@bench.example".encode() for n in range(self.HISTORY_PEERS)]
            for peer in peers:
                record = keystore.peer(peer)
                record.fingerprint = pm.confirm.Fingerprint(self.rng.randbytes(20))
                record.authenticated = True
                record.chained_key = self.rng.randbytes(KEY_LEN)
                self.secrets.add_key(record.chained_key)
            started = 1.7e9
            for _ in range(self.HISTORY):
                started += self.rng.uniform(1, 600)
                keystore.exchanges.append(pm.manager.ExchangeRecord(
                    exchange_id=self.rng.randbytes(16),
                    peer=self.rng.choice(peers),
                    role=self.rng.choice((Role.INITIATOR, Role.RESPONDER)),
                    outcome=self.rng.choices(
                        (Outcome.SUCCESS, Outcome.PASSWORD_MISMATCH, Outcome.ABORTED_BY_TIMEOUT),
                        (90, 5, 5))[0],
                    started_at=started,
                    ended_at=started + self.rng.uniform(0.05, 3.0)))
            keystore.save()
            self.sides.append((identity, path))
        self.helper = Helper()

    def _invocation(self, me: int, command: str, password: bytes | None = None):
        """What one `pakemail auth` or `pakemail renew` run does, in process.

        Returns the AuthResult, the chained key read from disk before the
        run and either the rendered trustwords or the key stored after it.
        """
        pm = self.pm
        identity, path = self.sides[me]
        peer = self.sides[1 - me][0]
        keystore = pm.manager.Keystore(path, identity)
        manager = pm.manager.SessionManager(
            keystore, pm.transport.MaildirTransport(self.mail_root), self.group, self.policy)
        before = keystore.peer(peer).chained_key
        if command == "renew":
            result = manager.reauthenticate_chained(peer)
            return result, before, keystore.peer(peer).chained_key
        result = manager.authenticate(peer, password)
        words = None
        if result.outcome is pm.manager.Outcome.SUCCESS:
            words = pm.analysis.trustwords(keystore.self_fingerprint,
                                           keystore.peer(peer).fingerprint,
                                           pm.analysis.Wordlist.synthetic())
        return result, before, words

    def _auth(self, stats: Stats) -> float | None:
        secret = self.password()
        done = self.timed_pair(stats, "handshake",
                               lambda: self._invocation(0, "auth", secret),
                               lambda: self._invocation(1, "auth", secret),
                               self.pm.manager.Outcome.SUCCESS, "maildir auth")
        if done is None:
            return None
        seconds, (ra, _, words_a), (_, _, words_b) = done
        check(words_a is not None and len(words_a) == 5 and words_a == words_b,
              "the two sides render different trustwords")
        self.chained = ra.key
        return seconds

    def _renew(self, stats: Stats) -> float | None:
        done = self.timed_pair(stats, "renewal",
                               lambda: self._invocation(0, "renew"),
                               lambda: self._invocation(1, "renew"),
                               self.pm.manager.Outcome.SUCCESS, "maildir renewal")
        if done is None:
            return None
        seconds, (ra, before_a, stored_a), (_, before_b, stored_b) = done
        check(before_a == before_b == self.chained,
              "the chained key on disk is not the one the last exchange agreed")
        check(ra.key != before_a, "renewal did not rotate the chained key")
        check(stored_a == stored_b == ra.key, "renewed key not stored on both sides")
        self.chained = ra.key
        return seconds

    def op(self, stats: Stats) -> None:
        self.op_count += 1
        auth = self._auth(stats)
        renew = self._renew(stats) if auth is not None else None
        if auth is not None and renew is not None:
            stats.samples["op"].append(auth + renew)
        stats.ops += 1


# ---------------------------------------------------------------------------
# adversary-toy
# ---------------------------------------------------------------------------

class AdversaryToy(Workload):
    """The adversary harness in the toy group, three strategies per round."""

    name = "adversary-toy"
    group_name = "toy"
    DICTIONARY = 16
    TRIALS = {"passive": 20, "active-one-guess": 100, "guess-and-abort": 100}

    def setup(self) -> None:
        pm = self.pm
        tag = _letters(self.rng, 8)
        self.dictionary = [f"bench-dict-{tag}-{i:02d}".encode() for i in range(self.DICTIONARY)]
        # guess-and-abort uses residue-disjoint pools, so that no wrong guess
        # can collide into a hit in the order-11 group
        ctx = pm.pake.password_context(self.group)
        by_residue: dict[int, bytes] = {}
        n = 0
        while len(by_residue) < self.group.order:
            candidate = f"bench-pool-{tag}-{n}".encode()
            by_residue.setdefault(self.group.scalar_from_password(candidate, ctx), candidate)
            n += 1
        self.abort_guesses = [by_residue[r] for r in range(5)]
        self.abort_honest = [by_residue[r] for r in range(5, self.group.order)]
        for secret in self.dictionary + self.abort_guesses + self.abort_honest:
            self.secrets.add_password(secret, self.group)
        self.active_trials = 0
        self.active_successes = 0

    def op(self, stats: Stats) -> None:
        harness, Outcome = self.pm.harness, self.pm.manager.Outcome
        self.on_op(self.op_count)
        self.op_count += 1
        start = time.perf_counter()
        runs = []
        for strategy, trials in self.TRIALS.items():
            seed = self.rng.getrandbits(32)
            if strategy == "guess-and-abort":
                result = harness.adversary_harness(self.abort_guesses, strategy, trials=trials,
                                                   seed=seed, honest_passwords=self.abort_honest)
            else:
                result = harness.adversary_harness(self.dictionary, strategy,
                                                   trials=trials, seed=seed)
            runs.append((strategy, trials, result))
        stats.samples["op"].append(time.perf_counter() - start)
        stats.ops += 1
        for strategy, trials, result in runs:
            stats.attempted += trials
            stats.exchanges += trials
            stats.harness_trials += trials
            outcomes = result.honest_outcomes
            check(result.trials == trials and sum(outcomes.values()) == trials,
                  f"{strategy}: trials missing from the tally")
            if strategy == "passive":
                check(result.adversary_successes == 0,
                      "passive observer singled out the password")
            elif strategy == "active-one-guess":
                check(result.adversary_successes <= outcomes[Outcome.SUCCESS],
                      "a hit did not complete the session")
                self.active_trials += trials
                self.active_successes += result.adversary_successes
            else:
                check(result.adversary_successes == 0 and
                      outcomes[Outcome.ABORTED_BY_TIMEOUT] == trials,
                      "guess-and-abort left a gap or a hit in the history")

    def finish(self) -> None:
        # one-guess success rate within five standard deviations of 1/|D|
        p = 1 / self.DICTIONARY
        n = self.active_trials
        check(n > 0, "no one-guess trials ran")
        sigma = math.sqrt(p * (1 - p) / n)
        check(abs(self.active_successes / n - p) <= 5 * sigma,
              "one-guess success rate outside the binomial bounds of 1/|dictionary|")


WORKLOADS = {cls.name: cls for cls in (AuthLoopback, MailRelay, MaildirCli, AdversaryToy)}
