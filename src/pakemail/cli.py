"""Operator command surface.

Thin shell over the library modules: the human supplies identities and the
one-time low-entropy secret, and reads verdicts. Exit codes: 0 success,
2 password mismatch, 3 timeout, 4 lockout, 5 transport failure, 6 no
chained key, 7 no attack surface (all checked), 1 anything else.
"""

from __future__ import annotations

import argparse
import getpass
import os
import sqlite3
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import analysis, relay
from .confirm import Fingerprint
from .groups import get_group
from .manager import (
    AttemptPolicy,
    Keystore,
    LockedOutError,
    ManagerError,
    NoChainError,
    Outcome,
    SessionManager,
)
from .pake import Role
from .transport import (
    ImapSmtpTransport,
    LoopbackTransport,
    MailAccountConfig,
    MaildirTransport,
    RelayTransport,
    TransportError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_TIMEOUT = 3
EXIT_LOCKOUT = 4
EXIT_TRANSPORT = 5
EXIT_NO_CHAIN = 6
EXIT_NO_ATTACK_SURFACE = 7

# outcome -> (verdict line, exit code)
_OUTCOMES = {
    Outcome.SUCCESS: ("SUCCESS", EXIT_OK),
    Outcome.PASSWORD_MISMATCH: ("FAILURE: passwords did not match", EXIT_MISMATCH),
    Outcome.ABORTED_BY_TIMEOUT: ("FAILURE: peer did not respond in time", EXIT_TIMEOUT),
    Outcome.PROTOCOL_ERROR: ("FAILURE: protocol error", EXIT_ERROR),
}

# How every subcommand reports a failure: the first row whose exception type
# matches gives the report, whether it goes to stderr, and the exit code.
# Subclasses come before their bases. What the manager (keystore included),
# a transport or the analysis refuses is a verdict on stdout; bad input or an
# unreadable file is an error on stderr.
_FAILURES = (
    (LockedOutError, "FAILURE: {} (`pakemail unlock PEER`)", False, EXIT_LOCKOUT),
    (NoChainError, "FAILURE: {}; run `pakemail auth` to establish a chain", False, EXIT_NO_CHAIN),
    (ManagerError, "refused: {}", False, EXIT_ERROR),
    (TransportError, "FAILURE: transport: {}", False, EXIT_TRANSPORT),
    (analysis.NoFlippableBitsError, "no attack surface: {}", False, EXIT_NO_ATTACK_SURFACE),
    (analysis.AnalysisError, "invalid parameters: {}", False, EXIT_ERROR),
    ((ValueError, OSError, sqlite3.Error), "error: {}", True, EXIT_ERROR),
)

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _to_bool(value) -> bool:
    """Strict: a config line `insecure_toy_group = false` must not read as true."""
    if isinstance(value, bool):
        return value
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLEANS)}, got {value!r}") from None


@dataclass
class ClientConfig:
    identity: str = ""
    keystore: str = "pakemail.keystore"
    transport: str = "loopback"
    group: str = "production"
    max_failed_attempts: int = 3
    timeout: float = 30.0
    insecure_toy_group: bool = False

    # keys read from PAKEMAIL_<KEY>; insecure_toy_group is left out on purpose,
    # so the toy group takes a config line or the flag
    _ENV_KEYS = ("identity", "keystore", "transport", "group",
                 "max_failed_attempts", "timeout")

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "ClientConfig":
        """Config file `key = value` lines, environment variables
        (PAKEMAIL_<KEY>) override the file, CLI flags override both."""
        cfg = cls()
        if path:
            for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                cfg._set(key.strip(), value.strip())
        for name in cls._ENV_KEYS:
            env = os.environ.get(f"PAKEMAIL_{name.upper()}")
            if env is not None:
                cfg._set(name, env)
        for key, value in overrides.items():
            if value is not None:
                cfg._set(key, value)
        return cfg

    def _set(self, key: str, value) -> None:
        """Set ``key`` from a string (file, environment) or a parsed flag,
        converted by the field's declared type."""
        key = key.replace("-", "_")
        kind = typing.get_type_hints(ClientConfig).get(key)
        if kind is None:
            raise ValueError(f"unknown config key {key!r}")
        try:
            setattr(self, key, _to_bool(value) if kind is bool else kind(value))
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None


def _build_backend(config: ClientConfig):
    spec = config.transport
    if spec == "loopback":
        return LoopbackTransport()
    if spec.startswith("maildir:"):
        return MaildirTransport(spec.split(":", 1)[1])
    if spec == "imap-smtp":
        return ImapSmtpTransport(MailAccountConfig.from_env())
    if spec.startswith("relay:"):
        host, _, port = spec[len("relay:"):].rpartition(":")
        if not host:
            raise ValueError(f"relay transport needs relay:HOST:PORT, got {spec!r}")
        return RelayTransport(host, int(port))
    raise ValueError(f"unknown transport {spec!r}")


def _keystore(config: ClientConfig, create: bool = False) -> Keystore:
    """The configured keystore; a missing one is made only if ``create``."""
    if not create and not Path(config.keystore).is_file():
        raise ValueError(f"no keystore at {config.keystore}")
    return Keystore(config.keystore, config.identity.encode() if config.identity else None)


@contextmanager
def _session(config: ClientConfig, create: bool = False) -> typing.Iterator[SessionManager]:
    """The configured manager; its backend is closed however the command ends."""
    if not config.identity:
        raise ValueError("no identity configured (set identity in config or PAKEMAIL_IDENTITY)")
    if config.group == "toy" and not config.insecure_toy_group:
        raise ValueError("the toy group is brute-forceable; pass --insecure-toy-group to use it")
    keystore = _keystore(config, create)
    policy = AttemptPolicy(max_failed_attempts=config.max_failed_attempts,
                           timeout=config.timeout)
    manager = SessionManager(keystore, _build_backend(config), get_group(config.group), policy)
    try:
        yield manager
    finally:
        manager.backend.close()


def _read_password() -> bytes:
    print("Enter the shared secret. Never send the secret itself over email "
          "or any in-band channel.", file=sys.stderr)
    return getpass.getpass("secret: ").encode()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_auth(args, config: ClientConfig) -> int:
    role = Role(args.role) if args.role else None
    with _session(config, create=True) as manager:  # the only command that makes a keystore
        password = _read_password()
        result = manager.authenticate(args.peer.encode(), password, role)
    verdict, code = _OUTCOMES[result.outcome]
    print(verdict)
    if result.outcome is Outcome.SUCCESS:
        record = manager.keystore.peer(args.peer.encode())
        words = analysis.trustwords(manager.keystore.self_fingerprint,
                                    record.fingerprint, analysis.Wordlist.synthetic())
        print(f"peer fingerprint: {record.fingerprint.hex}")
        print("trustwords: " + " ".join(words))
    return code


def cmd_renew(args, config: ClientConfig) -> int:
    role = Role(args.role) if args.role else None
    with _session(config) as manager:
        result = manager.reauthenticate_chained(args.peer.encode(), role)
    verdict, code = _OUTCOMES[result.outcome]
    print(verdict)
    if result.fallback_to_manual:
        print("chained keys diverged; fall back to manual `pakemail auth`")
    return code


def cmd_attack_cost(args, config: ClientConfig) -> int:
    if args.published_cases:
        rows = analysis.published_cases()
    else:
        params = analysis.AttackParams(b=args.b, r=args.r, u=args.u, p=args.p)
        rows = [(params, analysis.effort(params))]
    print(f"{'b':>4} {'r':>4} {'u':>4} {'p':>6} {'1-q':>12} {'log2(e)':>9}")
    for params, log2_e in rows:
        one_minus_q = float(1 - analysis.q_no_preimage(params))
        print(f"{params.b:>4} {params.r:>4} {params.u:>4} {params.p:>6.3f} "
              f"{one_minus_q:>12.4e} {log2_e:>9.2f}")
    return EXIT_OK


def cmd_trustwords(args, config: ClientConfig) -> int:
    wordlist = (analysis.Wordlist.from_file(args.wordlist)
                if args.wordlist else analysis.Wordlist.synthetic())
    words = analysis.trustwords(Fingerprint.from_hex(args.fpr_self),
                                Fingerprint.from_hex(args.fpr_peer),
                                wordlist, count=args.count)
    print(" ".join(words))
    return EXIT_OK


def cmd_relay_serve(args, config: ClientConfig) -> int:
    host, _, port = args.listen.rpartition(":")
    store = relay.MailboxStore(args.persist)
    server = relay.RelayServer((host or "127.0.0.1", int(port)), store)
    print(f"relay listening on {server.address[0]}:{server.address[1]}")
    server.start()
    try:
        server._thread.join()
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def cmd_send(args, config: ClientConfig) -> int:
    with _session(config) as manager:
        manager.send_sealed(args.peer.encode(), args.message.encode())
    print("sent")
    return EXIT_OK


def cmd_recv(args, config: ClientConfig) -> int:
    with _session(config) as manager:
        messages = manager.recv_sealed(timeout=args.wait)
    for sender, plaintext in messages:
        print(f"{sender.decode(errors='replace')}: {plaintext.decode(errors='replace')}")
    return EXIT_OK


def cmd_status(args, config: ClientConfig) -> int:
    keystore = _keystore(config)
    print(f"identity: {keystore.self_identity.decode(errors='replace')}")
    print(f"own fingerprint: {keystore.self_fingerprint.hex}")
    print("peers:")
    for record in keystore.peers.values():
        fpr = record.fingerprint.hex if record.fingerprint else "-"
        print(f"  {record.identity.decode(errors='replace')} "
              f"authenticated={record.authenticated} failed_attempts={record.failed_attempts} "
              f"fpr={fpr}")
    print("exchanges:")
    for rec in keystore.exchanges:
        print(f"  {rec.exchange_id.hex()} peer={rec.peer.decode(errors='replace')} "
              f"role={rec.role.value} outcome={rec.outcome.value}")
    return EXIT_OK


def cmd_unlock(args, config: ClientConfig) -> int:
    keystore = _keystore(config)
    peer = args.peer.encode()
    if peer not in keystore.peers:  # Keystore.peer would add a record for it
        raise ManagerError(f"no record of {args.peer!r} in {config.keystore}; nothing to unlock")
    failed = keystore.peers[peer].failed_attempts
    keystore.reset_attempts(peer)
    print(f"unlocked {args.peer}: {failed} failed attempts cleared")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pakemail")
    parser.add_argument("--config", help="path to a `key = value` config file")
    parser.add_argument("--identity", help="own identity (e.g. an email address)")
    parser.add_argument("--keystore", help="keystore file path")
    parser.add_argument("--transport",
                        help="loopback | maildir:PATH | imap-smtp | relay:HOST:PORT")
    parser.add_argument("--group", choices=["production", "toy"])
    parser.add_argument("--insecure-toy-group", action="store_true", default=None,
                        help="allow the brute-forceable test group")
    parser.add_argument("--timeout", type=float, help="exchange timeout in seconds")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("auth", help="authenticate a peer with a shared secret")
    p.add_argument("peer")
    p.add_argument("--role", choices=["initiator", "responder"])
    p.set_defaults(func=cmd_auth)

    p = sub.add_parser("renew", help="re-authenticate using the stored chained key")
    p.add_argument("peer")
    p.add_argument("--role", choices=["initiator", "responder"])
    p.set_defaults(func=cmd_renew)

    p = sub.add_parser("attack-cost", help="partial-preimage brute-force cost estimate")
    p.add_argument("--published-cases", action="store_true",
                   help="print the two published five-word checking patterns")
    p.add_argument("-b", type=int, default=80, help="fingerprint bits")
    p.add_argument("-r", type=int, default=16, help="boundary bits checked at each end")
    p.add_argument("-u", type=int, default=32, help="middle bits checked")
    p.add_argument("-p", type=float, default=0.5, help="target success probability")
    p.set_defaults(func=cmd_attack_cost)

    p = sub.add_parser("trustwords", help="render the XOR of two fingerprints as words")
    p.add_argument("fpr_self", help="own fingerprint, 40 hex chars")
    p.add_argument("fpr_peer", help="peer fingerprint, 40 hex chars")
    p.add_argument("--count", type=int, default=5, choices=[5, 10])
    p.add_argument("--wordlist", help="newline-delimited 65536-word file")
    p.set_defaults(func=cmd_trustwords)

    p = sub.add_parser("relay-serve", help="run an untrusted relay server")
    p.add_argument("--listen", default="127.0.0.1:7953", help="HOST:PORT to bind")
    p.add_argument("--persist", help="append-only log file for mailbox persistence")
    p.set_defaults(func=cmd_relay_serve)

    p = sub.add_parser("send", help="send an encrypted message to an authenticated peer")
    p.add_argument("peer")
    p.add_argument("message")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="receive encrypted messages")
    p.add_argument("--wait", type=float, default=2.0, help="seconds to wait")
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("status", help="dump peers and exchange history")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("unlock", help="operator override: clear a peer's failed attempts")
    p.add_argument("peer")
    p.set_defaults(func=cmd_unlock)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in (
        "identity", "keystore", "transport", "group", "timeout", "insecure_toy_group")}
    try:
        return args.func(args, ClientConfig.load(args.config, overrides))
    except Exception as exc:
        for kind, report, to_stderr, code in _FAILURES:
            if isinstance(exc, kind):
                print(report.format(exc), file=sys.stderr if to_stderr else sys.stdout)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
