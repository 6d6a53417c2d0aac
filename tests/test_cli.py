import threading

import pytest

from pakemail import cli
from pakemail.cli import (
    EXIT_ERROR,
    EXIT_LOCKOUT,
    EXIT_MISMATCH,
    EXIT_NO_ATTACK_SURFACE,
    EXIT_NO_CHAIN,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_TRANSPORT,
    ClientConfig,
    main,
)
from pakemail.manager import Keystore, LockedOutError, ManagerError, NoChainError, SessionManager
from pakemail.relay import RelayServer
from pakemail.transport import (
    ImapSmtpTransport,
    LoopbackTransport,
    MailAccountConfig,
    TransportError,
)


# ---------------------------------------------------------------------------
# Configuration layering
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = ClientConfig.load(None, {})
    assert cfg.transport == "loopback"
    assert cfg.group == "production"
    assert cfg.max_failed_attempts == 3


def test_config_file_env_flag_precedence(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("# comment\nidentity = file@x\ntimeout = 7\nkeystore = from-file.ks\n")
    monkeypatch.setenv("PAKEMAIL_TIMEOUT", "11")
    cfg = ClientConfig.load(str(path), {"keystore": "from-flag.ks", "timeout": None})
    assert cfg.identity == "file@x"        # file only
    assert cfg.timeout == 11.0             # env beats file
    assert cfg.keystore == "from-flag.ks"  # flag beats both


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("no_such_option = 1\n")
    with pytest.raises(ValueError):
        ClientConfig.load(str(path), {})


def test_config_rejects_bad_syntax(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        ClientConfig.load(str(path), {})


@pytest.mark.parametrize("spec, host, port", [
    ("relay:127.0.0.1:7000", "127.0.0.1", 7000),
    ("relay:::1:7000", "::1", 7000),
    ("relay:relay.example:25", "relay.example", 25),
])
def test_relay_spec_host_and_port(spec, host, port):
    backend = cli._build_backend(ClientConfig(transport=spec))
    assert (backend.host, backend.port) == (host, port)


def test_relay_spec_without_host_rejected():
    with pytest.raises(ValueError):
        cli._build_backend(ClientConfig(transport="relay:7000"))


def test_imap_smtp_spec_builds_the_mail_backend(monkeypatch):
    for name, value in {"PAKEMAIL_SMTP_HOST": "smtp.example", "PAKEMAIL_IMAP_HOST": "imap.example",
                        "PAKEMAIL_IMAP_PORT": "1993", "PAKEMAIL_SMTP_USER": "a@x",
                        "PAKEMAIL_SMTP_PASSWORD": "app-password"}.items():
        monkeypatch.setenv(name, value)
    monkeypatch.delenv("PAKEMAIL_SMTP_PORT", raising=False)
    backend = cli._build_backend(ClientConfig(transport="imap-smtp"))
    assert isinstance(backend, ImapSmtpTransport)
    assert backend.config == MailAccountConfig("smtp.example", 465, "imap.example", 1993,
                                               "a@x", "app-password")


# ---------------------------------------------------------------------------
# Commands via main(argv)
# ---------------------------------------------------------------------------

def _argv(tmp_path, *rest, identity="a@x"):
    return ["--identity", identity, "--keystore", str(tmp_path / f"{identity}.ks"),
            *rest]


def _new_keystore(tmp_path, identity="a@x"):
    """The keystore `pakemail auth` would have made before any other command."""
    Keystore(tmp_path / f"{identity}.ks", identity.encode())


def test_attack_cost_published_cases(capsys):
    assert main(["attack-cost", "--published-cases"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "37.56" in out and "31.48" in out


def test_attack_cost_custom_parameters(capsys):
    assert main(["attack-cost", "-b", "80", "-r", "16", "-u", "32"]) == EXIT_OK
    assert "37.56" in capsys.readouterr().out


def test_attack_cost_no_surface(capsys):
    assert main(["attack-cost", "-b", "80", "-r", "16", "-u", "48"]) == EXIT_NO_ATTACK_SURFACE
    assert "no attack surface" in capsys.readouterr().out


def test_attack_cost_invalid_params():
    assert main(["attack-cost", "-b", "10", "-r", "20", "-u", "0"]) == EXIT_ERROR


def test_trustwords_command(capsys):
    fpr = "00" * 20
    assert main(["trustwords", fpr, fpr]) == EXIT_OK
    words = capsys.readouterr().out.split()
    assert len(words) == 5
    assert len(set(words)) == 1


def test_trustwords_bad_hex():
    assert main(["trustwords", "zz", "00" * 20]) == EXIT_ERROR


def test_toy_group_refused_without_flag(tmp_path, capsys):
    rc = main(_argv(tmp_path, "--group", "toy", "send", "b@x", "hi"))
    assert rc == EXIT_ERROR
    assert "brute-forceable" in capsys.readouterr().err


def test_send_refused_before_auth(tmp_path, capsys):
    _new_keystore(tmp_path)
    rc = main(_argv(tmp_path, "send", "b@x", "hi"))
    assert rc == EXIT_ERROR
    assert "refuse" in capsys.readouterr().out


def test_status_new_keystore(tmp_path, capsys):
    _new_keystore(tmp_path)
    assert main(_argv(tmp_path, "status")) == EXIT_OK
    out = capsys.readouterr().out
    assert "identity: a@x" in out
    assert "own fingerprint:" in out


def test_renew_without_chain(tmp_path):
    _new_keystore(tmp_path)
    assert main(_argv(tmp_path, "renew", "b@x")) == EXIT_NO_CHAIN


def test_missing_identity_is_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PAKEMAIL_IDENTITY", raising=False)
    rc = main(["--keystore", str(tmp_path / "x.ks"), "send", "b@x", "hi"])
    assert rc == EXIT_ERROR
    assert "identity" in capsys.readouterr().err


def test_auth_timeout_over_dead_loopback(tmp_path, monkeypatch):
    # nobody answers on a fresh loopback: timeout exit, password read via prompt
    monkeypatch.setattr(cli, "_read_password", lambda: b"pw")
    rc = main(_argv(tmp_path, "--group", "toy", "--insecure-toy-group",
                    "--timeout", "0.1", "auth", "b@x"))
    assert rc == EXIT_TIMEOUT


def _relay_auth(tmp_path, srv, identity, peer, password, results, monkeypatch_target):
    argv = ["--identity", identity, "--keystore", str(tmp_path / f"{identity}.ks"),
            "--transport", f"relay:{srv.address[0]}:{srv.address[1]}",
            "--group", "toy", "--insecure-toy-group", "--timeout", "10",
            "auth", peer]
    results[identity] = main(argv)


def test_auth_end_to_end_over_relay(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_read_password", lambda: b"pw")
    results = {}
    with RelayServer() as srv:
        ta = threading.Thread(target=_relay_auth,
                              args=(tmp_path, srv, "a@x", "b@x", b"pw", results, None))
        tb = threading.Thread(target=_relay_auth,
                              args=(tmp_path, srv, "b@x", "a@x", b"pw", results, None))
        ta.start(); tb.start(); ta.join(); tb.join()
    assert results == {"a@x": EXIT_OK, "b@x": EXIT_OK}
    out = capsys.readouterr().out
    assert "SUCCESS" in out
    assert "trustwords:" in out


def test_auth_mismatch_exit_code_over_relay(tmp_path, monkeypatch):
    passwords = iter([b"right", b"wrong"])
    lock = threading.Lock()

    def next_password():
        with lock:
            return next(passwords)

    monkeypatch.setattr(cli, "_read_password", next_password)
    results = {}
    with RelayServer() as srv:
        ta = threading.Thread(target=_relay_auth,
                              args=(tmp_path, srv, "a@x", "b@x", None, results, None))
        tb = threading.Thread(target=_relay_auth,
                              args=(tmp_path, srv, "b@x", "a@x", None, results, None))
        ta.start(); tb.start(); ta.join(); tb.join()
    assert results == {"a@x": EXIT_MISMATCH, "b@x": EXIT_MISMATCH}


def test_password_not_in_argv_surface():
    # the parser has no flag that would accept a password on the command line
    parser = cli.build_parser()
    for action in parser._actions:
        for opt in action.option_strings:
            assert "password" not in opt and "secret" not in opt


# ---------------------------------------------------------------------------
# Typed settings, the failure table and the operator override
# ---------------------------------------------------------------------------

def _toy_config(tmp_path, value):
    path = tmp_path / "cfg"
    path.write_text(f"group = toy\ninsecure_toy_group = {value}\n")
    return str(path)


@pytest.mark.parametrize("value", ["false", "0", "no", "False", "off"])
def test_config_false_keeps_the_toy_group_refused(tmp_path, capsys, value):
    rc = main(["--config", _toy_config(tmp_path, value), *_argv(tmp_path, "send", "b@x", "hi")])
    assert rc == EXIT_ERROR
    assert "brute-forceable" in capsys.readouterr().err


def test_config_rejects_a_bad_boolean(tmp_path, capsys):
    with pytest.raises(ValueError, match="insecure_toy_group"):
        ClientConfig.load(_toy_config(tmp_path, "maybe"), {})
    rc = main(["--config", _toy_config(tmp_path, "maybe"), *_argv(tmp_path, "send", "b@x", "hi")])
    assert rc == EXIT_ERROR
    assert "bad value for insecure_toy_group" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "flag"])
def test_toy_group_allowed_by_file_true_or_flag(tmp_path, capsys, source):
    if source == "file":
        argv = ["--config", _toy_config(tmp_path, "true")]
    else:
        argv = ["--group", "toy", "--insecure-toy-group"]
    # past the group check: the send itself is refused, the peer is unknown
    _new_keystore(tmp_path)
    assert main([*argv, *_argv(tmp_path, "send", "b@x", "hi")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "refuse" in captured.out and captured.err == ""


def test_toy_group_opt_in_is_not_read_from_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAKEMAIL_INSECURE_TOY_GROUP", "true")
    assert main(_argv(tmp_path, "--group", "toy", "send", "b@x", "hi")) == EXIT_ERROR
    assert "brute-forceable" in capsys.readouterr().err


def _lock_out(tmp_path):
    # a@x has a chain with b@x and has reached the default three failed attempts
    keystore = Keystore(tmp_path / "a@x.ks", b"a@x")
    record = keystore.peer(b"b@x")
    record.authenticated, record.chained_key = True, bytes(32)
    record.failed_attempts = 3
    keystore.save()


def test_renew_against_a_locked_out_peer(tmp_path, capsys):
    _lock_out(tmp_path)
    assert main(_argv(tmp_path, "renew", "b@x")) == EXIT_LOCKOUT
    captured = capsys.readouterr()
    assert captured.out.startswith("FAILURE:") and captured.err == ""


def test_unlock_clears_a_lockout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_read_password", lambda: b"pw")
    _lock_out(tmp_path)
    assert main(_argv(tmp_path, "auth", "b@x")) == EXIT_LOCKOUT
    assert "pakemail unlock" in capsys.readouterr().out
    assert main(_argv(tmp_path, "unlock", "b@x")) == EXIT_OK
    assert "3 failed attempts cleared" in capsys.readouterr().out
    assert main(_argv(tmp_path, "status")) == EXIT_OK
    assert "b@x authenticated=True failed_attempts=0" in capsys.readouterr().out
    # nobody answers on a fresh loopback, but the exchange now runs
    assert main(_argv(tmp_path, "--timeout", "0.1", "auth", "b@x")) == EXIT_TIMEOUT


def test_unlock_refuses_an_unknown_peer(tmp_path, capsys):
    _lock_out(tmp_path)
    assert main(_argv(tmp_path, "unlock", "c@x")) == EXIT_ERROR
    assert "nothing to unlock" in capsys.readouterr().out
    assert set(Keystore(tmp_path / "a@x.ks").peers) == {b"b@x"}
    # a mistyped keystore path is refused, not created
    assert main(_argv(tmp_path, "unlock", "b@x", identity="typo@x")) == EXIT_ERROR
    assert "no keystore" in capsys.readouterr().err
    assert not (tmp_path / "typo@x.ks").exists()


_COMMANDS = {
    "auth": ("authenticate", ["auth", "b@x"]),
    "renew": ("reauthenticate_chained", ["renew", "b@x"]),
    "send": ("send_sealed", ["send", "b@x", "hi"]),
    "recv": ("recv_sealed", ["recv"]),
}
_FAILURES = [
    (LockedOutError("locked"), EXIT_LOCKOUT, "FAILURE: locked"),
    (NoChainError("no chain"), EXIT_NO_CHAIN, "FAILURE: no chain"),
    (TransportError("down"), EXIT_TRANSPORT, "FAILURE: transport: down"),
    (ManagerError("nope"), EXIT_ERROR, "refused: nope"),
]


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("exc, code, report", _FAILURES,
                         ids=[type(f[0]).__name__ for f in _FAILURES])
def test_every_command_reports_a_failure_alike(tmp_path, capsys, monkeypatch,
                                                command, exc, code, report):
    method, argv = _COMMANDS[command]

    def fail(*args, **kwargs):
        raise exc

    closed = []
    monkeypatch.setattr(cli, "_read_password", lambda: b"pw")
    monkeypatch.setattr(SessionManager, method, fail)
    monkeypatch.setattr(LoopbackTransport, "close", lambda self: closed.append(self))
    _new_keystore(tmp_path)
    assert main(_argv(tmp_path, *argv)) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(report) and captured.err == ""
    assert len(closed) == 1


def test_a_keystore_that_will_not_open_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_read_password", lambda: b"pw")
    (tmp_path / "a@x.ks").mkdir()  # the database library cannot open a directory
    assert main(_argv(tmp_path, "auth", "b@x")) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("argv", [["status"], ["send", "b@x", "hi"], ["recv", "--wait", "0"],
                                  ["renew", "b@x"], ["unlock", "b@x"]], ids=lambda a: a[0])
def test_only_auth_creates_a_keystore(tmp_path, capsys, argv):
    # a mistyped --keystore path is refused by every other command, and left absent
    path = tmp_path / "a@x.ks"
    assert main(_argv(tmp_path, *argv)) == EXIT_ERROR
    assert f"no keystore at {path}" in capsys.readouterr().err
    assert not path.exists()
