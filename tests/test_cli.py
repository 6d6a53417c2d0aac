import threading

import pytest

from pakemail import cli
from pakemail.cli import (
    EXIT_ERROR,
    EXIT_MISMATCH,
    EXIT_NO_ATTACK_SURFACE,
    EXIT_NO_CHAIN,
    EXIT_OK,
    EXIT_TIMEOUT,
    ClientConfig,
    main,
)
from pakemail.relay import RelayServer
from pakemail.transport import ImapSmtpTransport, MailAccountConfig


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
    rc = main(_argv(tmp_path, "send", "b@x", "hi"))
    assert rc == EXIT_ERROR
    assert "refuse" in capsys.readouterr().out


def test_status_new_keystore(tmp_path, capsys):
    assert main(_argv(tmp_path, "status")) == EXIT_OK
    out = capsys.readouterr().out
    assert "identity: a@x" in out
    assert "own fingerprint:" in out


def test_renew_without_chain(tmp_path):
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
