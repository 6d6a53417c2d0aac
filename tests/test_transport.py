import email
import imaplib
import secrets
import smtplib
import threading

import pytest
from hypothesis import given, strategies as st

from pakemail.confirm import Fingerprint
from pakemail.transport import (
    EnvelopeError,
    ImapSmtpTransport,
    LoopbackTransport,
    MailAccountConfig,
    MaildirTransport,
    NotPakeMailMessage,
    RelayTransport,
    TransportEnvelope,
    TransportError,
    decode_email,
    encode_email,
    fresh_exchange_id,
)


def env(flow=0, sender=b"a@x", recipient=b"b@x", payload=b"payload",
        exchange_id=None, with_fpr=None):
    if with_fpr is None:
        with_fpr = flow in (0, 1)
    return TransportEnvelope(
        exchange_id=exchange_id or fresh_exchange_id(),
        flow=flow,
        sender=sender,
        recipient=recipient,
        payload=payload,
        fingerprint=Fingerprint(secrets.token_bytes(20)) if with_fpr else None,
    )


def test_envelope_validation():
    with pytest.raises(EnvelopeError):
        env(exchange_id=b"short")
    with pytest.raises(EnvelopeError):
        env(flow=7)
    with pytest.raises(EnvelopeError):
        env(sender=b"")


def test_envelope_bytes_roundtrip():
    for flow in (0, 1, 2, 3, 9):
        e = env(flow=flow)
        assert TransportEnvelope.from_bytes(e.to_bytes()) == e


@given(st.binary(min_size=1, max_size=40), st.binary(min_size=0, max_size=200))
def test_envelope_roundtrip_property(sender, payload):
    e = TransportEnvelope(fresh_exchange_id(), 2, sender, b"b@x", payload)
    assert TransportEnvelope.from_bytes(e.to_bytes()) == e


def test_envelope_rejects_garbage():
    with pytest.raises(EnvelopeError):
        TransportEnvelope.from_bytes(b"NOPE" + bytes(30))
    good = env().to_bytes()
    with pytest.raises(EnvelopeError):
        TransportEnvelope.from_bytes(good[:-3])
    with pytest.raises(EnvelopeError):
        TransportEnvelope.from_bytes(good + b"\x00")


def test_loopback_roundtrip():
    backend = LoopbackTransport()
    e = env()
    backend.send(e)
    assert backend.poll(b"b@x") == [e]
    assert backend.poll(b"b@x") == []  # consumed
    assert backend.poll(b"nobody") == []


def test_loopback_interleaved_sessions():
    backend = LoopbackTransport()
    e1, e2 = env(), env()
    backend.send(e1)
    backend.send(e2)
    got = backend.poll(b"b@x")
    assert {g.exchange_id for g in got} == {e1.exchange_id, e2.exchange_id}


# ---------------------------------------------------------------------------
# Email encoding
# ---------------------------------------------------------------------------

def test_loopback_wait_wakes_on_delivery():
    backend = LoopbackTransport()
    waiter = threading.Thread(target=backend.wait, args=(b"b@x", 30))
    waiter.start()
    backend.send(env(recipient=b"c@x"))  # mail for someone else does not release it
    waiter.join(0.2)
    assert waiter.is_alive()
    backend.send(env(recipient=b"b@x"))
    waiter.join(5)
    assert not waiter.is_alive()
    backend.wait(b"b@x", 30)  # mail already there: no wait at all
    assert len(backend.poll(b"b@x")) == 1  # waiting takes nothing out


def test_loopback_wait_without_mail_returns_after_its_timeout():
    backend = LoopbackTransport()
    waiter = threading.Thread(target=backend.wait, args=(b"b@x", 0.01))
    waiter.start()
    waiter.join(5)
    assert not waiter.is_alive()
    assert backend.poll(b"b@x") == []


def test_email_roundtrip():
    for flow in (0, 1, 2, 3, 9):
        e = env(flow=flow, payload=secrets.token_bytes(64))
        decoded = decode_email(encode_email(e))
        assert decoded == e


def test_email_subject_grammar():
    e = env(flow=1)
    raw = encode_email(e).decode()
    assert f"Subject: PAKEMAIL {e.exchange_id.hex()} 1" in raw
    assert f"X-PakeMail-Fpr: {e.fingerprint.hex}" in raw
    assert "pakemail.bin" in raw


def test_ordinary_email_is_not_pakemail():
    raw = b"Subject: lunch plans\r\nFrom: a@x\r\nTo: b@x\r\n\r\nhello"
    with pytest.raises(NotPakeMailMessage):
        decode_email(raw)


def test_bad_flow_in_subject_rejected():
    e = env()
    subject = f"Subject: PAKEMAIL {e.exchange_id.hex()} {e.flow}".encode()
    raw = encode_email(e)
    assert raw.count(subject) == 1
    raw = raw.replace(subject, subject[:-1] + b"7")
    with pytest.raises(EnvelopeError):
        decode_email(raw)


# ---------------------------------------------------------------------------
# Maildir
# ---------------------------------------------------------------------------

def test_maildir_roundtrip(tmp_path):
    backend = MaildirTransport(tmp_path)
    e = env()
    backend.send(e)
    boxes = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(boxes) == 1
    new_files = list((boxes[0] / "new").iterdir())
    assert len(new_files) == 1
    assert decode_email(new_files[0].read_bytes()) == e
    assert backend.poll(b"b@x") == [e]
    # message moved to cur with seen flag, not reprocessed
    assert backend.poll(b"b@x") == []
    assert list((boxes[0] / "new").iterdir()) == []
    assert len(list((boxes[0] / "cur").iterdir())) == 1


def test_maildir_skips_malformed_alongside_valid(tmp_path, caplog):
    backend = MaildirTransport(tmp_path)
    e = env()
    backend.send(e)
    box = next(p for p in tmp_path.iterdir() if p.is_dir())
    (box / "new" / "0.corrupt").write_bytes(
        b"Subject: PAKEMAIL " + e.exchange_id.hex().encode() + b" 0\r\n\r\nno attachment")
    with caplog.at_level("WARNING"):
        got = backend.poll(b"b@x")
    assert got == [e]
    assert any("malformed" in rec.message for rec in caplog.records)


def test_maildir_ignores_ordinary_mail(tmp_path):
    backend = MaildirTransport(tmp_path)
    backend.send(env())  # creates the mailbox
    box = next(p for p in tmp_path.iterdir() if p.is_dir())
    (box / "new" / "1.ordinary").write_bytes(b"Subject: hi\r\n\r\nhello")
    got = backend.poll(b"b@x")
    assert len(got) == 1  # only the real envelope


def test_relay_transport_unreachable():
    backend = RelayTransport("127.0.0.1", 1)  # nothing listens there
    with pytest.raises(TransportError):
        backend.send(env())
    with pytest.raises(TransportError):
        backend.poll(b"b@x")


# ---------------------------------------------------------------------------
# Known-answer envelopes: magic | exchange id | flow | 4-byte length + field
# for sender, recipient, fingerprint (empty when absent) and payload
# ---------------------------------------------------------------------------

KNOWN_ENVELOPES = [
    (TransportEnvelope(bytes(range(16)), 0, b"a@x", b"b@x", bytes.fromhex("02000000"),
                       Fingerprint(bytes(range(0xa0, 0xb4)))),
     "504b4d4c31" "000102030405060708090a0b0c0d0e0f" "00" "00000003614078" "00000003624078"
     "00000014a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3" "0000000402000000"),
    (TransportEnvelope(bytes(range(16)), 3, b"a@x", b"b@x", b"tag"),
     "504b4d4c31" "000102030405060708090a0b0c0d0e0f" "03" "00000003614078" "00000003624078"
     "00000000" "00000003746167"),
]


@pytest.mark.parametrize("envelope, wire_hex", KNOWN_ENVELOPES, ids=["fingerprint", "none"])
def test_envelope_known_answers(envelope, wire_hex):
    assert envelope.to_bytes() == bytes.fromhex(wire_hex)
    assert TransportEnvelope.from_bytes(bytes.fromhex(wire_hex)) == envelope


# ---------------------------------------------------------------------------
# IMAP/SMTP against in-process fakes of smtplib.SMTP_SSL and imaplib.IMAP4_SSL
# ---------------------------------------------------------------------------

ACCOUNT = MailAccountConfig("smtp.example", 465, "imap.example", 993, "b@x", "app-password")


class FakeMailbox:
    """One account's mail: [raw message, seen] pairs, plus the logins made."""

    def __init__(self):
        self.messages = []
        self.logins = []

    def deliver(self, raw: bytes):
        self.messages.append([raw, False])


class FakeSMTP:
    def __init__(self, mailbox, host, port):
        self.mailbox, self.address = mailbox, (host, port)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def login(self, user, password):
        self.mailbox.logins.append(("smtp", self.address, user, password))

    def sendmail(self, from_addr, to_addrs, msg):
        assert (from_addr, to_addrs) == ("a@x", ["b@x"])
        self.mailbox.deliver(msg)


class FakeIMAP(FakeSMTP):
    def login(self, user, password):
        self.mailbox.logins.append(("imap", self.address, user, password))

    def select(self, box):
        assert box == "INBOX"
        return "OK", [str(len(self.mailbox.messages)).encode()]

    def search(self, charset, *criteria):
        assert criteria == ("UNSEEN", 'SUBJECT "PAKEMAIL"')
        hits = [str(n).encode() for n, (raw, seen) in enumerate(self.mailbox.messages, 1)
                if not seen and "PAKEMAIL" in email.message_from_bytes(raw)["Subject"].upper()]
        return "OK", [b" ".join(hits)]

    def fetch(self, num, parts):
        assert parts == "(RFC822)"
        raw = self.mailbox.messages[int(num) - 1][0]
        return "OK", [(num + b" (RFC822 {%d}" % len(raw), raw), b")"]

    def store(self, num, command, flags):
        assert (command, flags) == ("+FLAGS", "\\Seen")
        self.mailbox.messages[int(num) - 1][1] = True
        return "OK", [num]


@pytest.fixture
def mailbox(monkeypatch):
    box = FakeMailbox()
    monkeypatch.setattr(smtplib, "SMTP_SSL", lambda host, port: FakeSMTP(box, host, port))
    monkeypatch.setattr(imaplib, "IMAP4_SSL", lambda host, port: FakeIMAP(box, host, port))
    return box


def test_imap_smtp_send_then_poll(mailbox):
    backend = ImapSmtpTransport(ACCOUNT)
    e = env(payload=secrets.token_bytes(48))
    backend.send(e)
    assert len(mailbox.messages) == 1
    assert decode_email(mailbox.messages[0][0]) == e
    assert backend.poll(b"b@x") == [e]
    assert mailbox.messages[0][1]  # marked \Seen
    assert backend.poll(b"b@x") == []
    assert mailbox.logins == [
        ("smtp", ("smtp.example", 465), "b@x", "app-password"),
        ("imap", ("imap.example", 993), "b@x", "app-password"),
        ("imap", ("imap.example", 993), "b@x", "app-password"),
    ]


def test_imap_poll_returns_only_envelopes_and_marks_the_rest_seen(mailbox):
    e = env()
    mailbox.deliver(b"Subject: Re: PAKEMAIL setup\r\nFrom: c@x\r\nTo: b@x\r\n\r\nlunch?")
    mailbox.deliver(b"Subject: PAKEMAIL " + e.exchange_id.hex().encode()
                    + b" 0\r\nFrom: a@x\r\nTo: b@x\r\n\r\nno attachment")
    mailbox.deliver(encode_email(e))
    mailbox.deliver(b"Subject: unrelated\r\n\r\nhello")
    assert ImapSmtpTransport(ACCOUNT).poll(b"b@x") == [e]
    assert [seen for _, seen in mailbox.messages] == [True, True, True, False]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, exc", [
    ("smtp-connect", ConnectionRefusedError("refused")),
    ("smtp-login", smtplib.SMTPAuthenticationError(535, b"bad credentials")),
    ("imap-connect", OSError("network unreachable")),
    ("imap-login", imaplib.IMAP4.error("LOGIN failed")),
])
def test_imap_smtp_failures_become_transport_errors(mailbox, monkeypatch, target, exc):
    patched = {"smtp-connect": (smtplib, "SMTP_SSL"), "smtp-login": (FakeSMTP, "login"),
               "imap-connect": (imaplib, "IMAP4_SSL"), "imap-login": (FakeIMAP, "login")}
    monkeypatch.setattr(*patched[target], _raise(exc))
    backend = ImapSmtpTransport(ACCOUNT)
    with pytest.raises(TransportError):
        if target.startswith("smtp"):
            backend.send(env())
        else:
            backend.poll(b"b@x")


MAIL_ENV = {"PAKEMAIL_SMTP_HOST": "smtp.example", "PAKEMAIL_IMAP_HOST": "imap.example",
            "PAKEMAIL_SMTP_USER": "b@x", "PAKEMAIL_SMTP_PASSWORD": "app-password"}


@pytest.mark.parametrize("missing", sorted(MAIL_ENV))
def test_mail_config_from_env_names_a_missing_variable(monkeypatch, missing):
    for name, value in MAIL_ENV.items():
        monkeypatch.setenv(name, value)
    monkeypatch.delenv(missing)
    with pytest.raises(TransportError, match=missing):
        MailAccountConfig.from_env()
