import email
import email.policy
import imaplib
import os
import secrets
import smtplib
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pakemail import sealed
from pakemail.confirm import Fingerprint
from pakemail.manager import Keystore, SessionManager
from pakemail.transport import (
    FLOW_DATA,
    EnvelopeError,
    ImapSmtpTransport,
    LoopbackTransport,
    MailAccountConfig,
    MaildirTransport,
    NotPakeMailMessage,
    RelayTransport,
    TransportEnvelope,
    TransportError,
    VALID_FLOWS,
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
    for flow in (3, 7):  # 3 was the responder's separate tag flow
        with pytest.raises(EnvelopeError):
            env(flow=flow)
    with pytest.raises(EnvelopeError):
        env(sender=b"")


def test_envelope_bytes_roundtrip():
    for flow in (0, 1, 2, 9):
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

def test_loopback_wait_wakes_on_delivery(blocking_poll):
    backend = LoopbackTransport()
    waiter, got = blocking_poll(backend, 30)
    backend.send(env(recipient=b"c@x"))  # mail for someone else does not release it
    waiter.join(0.2)
    assert waiter.is_alive()
    e = env(recipient=b"b@x")
    backend.send(e)
    waiter.join(5)
    assert not waiter.is_alive()
    assert got == [e]
    backend.send(e)
    assert backend.poll(b"b@x", 30) == [e]  # mail already there: no wait at all


def test_loopback_wait_without_mail_returns_after_its_timeout(blocking_poll):
    backend = LoopbackTransport()
    waiter, got = blocking_poll(backend, 0.01)
    waiter.join(5)
    assert not waiter.is_alive()
    assert got == []


def test_email_roundtrip():
    for flow in (0, 1, 2, 9):
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
    for flow in (b"3", b"7"):
        with pytest.raises(EnvelopeError):
            decode_email(raw.replace(subject, subject[:-1] + flow))


# a message the EmailMessage-based encoder wrote: mail of that shape may
# already sit in a maildir or an IMAP inbox
EARLIER_ENCODER_MESSAGE = b"".join([
    b'From: a@x\n',
    b'To: b@x\n',
    b'Subject: PAKEMAIL 000102030405060708090a0b0c0d0e0f 0\n',
    b'Date: Sun, 18 Oct 2026 08:10:21 -0000\n',
    b'X-PakeMail-Fpr: a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3\n',
    b'MIME-Version: 1.0\n',
    b'Content-Type: multipart/mixed; boundary="===============8796223139876956312=="\n',
    b'\n',
    b'--===============8796223139876956312==\n',
    b'Content-Type: text/plain; charset="utf-8"\n',
    b'Content-Transfer-Encoding: 7bit\n',
    b'\n',
    b'This message carries authentication data; it is processed automatically.\n',
    b'\n',
    b'--===============8796223139876956312==\n',
    b'Content-Type: application/octet-stream\n',
    b'Content-Transfer-Encoding: base64\n',
    b'Content-Disposition: attachment; filename="pakemail.bin"\n',
    b'MIME-Version: 1.0\n',
    b'\n',
    b'AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8gISIjJCUmJygpKissLS4vMDEyMzQ1Njc4\n',
    b'OTo7\n',
    b'\n',
    b'--===============8796223139876956312==--\n',
])


def test_mail_from_the_earlier_encoder_still_decodes():
    assert decode_email(EARLIER_ENCODER_MESSAGE) == TransportEnvelope(
        bytes(range(16)), 0, b"a@x", b"b@x", bytes(range(60)),
        Fingerprint(bytes(range(0xa0, 0xb4))))


@pytest.mark.parametrize("payload_len", [0, 56, 57, 58, 4096])
def test_encoding_parses_under_the_default_policy(payload_len):
    e = env(flow=1, payload=secrets.token_bytes(payload_len))
    raw = encode_email(e)
    msg = email.message_from_bytes(raw, policy=email.policy.default)
    assert msg.get_content_type() == "multipart/mixed"
    assert (msg["From"], msg["To"]) == ("a@x", "b@x")
    assert msg["X-PakeMail-Fpr"] == e.fingerprint.hex
    assert msg.get_body(("plain",)).get_content().startswith("This message carries")
    attachments = list(msg.iter_attachments())
    assert len(attachments) == 1
    assert attachments[0].get_filename() == "pakemail.bin"
    assert attachments[0].get_content() == e.payload
    assert b"\r" not in raw and max(len(line) for line in raw.split(b"\n")) <= 78


_HEADER_SAFE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), min_size=1,
                       max_size=60).filter(lambda s: s == s.strip())


# 57 bytes fill one 76-character base64 line exactly
_PAYLOADS = st.one_of(st.sampled_from([0, 56, 57, 58]), st.integers(0, 4096)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@given(_HEADER_SAFE, _HEADER_SAFE, st.sampled_from(VALID_FLOWS), st.booleans(), _PAYLOADS)
def test_email_roundtrip_property(sender, recipient, flow, with_fpr, payload):
    e = env(flow=flow, sender=sender.encode(), recipient=recipient.encode(),
            payload=payload, with_fpr=with_fpr)
    assert decode_email(encode_email(e)) == e


def test_longest_header_identity_roundtrips():
    e = env(sender=b"a" * 900, recipient=b"b" * 899 + b"@")
    assert decode_email(encode_email(e)) == e


@pytest.mark.parametrize("identity", [b"jos\xc3\xa9@x", b"a\r\nBcc: c@x", b" a@x ",
                                      b"a@x\t", b"a" * 901],
                         ids=["non-ascii", "crlf", "spaces", "tab", "too-long"])
@pytest.mark.parametrize("field", ["sender", "recipient"])
def test_identities_a_mail_header_cannot_carry_are_refused(tmp_path, identity, field):
    e = env(**{field: identity})
    with pytest.raises(EnvelopeError, match="mail header"):
        encode_email(e)
    with pytest.raises(EnvelopeError):
        MaildirTransport(tmp_path).send(e)
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # nothing delivered


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


def test_maildir_wait_wakes_when_mail_lands(tmp_path, blocking_poll):
    receiver = MaildirTransport(tmp_path)
    waiter, got = blocking_poll(receiver, 30)
    sender = MaildirTransport(tmp_path)  # another transport on the same root
    sender.send(env(recipient=b"c@x"))  # mail for someone else does not release it
    waiter.join(0.2)
    assert waiter.is_alive()
    e = env(recipient=b"b@x")
    sender.send(e)
    waiter.join(5)
    assert not waiter.is_alive()
    assert got == [e]
    sender.send(e)
    assert receiver.poll(b"b@x", 30) == [e]  # mail already there: no wait at all


def _stuck_directory(backend, box, monkeypatch):
    (box / "new" / "0.stuck").mkdir()  # poll cannot read a directory
    assert backend.poll(b"b@x") == []
    return "unreadable"


def _stuck_message(backend, box, monkeypatch):
    e = env()
    backend.send(e)
    stuck = set(os.listdir(box / "new"))
    rename = Path.rename

    def refuse_cur(self, target):
        if self.name in stuck and Path(target).parent.name == "cur":
            raise PermissionError(13, "Permission denied")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", refuse_cur)
    assert backend.poll(b"b@x") == [e]  # read, but not moved to cur
    return "could not move"


@pytest.mark.parametrize("stick", [_stuck_directory, _stuck_message])
def test_maildir_wait_ignores_what_poll_could_not_move(tmp_path, caplog, monkeypatch, stick,
                                                       blocking_poll):
    backend = MaildirTransport(tmp_path)
    backend.poll(b"b@x")  # creates the mailbox
    box = next(p for p in tmp_path.iterdir() if p.is_dir())
    with caplog.at_level("WARNING"):
        warning = stick(backend, box, monkeypatch)
    assert any(warning in rec.message for rec in caplog.records)
    waiter, got = blocking_poll(backend, 30)
    waiter.join(0.2)
    assert waiter.is_alive()
    e = env()
    backend.send(e)  # a new entry still ends the wait
    waiter.join(5)
    assert not waiter.is_alive()
    assert got[-1] == e


def test_maildir_wait_without_mail_returns_after_its_timeout(tmp_path, blocking_poll):
    backend = MaildirTransport(tmp_path)
    waiter, got = blocking_poll(backend, 0.01)
    waiter.join(5)
    assert not waiter.is_alive()
    assert got == []


def test_maildir_creates_a_mailbox_once(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **kw: made.append(self) or mkdir(self, *a, **kw))
    backend = MaildirTransport(tmp_path)
    backend.send(env())
    assert {p.name for p in made} >= {"cur", "new", "tmp"}
    first_use = len(made)
    for _ in range(3):
        assert len(backend.poll(b"b@x")) == 1
        backend.send(env())
    assert len(backend.poll(b"b@x", 0.01)) == 1
    assert len(made) == first_use


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
    (TransportEnvelope(bytes(range(16)), 2, b"a@x", b"b@x", b"tag"),
     "504b4d4c31" "000102030405060708090a0b0c0d0e0f" "02" "00000003614078" "00000003624078"
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


def test_imap_waiting_receiver_logs_in_rarely_and_still_gets_mail(mailbox, tmp_path, toy):
    key = bytes(range(32))
    keystore = Keystore(tmp_path / "b.ks", b"b@x")
    keystore.peer(b"a@x").chained_key = key
    receiver = SessionManager(keystore, ImapSmtpTransport(ACCOUNT), toy)
    message = env(flow=FLOW_DATA, payload=sealed.seal(key, b"hello").to_bytes())
    delivery = threading.Timer(0.1, mailbox.deliver, [encode_email(message)])
    delivery.start()
    try:
        assert receiver.recv_sealed(timeout=1.0) == [(b"a@x", b"hello")]
    finally:
        delivery.join(5)
    assert len([login for login in mailbox.logins if login[0] == "imap"]) <= 2


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
