import secrets

import pytest
from hypothesis import given, strategies as st

from pakemail.confirm import Fingerprint
from pakemail.transport import (
    EnvelopeError,
    LoopbackTransport,
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
