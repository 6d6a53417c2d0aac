import pytest

from pakemail import confirm, pake
from pakemail.confirm import Fingerprint, derive_bundle, embed_fingerprints_in_secret
from pakemail.pake import Role, StateError

import oracles

FPR_A = Fingerprint(bytes(range(20)))
FPR_B = Fingerprint(bytes(range(20, 40)))
SID = b"sid-bytes"
SK = bytes(range(32))


def test_fingerprint_length_enforced():
    with pytest.raises(ValueError):
        Fingerprint(b"short")
    with pytest.raises(ValueError):
        Fingerprint(b"\x00" * 21)


def test_kdf_matches_library_hkdf():
    # dual route: the cryptography library vs hand-rolled extract-then-expand
    assert confirm._hkdf_96(SK) == oracles.hkdf96(SK)


def test_bundle_deterministic():
    b1 = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    b2 = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    assert b1._keys_for_testing() == b2._keys_for_testing()
    assert b1.tau_self == b2.tau_self


def test_sk_bit_flip_changes_all_keys():
    base = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)._keys_for_testing()
    flipped_sk = bytes([SK[0] ^ 1]) + SK[1:]
    flipped = derive_bundle(flipped_sk, SID, FPR_A, FPR_B, Role.INITIATOR)._keys_for_testing()
    for a, b in zip(base, flipped):
        assert a != b


def test_key_split_pairwise_distinct():
    key, mac_a, mac_b = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)._keys_for_testing()
    assert len({key, mac_a, mac_b}) == 3


def test_roles_share_keys_but_sign_differently():
    ba = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    bb = derive_bundle(SK, SID, FPR_A, FPR_B, Role.RESPONDER)
    assert ba._keys_for_testing() == bb._keys_for_testing()
    assert ba.tau_self != bb.tau_self
    assert len(ba.tau_self) == 32


def test_tags_match_hmac_oracle():
    ba = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    _, mac_a, mac_b = ba._keys_for_testing()
    assert ba.tau_self == oracles.mac_tag(mac_a, FPR_A.bytes, FPR_B.bytes, SID)


def test_honest_verification_releases_same_key():
    ba = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    bb = derive_bundle(SK, SID, FPR_A, FPR_B, Role.RESPONDER)
    ok_a, key_a = ba.verify_peer_tag(bb.tau_self)
    ok_b, key_b = bb.verify_peer_tag(ba.tau_self)
    assert ok_a and ok_b
    assert key_a == key_b is not None


def test_verify_twice_is_state_error():
    ba = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    ba.verify_peer_tag(b"\x00" * 32)
    with pytest.raises(StateError):
        ba.verify_peer_tag(b"\x00" * 32)


def test_failed_verification_withholds_key():
    ba = derive_bundle(SK, SID, FPR_A, FPR_B, Role.INITIATOR)
    ok, key = ba.verify_peer_tag(b"\x00" * 32)
    assert not ok and key is None
    # latched shut: not even the right tag releases K afterwards
    bb = derive_bundle(SK, SID, FPR_A, FPR_B, Role.RESPONDER)
    with pytest.raises(StateError):
        ba.verify_peer_tag(bb.tau_self)


def _full_run(toy, pw_a, pw_b, fpr_b_view_a=FPR_B, fpr_a_view_b=FPR_A,
              sid_suffix=b"s"):
    sa = pake.PakeSession(Role.INITIATOR, b"a@x", b"b@x", pw_a, toy)
    msg_a = sa.start()
    sb = pake.PakeSession(Role.RESPONDER, b"b@x", b"a@x", pw_b, toy)
    msg_b = sb.start()
    sk_a, sk_b = sa.finish(msg_b), sb.finish(msg_a)
    sid_a = sa.transcript() + sid_suffix
    sid_b = sb.transcript() + sid_suffix
    ba = derive_bundle(sk_a, sid_a, FPR_A, fpr_b_view_a, Role.INITIATOR)
    bb = derive_bundle(sk_b, sid_b, fpr_a_view_b, FPR_B, Role.RESPONDER)
    ok_a, key_a = ba.verify_peer_tag(bb.tau_self)
    ok_b, key_b = bb.verify_peer_tag(ba.tau_self)
    return ok_a, ok_b, key_a, key_b


def test_end_to_end_accept(toy):
    ok_a, ok_b, key_a, key_b = _full_run(toy, b"pw", b"pw")
    assert ok_a and ok_b and key_a == key_b


def test_end_to_end_password_mismatch_rejects_exhaustively(toy):
    for pa in range(toy.order):
        for pb in range(toy.order):
            if pa == pb:
                continue
            ok_a, ok_b, key_a, key_b = _full_run(
                toy, oracles.TOY_PASSWORD_BY_PI[pa], oracles.TOY_PASSWORD_BY_PI[pb])
            assert not ok_a and not ok_b
            assert key_a is None and key_b is None


def test_tampered_fingerprint_rejects(toy):
    ok_a, ok_b, _, _ = _full_run(toy, b"pw", b"pw", fpr_b_view_a=FPR_B.flip_bit(13))
    assert not ok_a and not ok_b


def test_embed_fingerprints_deterministic_and_ordered():
    one = embed_fingerprints_in_secret(b"pw", FPR_A, FPR_B)
    assert one == embed_fingerprints_in_secret(b"pw", FPR_A, FPR_B)
    assert one != embed_fingerprints_in_secret(b"pw", FPR_B, FPR_A)
    with pytest.raises(ValueError):
        embed_fingerprints_in_secret(b"", FPR_A, FPR_B)


def test_embedded_fingerprint_mismatch_diverges_and_rejects(toy):
    # in-pi binding: one flipped fingerprint bit in one side's view
    pw_a = embed_fingerprints_in_secret(b"pw", FPR_A, FPR_B)
    pw_b = embed_fingerprints_in_secret(b"pw", FPR_A, FPR_B.flip_bit(7))
    sa = pake.PakeSession(Role.INITIATOR, b"a@x", b"b@x", pw_a, toy)
    msg_a = sa.start()
    sb = pake.PakeSession(Role.RESPONDER, b"b@x", b"a@x", pw_b, toy)
    msg_b = sb.start()
    sk_a, sk_b = sa.finish(msg_b), sb.finish(msg_a)
    assert sk_a != sk_b  # keys diverge before confirmation
    ba = derive_bundle(sk_a, sa.transcript(), FPR_A, FPR_B, Role.INITIATOR)
    bb = derive_bundle(sk_b, sb.transcript(), FPR_A, FPR_B, Role.RESPONDER)
    ok_a, _ = ba.verify_peer_tag(bb.tau_self)
    ok_b, _ = bb.verify_peer_tag(ba.tau_self)
    assert not ok_a and not ok_b
