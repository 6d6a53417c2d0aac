"""Refresh-then-MAC key confirmation and fingerprint binding.

The session key sk from the exchange phase is stretched into a final key K
plus two directional HMAC keys; each side MACs both public-key
fingerprints and the session id under its own directional key and accepts
only if the peer's tag verifies. K is released exclusively through
:meth:`ConfirmationBundle.verify_peer_tag`.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from . import wire
from .pake import Role, StateError

FINGERPRINT_LEN = 20  # 160 bits, PGP-fingerprint sized
KDF_INFO = b"pakemail-confirm-v1"


@dataclass(frozen=True)
class Fingerprint:
    """160-bit public-key fingerprint."""

    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != FINGERPRINT_LEN:
            raise ValueError(f"fingerprint must be {FINGERPRINT_LEN} bytes, got {len(self.bytes)}")

    @property
    def hex(self) -> str:
        return self.bytes.hex()

    @classmethod
    def from_hex(cls, s: str) -> "Fingerprint":
        return cls(bytes.fromhex(s))

    def flip_bit(self, index: int) -> "Fingerprint":
        """Copy with one bit flipped; used by binding tests and harnesses."""
        raw = bytearray(self.bytes)
        raw[index // 8] ^= 1 << (index % 8)
        return Fingerprint(bytes(raw))


def _hkdf_96(sk: bytes) -> bytes:
    """HKDF-SHA256 extract-then-expand, 96 bytes out."""
    prk = hmac.new(b"\x00" * 32, sk, hashlib.sha256).digest()
    out = b""
    block = b""
    counter = 1
    while len(out) < 96:
        block = hmac.new(prk, block + KDF_INFO + bytes([counter]), hashlib.sha256).digest()
        out += block
        counter += 1
    return out[:96]


def _tag_message(fpr_a: Fingerprint, fpr_b: Fingerprint, sid: bytes) -> bytes:
    return fpr_a.bytes + fpr_b.bytes + sid


class ConfirmationBundle:
    """Holds K and the directional MAC keys for one confirmed-or-failed session.

    The final key is observable only after the peer's tag has verified;
    a failed verification latches the bundle shut.
    """

    def __init__(self, sk: bytes, sid: bytes, fpr_a: Fingerprint,
                 fpr_b: Fingerprint, role: Role):
        material = _hkdf_96(sk)
        self._key = material[:32]
        self._k_mac_a = material[32:64]
        self._k_mac_b = material[64:96]
        self.sid = sid
        self.role = role
        self._verdict: bool | None = None
        own_key = self._k_mac_a if role is Role.INITIATOR else self._k_mac_b
        self.tau_self = hmac.new(own_key, _tag_message(fpr_a, fpr_b, sid),
                                 hashlib.sha256).digest()

    def verify_peer_tag(self, peer_tag: bytes, fpr_a: Fingerprint,
                        fpr_b: Fingerprint, sid: bytes) -> tuple[bool, bytes | None]:
        """Check the peer's tag; on success return (True, K), else (False, None).

        Comparison is constant-shape (hmac.compare_digest); a second call
        is a state error.
        """
        if self._verdict is not None:
            raise StateError("peer tag already verified for this bundle")
        peer_key = self._k_mac_b if self.role is Role.INITIATOR else self._k_mac_a
        expected = hmac.new(peer_key, _tag_message(fpr_a, fpr_b, sid),
                            hashlib.sha256).digest()
        ok = hmac.compare_digest(expected, peer_tag)
        self._verdict = ok
        if ok:
            return True, self._key
        return False, None

    @property
    def accepted(self) -> bool | None:
        return self._verdict

    # test-only visibility into the split, never used on the protocol path
    def _keys_for_testing(self) -> tuple[bytes, bytes, bytes]:
        return self._key, self._k_mac_a, self._k_mac_b


def derive_bundle(sk: bytes, sid: bytes, fpr_a: Fingerprint,
                  fpr_b: Fingerprint, role: Role) -> ConfirmationBundle:
    return ConfirmationBundle(sk, sid, fpr_a, fpr_b, role)


def embed_fingerprints_in_secret(password: bytes, fpr_a: Fingerprint,
                                 fpr_b: Fingerprint) -> bytes:
    """Fold both fingerprints into the low-entropy secret (in-pi binding).

    The confirmation step is still required afterwards; this only makes the
    derived password scalar fingerprint-dependent.
    """
    if not password:
        raise ValueError("password must be non-empty")
    return wire.pack([password, fpr_a.bytes, fpr_b.bytes])
