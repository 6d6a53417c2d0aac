"""Independent straight-line oracles for the protocol and the cost model.

Everything here is computed from first principles with plain integer
arithmetic and the stdlib hash modules, deliberately not going through the
package's group or session abstractions, so the tests check two separate
routes against each other.
"""

import hashlib
import hmac
import math
from fractions import Fraction

# Toy group: subgroup of order 11 in Z_23*, generator 2. The blinding
# constants below were derived once by the documented hash-to-group
# procedure (sha256(label || counter) reduced mod 23, first subgroup
# member != 1) and are frozen here.
TOY_MOD = 23
TOY_ORDER = 11
TOY_G = 2
TOY_M = 13
TOY_N = 3
TOY_MEMBERS = sorted(pow(TOY_G, k, TOY_MOD) for k in range(TOY_ORDER))

TOY_CONTEXT = b"pakemail-v1/toy-z23"

# one password per scalar residue in the toy context, found by search
TOY_PASSWORD_BY_PI = {
    0: b"pw31", 1: b"pw6", 2: b"pw1", 3: b"pw5", 4: b"pw8", 5: b"pw2",
    6: b"pw10", 7: b"pw7", 8: b"pw9", 9: b"pw0", 10: b"pw3",
}


def lp(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def toy_pi(password: bytes) -> int:
    """Password-to-scalar derivation recomputed from its documented layout."""
    digest = hashlib.sha512(lp(TOY_CONTEXT) + lp(password)).digest()
    return int.from_bytes(digest, "big") % TOY_ORDER


def toy_outbound(x: int, pi: int, initiator: bool) -> int:
    blind = TOY_M if initiator else TOY_N
    return (pow(TOY_G, x, TOY_MOD) * pow(blind, pi, TOY_MOD)) % TOY_MOD


def toy_session_key(id_a: bytes, id_b: bytes, xstar: int, ystar: int,
                    pi: int, shared: int) -> bytes:
    h = hashlib.sha256()
    h.update(lp(id_a) + lp(id_b) + lp(bytes([xstar])) + lp(bytes([ystar])))
    h.update(lp(bytes([pi])) + lp(bytes([shared])))
    return h.digest()


def toy_fig1(x: int, y: int, pi_a: int, pi_b: int,
             id_a: bytes = b"a@x", id_b: bytes = b"b@x"):
    """Full key-exchange phase by pencil arithmetic; returns both sides' state."""
    xstar = toy_outbound(x, pi_a, initiator=True)
    ystar = toy_outbound(y, pi_b, initiator=False)
    n_inv = pow(TOY_N, -1, TOY_MOD)
    m_inv = pow(TOY_M, -1, TOY_MOD)
    k_a = pow(ystar * pow(n_inv, pi_a, TOY_MOD) % TOY_MOD, x, TOY_MOD)
    k_b = pow(xstar * pow(m_inv, pi_b, TOY_MOD) % TOY_MOD, y, TOY_MOD)
    sk_a = toy_session_key(id_a, id_b, xstar, ystar, pi_a, k_a)
    sk_b = toy_session_key(id_a, id_b, xstar, ystar, pi_b, k_b)
    return {"xstar": xstar, "ystar": ystar, "k_a": k_a, "k_b": k_b,
            "sk_a": sk_a, "sk_b": sk_b}


def hkdf96(sk: bytes, info: bytes = b"pakemail-confirm-v1") -> bytes:
    """RFC 5869 HKDF-SHA256 by hand: extract with a zero salt, then expand."""
    prk = hmac.new(b"\x00" * 32, sk, hashlib.sha256).digest()
    out = block = b""
    for counter in range(1, 4):  # three 32-byte blocks
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out += block
    return out


def mac_tag(key: bytes, fpr_a: bytes, fpr_b: bytes, sid: bytes) -> bytes:
    return hmac.new(key, fpr_a + fpr_b + sid, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# secp256k1 by textbook affine formulas: one field inversion per addition,
# plain double-and-add, no precomputation. Points are (x, y) tuples, None is
# the point at infinity.
# ---------------------------------------------------------------------------

SECP_P = 2**256 - 2**32 - 977
SECP_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
SECP_G = (0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
          0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8)


def secp_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    p = SECP_P
    if a[0] == b[0] and (a[1] + b[1]) % p == 0:
        return None
    if a == b:
        lam = 3 * a[0] * a[0] * pow(2 * a[1], p - 2, p) % p
    else:
        lam = (b[1] - a[1]) * pow(b[0] - a[0], p - 2, p) % p
    x = (lam * lam - a[0] - b[0]) % p
    return (x, (lam * (a[0] - x) - a[1]) % p)


def secp_mul(k: int, point):
    result = None
    for bit in bin(k % SECP_N)[2:]:
        result = secp_add(result, result)
        if bit == "1":
            result = secp_add(result, point)
    return result


def secp_neg(point):
    return None if point is None else (point[0], (-point[1]) % SECP_P)


def secp_encode(point) -> bytes:
    if point is None:
        return bytes(33)
    return bytes([2 + point[1] % 2]) + point[0].to_bytes(32, "big")


def secp_decode(data: bytes):
    if data == bytes(33):
        return None
    x = int.from_bytes(data[1:], "big")
    y = pow(x ** 3 + 7, (SECP_P + 1) // 4, SECP_P)
    assert (y * y - x ** 3 - 7) % SECP_P == 0 and data[0] in (2, 3)
    return (x, y if y % 2 == data[0] % 2 else SECP_P - y)


# ---------------------------------------------------------------------------
# Partial-preimage cost model
# ---------------------------------------------------------------------------

def binomial_q(b: int, ell: int, t: int) -> Fraction:
    """Big-integer binomial-sum evaluation of the no-preimage probability."""
    total = 1 << b
    valid = sum(math.comb(ell, k) for k in range(1, t + 1))
    return Fraction(total - valid, total)


def exhaustive_q(b: int, r: int, u: int) -> Fraction:
    """Enumerate every b-bit string and count valid partial preimages.

    A candidate passes iff it differs from the target in at least one and
    at most t = ell - u of the ell middle positions and nowhere else. Only
    feasible for tiny b; independent of the binomial formula.
    """
    ell = b - 2 * r
    t = ell - u
    target = 0
    middle = set(range(r, b - r))
    valid = 0
    for candidate in range(1 << b):
        diff = candidate ^ target
        if diff == 0:
            continue
        positions = {i for i in range(b) if diff >> (b - 1 - i) & 1}
        if positions <= middle and len(positions) <= t:
            valid += 1
    return Fraction((1 << b) - valid, 1 << b)
