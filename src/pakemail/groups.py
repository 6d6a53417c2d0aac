"""Prime-order cyclic groups used by the key exchange.

Two instantiations: a production elliptic-curve group (secp256k1, 128-bit
security) and a tiny brute-forceable subgroup of Z_23* for exhaustive
testing. All protocol algebra goes through the abstract :class:`Group`
interface, so the rest of the package never cares which one it runs on.

Scalars are plain Python ints reduced modulo the group order. Elements are
immutable, hashable native values (see :data:`GroupElement`); they become
canonical fixed-length big-endian byte strings only in ``encode`` and are
validated when they come back through ``decode``.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from typing import Optional, Tuple, Union

from . import wire

# A toy-group element is an int below the modulus; a secp256k1 element is an
# affine (x, y) tuple, with None for the point at infinity.
GroupElement = Union[int, Tuple[int, int], None]


class DecodeError(ValueError):
    """Raised when a byte string is not a canonical group-element encoding."""


class Group:
    """Abstract prime-order cyclic group.

    This base class carries the public interface (group law, encodings, the
    blinding constants M and N) and the scalar/password plumbing shared by
    every instantiation. Subclasses supply the elements ``identity`` and
    ``generator`` and the native arithmetic hooks: the group operation
    ``_op(a, b)``, the inverse ``_inv(a)``, ``_exp(base, e)`` for
    0 <= e < order, ``_to_bytes(a)``, ``_from_bytes(data)`` for a correctly
    sized encoding (raising DecodeError on anything else), and
    ``_hash_to_element(label)``, an element nobody knows the discrete log of.
    """

    name: str
    order: int
    security_bits: int
    element_size: int
    identity: GroupElement
    generator: GroupElement

    @functools.cached_property
    def M(self) -> GroupElement:
        return self._hash_to_element(b"pakemail-M")

    @functools.cached_property
    def N(self) -> GroupElement:
        return self._hash_to_element(b"pakemail-N")

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._op(a, b)

    def div(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._op(a, self._inv(b))

    def exp(self, base: GroupElement, e: int) -> GroupElement:
        return self._exp(base, e % self.order)

    def encode(self, el: GroupElement) -> bytes:
        return self._to_bytes(el)

    def decode(self, data: bytes) -> GroupElement:
        if not isinstance(data, (bytes, bytearray)):
            raise DecodeError("encoding must be bytes")
        if len(data) != self.element_size:
            raise DecodeError(f"bad encoding length {len(data)}, expected {self.element_size}")
        return self._from_bytes(bytes(data))

    def scalar_bytes(self, value: int) -> bytes:
        """Fixed-width big-endian rendering, used in transcripts."""
        width = (self.order.bit_length() + 7) // 8
        return (value % self.order).to_bytes(width, "big")

    def random_scalar(self, rng=None) -> int:
        """Fresh scalar in [0, order) from a cryptographic source.

        ``rng`` (a callable ``rng(order) -> int``) is accepted only for the
        brute-forceable test group, so production sessions can never be
        constructed with forced randomness.
        """
        if rng is not None:
            if self.security_bits >= 128:
                raise ValueError("forced randomness is not available in production groups")
            return rng(self.order) % self.order
        return secrets.randbelow(self.order)

    def scalar_from_password(self, password: bytes, context: bytes) -> int:
        """Hash a low-entropy secret to a scalar, domain-separated by context."""
        if not password:
            raise ValueError("password must be non-empty")
        digest = hashlib.sha512(wire.pack([context, password])).digest()
        return int.from_bytes(digest, "big") % self.order


# ---------------------------------------------------------------------------
# Toy group: order-11 subgroup of Z_23*, generator 2. Discrete logs are
# trivially brute-forceable, which is exactly what the exhaustive protocol
# oracles need.
# ---------------------------------------------------------------------------

class ToyGroup(Group):

    name = "toy-z23"
    modulus = 23
    order = 11
    security_bits = 3
    element_size = 1
    identity = 1
    generator = 2

    def __init__(self) -> None:
        self._members = frozenset(pow(self.generator, k, self.modulus) for k in range(self.order))

    def _op(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def _inv(self, a: int) -> int:
        return pow(a, -1, self.modulus)

    def _exp(self, base: int, e: int) -> int:
        return pow(base, e, self.modulus)

    def _to_bytes(self, a: int) -> bytes:
        return bytes([a])

    def _from_bytes(self, data: bytes) -> int:
        if data[0] not in self._members:
            raise DecodeError(f"{data[0]} is not in the order-{self.order} subgroup")
        return data[0]

    def _hash_to_element(self, label: bytes) -> int:
        # Try-and-increment over subgroup members; dlogs are brute-forceable
        # here anyway, this group exists only for testing.
        counter = 0
        while True:
            h = hashlib.sha256(label + counter.to_bytes(4, "big")).digest()
            candidate = h[0] % self.modulus
            if candidate in self._members and candidate != 1:
                return candidate
            counter += 1


# ---------------------------------------------------------------------------
# Production group: secp256k1 (prime order, cofactor 1, curve y^2 = x^3 + 7).
# Points are affine tuples between calls; scalar multiplication runs in
# Jacobian coordinates (X, Y, Z) ~ (X/Z^2, Y/Z^3) against affine tables, and
# for every scalar, secret or not, performs the same sequence of doublings
# and additions: the scalar is made odd and recoded into digits that are
# never zero. (An addition whose two inputs meet becomes a doubling or
# infinity; a random scalar leads there with negligible probability.)
# ---------------------------------------------------------------------------

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_Affine = Optional[Tuple[int, int]]  # None is the point at infinity

# Fixed bases (g, M, N): a Lim-Lee comb with _TEETH teeth _SPACING bits
# apart. Every bit of the recoded scalar stands for +1 or -1, so each of
# the _SPACING columns selects one of 2**_TEETH signed sums from the table.
# _TEETH * _SPACING must cover the 257 bits of a scalar plus the order.
_TEETH = 6
_SPACING = 43

# Other bases: (x, y) -> (_BETA * x, y) multiplies by a cube root of unity
# lambda mod _N, and k = k1 + k2 * lambda splits k into two odd halves below
# 2**129 in size (GLV, CRYPTO 2001), each recoded into _DIGITS odd signed
# _WINDOW-bit digits over a per-call table of P, 3P, ..., (2**_WINDOW - 1)P.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1, _B1, _A2 = (0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3,
                 0x114CA50F7A8E2F3F657C1108D9D44CFD8)  # (a1, b1), (a2, a1): k1 + k2 * lambda = 0
_WINDOW = 5
_DIGITS = 26  # _WINDOW * (_DIGITS - 1) >= 125 keeps the last digit below 2**_WINDOW


def _ec_jdbl(P):
    """2P for a Jacobian point P (None is infinity)."""
    if P is None:
        return None
    X1, Y1, Z1 = P
    B = Y1 * Y1 % _P
    D = 4 * X1 * B % _P
    E = 3 * X1 * X1 % _P
    X3 = (E * E - 2 * D) % _P
    return (X3, (E * (D - X3) - 8 * B * B) % _P, 2 * Y1 * Z1 % _P)


def _ec_jadd(P, Q: _Affine):
    """P + Q for a Jacobian point P (None is infinity) and a finite affine point Q."""
    if P is None:
        return (*Q, 1)
    X1, Y1, Z1 = P
    Z1Z1 = Z1 * Z1 % _P
    H = (Q[0] * Z1Z1 - X1) % _P
    r = 2 * (Q[1] * Z1 * Z1Z1 - Y1) % _P
    if H == 0:
        return _ec_jdbl(P) if r == 0 else None
    I = 4 * H * H % _P
    J = H * I % _P
    V = X1 * I % _P
    X3 = (r * r - J - 2 * V) % _P
    return (X3, (r * (V - X3) - 2 * Y1 * J) % _P, 2 * Z1 * H % _P)


def _ec_to_affine(P) -> _Affine:
    return None if P is None else _ec_batch_to_affine([P])[0]


def _ec_batch_to_affine(points) -> list:
    """Affine forms of finite Jacobian points, with one field inversion."""
    prefix = [1]
    for _, _, Z in points:
        prefix.append(prefix[-1] * Z % _P)
    inv = pow(prefix[-1], -1, _P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        zinv = inv * prefix[i] % _P
        inv = inv * Z % _P
        zinv2 = zinv * zinv % _P
        out[i] = (X * zinv2 % _P, Y * zinv2 * zinv % _P)
    return out


def _ec_neg(P: _Affine) -> _Affine:
    return None if P is None else (P[0], _P - P[1])


def _ec_add(P: _Affine, Q: _Affine) -> _Affine:
    if Q is None:
        return P
    return _ec_to_affine(_ec_jadd(None if P is None else (*P, 1), Q))


def _comb_table(B: _Affine) -> list:
    """Entry m is the sum over teeth i of (+1 if bit i of m else -1) * 2**(i*_SPACING) * B."""
    R = (*B, 1)
    teeth = [R]
    for _ in range(_TEETH - 1):
        for _ in range(_SPACING):
            R = _ec_jdbl(R)
        teeth.append(R)
    teeth = _ec_batch_to_affine(teeth)
    # the upper half has the top tooth at +1; the lower half negates it
    upper = [(*teeth[-1], 1)]
    for T in teeth[:-1]:
        upper = [_ec_jadd(S, _ec_neg(T)) for S in upper] + [_ec_jadd(S, T) for S in upper]
    upper = _ec_batch_to_affine(upper)
    return [_ec_neg(T) for T in reversed(upper)] + upper


def _comb_mul(table: list, k: int) -> _Affine:
    """k * B from B's comb table, for 0 <= k < _N."""
    k += _N * (~k & 1)
    bits = format((k + (1 << (_TEETH * _SPACING)) - 1) >> 1, f"0{_TEETH * _SPACING}b")
    # bits[c::_SPACING] reads column c (the most significant first), top tooth first
    R = (*table[int(bits[0::_SPACING], 2)], 1)
    for c in range(1, _SPACING):
        R = _ec_jadd(_ec_jdbl(R), table[int(bits[c::_SPACING], 2)])
    return _ec_to_affine(R)


def _glv_split(k: int) -> tuple:
    """Odd (k1, k2) with k = k1 + k2 * lambda mod _N and |k1|, |k2| < 2**129."""
    c1 = (_A1 * k + _N // 2) // _N
    c2 = (-_B1 * k + _N // 2) // _N
    k1 = k - c1 * _A1 - c2 * _A2
    k2 = -c1 * _B1 - c2 * _A1
    # adding (a1, b1) flips the parity of both halves, adding (a2, a1) only k2's
    f1 = ~k1 & 1
    f2 = f1 ^ (~k2 & 1)
    return k1 + f1 * _A1 + f2 * _A2, k2 + f1 * _B1 + f2 * _A1


def _window_mul(P: _Affine, k: int) -> _Affine:
    """k * P for any P and 0 <= k < _N, over tables built for this call."""
    if P is None:
        return None
    half, mask = 1 << (_WINDOW - 1), (2 << _WINDOW) - 1
    D = _ec_to_affine(_ec_jdbl((*P, 1)))
    odd = [(*P, 1)]
    for _ in range(half - 1):
        odd.append(_ec_jadd(odd[-1], D))
    odd = _ec_batch_to_affine(odd)
    # entry j is (2j + 1 - 2**_WINDOW) * P, or that times lambda in endo
    table = [_ec_neg(T) for T in reversed(odd)] + odd
    endo = [(_BETA * x % _P, y) for x, y in table]
    # digit u - 2**_WINDOW, with u the low _WINDOW + 1 bits of k, is entry u >> 1
    k1, k2 = _glv_split(k)
    digits = []
    for _ in range(_DIGITS - 1):
        digits.append(((k1 & mask) >> 1, (k2 & mask) >> 1))
        k1, k2 = ((k1 >> (_WINDOW + 1)) << 1) | 1, ((k2 >> (_WINDOW + 1)) << 1) | 1
    R = _ec_jadd((*table[half + (k1 >> 1)], 1), endo[half + (k2 >> 1)])
    for j1, j2 in reversed(digits):
        for _ in range(_WINDOW):
            R = _ec_jdbl(R)
        R = _ec_jadd(_ec_jadd(R, table[j1]), endo[j2])
    return _ec_to_affine(R)


class Secp256k1Group(Group):
    """secp256k1 with 33-byte compressed SEC1 encodings.

    The point at infinity (the group identity) is encoded as 33 zero
    bytes, keeping the encoding fixed-length and canonical.
    """

    name = "secp256k1"
    order = _N
    security_bits = 128
    element_size = 33
    identity = None
    generator = (_GX, _GY)

    _INFINITY = b"\x00" * 33

    def __init__(self) -> None:
        # comb tables of the fixed bases, built on their first exponentiation
        self._combs: dict = {}

    _op = staticmethod(_ec_add)
    _inv = staticmethod(_ec_neg)

    def _exp(self, base: _Affine, e: int) -> _Affine:
        table = self._combs.get(base)
        if table is None and base in (self.generator, self.M, self.N):
            table = self._combs[base] = _comb_table(base)
        return _window_mul(base, e) if table is None else _comb_mul(table, e)

    def _to_bytes(self, a: _Affine) -> bytes:
        return self._INFINITY if a is None else bytes([2 + (a[1] & 1)]) + a[0].to_bytes(32, "big")

    def _from_bytes(self, data: bytes) -> _Affine:
        if data == self._INFINITY:
            return None
        prefix = data[0]
        if prefix not in (2, 3):
            raise DecodeError(f"bad point prefix {prefix:#x}")
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise DecodeError("x coordinate out of range")
        y = _lift_x(x)
        if y is None:
            raise DecodeError("x is not on the curve")
        return (x, y if (y & 1) == (prefix & 1) else _P - y)

    def _hash_to_element(self, label: bytes) -> _Affine:
        # Try-and-increment on the x coordinate; nobody knows the discrete
        # log of the resulting point.
        counter = 0
        while True:
            h = hashlib.sha256(label + counter.to_bytes(4, "big")).digest()
            x = int.from_bytes(h, "big")
            y = _lift_x(x) if x < _P else None
            if y is not None:
                return (x, min(y, _P - y))
            counter += 1


def _lift_x(x: int) -> Optional[int]:
    """A y with y^2 = x^3 + 7, or None when x is not on the curve."""
    y2 = (pow(x, 3, _P) + 7) % _P
    y = pow(y2, (_P + 1) // 4, _P)
    return y if y * y % _P == y2 else None


_REGISTRY = {}


def get_group(name: str) -> Group:
    """Shared group instances by name ('production'/'secp256k1' or 'toy')."""
    key = {"production": "secp256k1", "toy": "toy-z23"}.get(name, name)
    if key not in _REGISTRY:
        if key == "secp256k1":
            _REGISTRY[key] = Secp256k1Group()
        elif key == "toy-z23":
            _REGISTRY[key] = ToyGroup()
        else:
            raise ValueError(f"unknown group {name!r}")
    return _REGISTRY[key]
