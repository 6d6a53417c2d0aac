import secrets
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pakemail import groups
from pakemail.groups import DecodeError, get_group

import oracles


def test_toy_constants_match_independent_derivation(toy):
    assert toy.encode(toy.M)[0] == oracles.TOY_M
    assert toy.encode(toy.N)[0] == oracles.TOY_N


@pytest.mark.parametrize("group_name", ["toy", "production"])
def test_blind_constants_distinct(group_name):
    g = get_group(group_name)
    assert g.M != g.N
    assert g.M != g.identity
    assert g.N != g.identity


def test_exp_zero_is_identity(toy, production):
    for g in (toy, production):
        assert g.exp(g.generator, 0) == g.identity


def test_toy_exp_pencil_arithmetic(toy):
    # 2^3 mod 23 = 8
    assert toy.encode(toy.exp(toy.generator, 3))[0] == 8


def test_toy_mul_pencil_arithmetic(toy):
    a = toy.decode(bytes([8]))
    b = toy.decode(bytes([2]))
    assert toy.encode(toy.mul(a, b))[0] == 16


def test_mul_identity(toy, production):
    for g in (toy, production):
        x = g.exp(g.generator, 7)
        assert g.mul(g.identity, x) == x
        assert g.div(x, x) == g.identity
        assert g.div(g.mul(x, g.M), g.M) == x


def test_dh_consistency_exhaustive_toy(toy):
    g = toy.generator
    for a in range(toy.order):
        for b in range(toy.order):
            assert toy.exp(toy.exp(g, a), b) == toy.exp(toy.exp(g, b), a)


def test_dh_consistency_randomized_production(production):
    g = production.generator
    for _ in range(30):
        a = production.random_scalar()
        b = production.random_scalar()
        assert production.exp(production.exp(g, a), b) == production.exp(production.exp(g, b), a)


def test_encode_decode_roundtrip(toy, production):
    for g in (toy, production):
        for _ in range(20):
            x = g.exp(g.generator, g.random_scalar())
            assert g.decode(g.encode(x)) == x
        assert g.decode(g.encode(g.identity)) == g.identity


def test_decode_rejects_truncated(toy, production):
    for g in (toy, production):
        good = g.encode(g.exp(g.generator, 5))
        with pytest.raises(DecodeError):
            g.decode(good[:-1])
        with pytest.raises(DecodeError):
            g.decode(good + b"\x00")


def test_decode_rejects_off_subgroup_toy(toy):
    non_members = [v for v in range(256) if v not in oracles.TOY_MEMBERS]
    assert non_members  # 11 members out of 256 byte values
    for v in non_members:
        with pytest.raises(DecodeError):
            toy.decode(bytes([v]))


def test_decode_rejects_bad_curve_point(production):
    with pytest.raises(DecodeError):
        production.decode(b"\x05" + b"\x00" * 32)  # bad prefix
    # an x with no square y^2: flip bytes until decode fails
    for filler in range(256):
        data = bytes([2]) + bytes([filler]) * 32
        try:
            production.decode(data)
        except DecodeError:
            break
    else:
        pytest.fail("expected some x off the curve")


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_toy_group_law_associative(a, b):
    g = get_group("toy")
    x = g.exp(g.generator, a)
    y = g.exp(g.generator, b)
    assert g.mul(x, y) == g.exp(g.generator, (a + b) % g.order)


def test_scalar_from_password_deterministic(toy):
    ctx = b"ctx"
    assert toy.scalar_from_password(b"hello", ctx) == toy.scalar_from_password(b"hello", ctx)
    assert toy.scalar_from_password(b"hello", ctx) != toy.scalar_from_password(b"hellp", ctx)


def test_scalar_from_password_range_toy(toy):
    s = toy.scalar_from_password(b"a", b"ctx")
    assert s in set(range(toy.order))  # exhaustive residue check


def test_scalar_from_password_rejects_empty(toy):
    with pytest.raises(ValueError):
        toy.scalar_from_password(b"", b"ctx")


def test_scalar_from_password_matches_oracle(toy):
    from pakemail.pake import password_context
    for pi, pw in oracles.TOY_PASSWORD_BY_PI.items():
        assert toy.scalar_from_password(pw, password_context(toy)) == pi


def test_forced_randomness_gated_to_toy(toy, production):
    assert toy.random_scalar(lambda order: 3) == 3
    with pytest.raises(ValueError):
        production.random_scalar(lambda order: 3)


def test_production_constants_have_unknown_dlog_construction(production):
    # membership sanity: M and N decode as valid curve points
    assert production.decode(production.encode(production.M)) == production.M
    assert production.decode(production.encode(production.N)) == production.N


def test_scalar_bytes_width(toy, production):
    assert len(toy.scalar_bytes(5)) == 1
    assert len(production.scalar_bytes(5)) == 32


def _oracle_point(production, el):
    return oracles.secp_decode(production.encode(el))


def test_production_exp_matches_affine_oracle(production):
    g, n = production, production.order
    assert g.encode(g.generator) == oracles.secp_encode(oracles.SECP_G)
    P = g.decode(oracles.secp_encode(oracles.secp_mul(secrets.randbelow(n), oracles.SECP_G)))
    scalars = [0, 1, 2, n - 1, n - 2, n // 2, 2**255] + [secrets.randbelow(n) for _ in range(4)]
    for base in (g.generator, g.M, g.N, P):
        ref = _oracle_point(g, base)
        for k in scalars:
            assert g.encode(g.exp(base, k)) == oracles.secp_encode(oracles.secp_mul(k, ref)), (base, k)


def test_production_mul_div_match_affine_oracle(production):
    g = production
    P, Q = (g.exp(g.generator, secrets.randbelow(g.order)) for _ in range(2))
    for a, b in [(P, Q), (P, P), (P, g.identity), (g.identity, P), (g.identity, g.identity),
                 (P, g.div(g.identity, P))]:
        ra, rb = _oracle_point(g, a), _oracle_point(g, b)
        assert g.encode(g.mul(a, b)) == oracles.secp_encode(oracles.secp_add(ra, rb))
        assert g.encode(g.div(a, b)) == oracles.secp_encode(oracles.secp_add(ra, oracles.secp_neg(rb)))
    assert g.div(P, P) == g.identity
    assert g.mul(P, P) == g.exp(P, 2)


def test_toy_two_term_exp_exhaustive(toy):
    """Every share and every K the toy group can compute, by the pencil formulas."""
    p = oracles.TOY_MOD
    for x in range(toy.order):
        for pi in range(toy.order):
            for initiator in (True, False):
                blind = toy.M if initiator else toy.N
                assert (toy.encode(toy.exp(blind, pi, toy.generator, x))[0]
                        == oracles.toy_outbound(x, pi, initiator))
            for share in oracles.TOY_MEMBERS:
                inbound = toy.decode(bytes([share]))
                for peer_blind, value in ((toy.N, oracles.TOY_N), (toy.M, oracles.TOY_M)):
                    K = pow(share * pow(value, -pi, p) % p, x, p)
                    assert toy.encode(toy.exp(peer_blind, -pi * x, inbound, x))[0] == K


def test_production_two_term_exp_matches_affine_oracle(production):
    """a^e * b^f for two comb bases, a comb base and a decoded point (either
    way round) and two decoded points, over edge and random scalars."""
    g, n = production, production.order
    P, Q = (g.decode(oracles.secp_encode(oracles.secp_mul(secrets.randbelow(n), oracles.SECP_G)))
            for _ in range(2))
    scalars = [0, 1, 2, n - 1, n - 2, n // 2, 2**255] + [secrets.randbelow(n) for _ in range(2)]
    powers = {(base, k): oracles.secp_mul(k, _oracle_point(g, base))
              for base in (g.generator, g.M, g.N, P, Q) for k in scalars}
    for a, b in ((g.M, g.generator), (g.N, g.generator), (g.N, P), (P, g.M), (P, Q)):
        for e in scalars:
            for f in scalars:
                want = oracles.secp_add(powers[a, e], powers[b, f])
                assert g.encode(g.exp(a, e, b, f)) == oracles.secp_encode(want), (a, b, e, f)


def test_production_two_term_exp_edge_results(production):
    g, n = production, production.order
    k, x = secrets.randbelow(n), secrets.randbelow(n)
    pi = secrets.randbelow(n - 1) + 1
    P = g.decode(g.encode(g.exp(g.generator, secrets.randbelow(n))))
    infinity = oracles.secp_encode(None)
    # a second term that cancels the first
    for a, b in ((g.M, g.M), (P, P)):
        assert g.encode(g.exp(a, k, b, -k)) == infinity
    # an inbound share equal to N^pi makes K = N^(-pi*x) * (N^pi)^x the identity
    share = g.decode(g.encode(g.exp(g.N, pi)))
    assert g.encode(g.exp(g.N, -pi * x, share, x)) == infinity
    # both terms 0, and the identity as the second base
    assert g.exp(g.M, 0, g.generator, 0) == g.exp(g.N, 0, P, 0) == g.identity
    for base in (g.M, P):
        assert g.exp(base, k, g.identity, x) == g.exp(base, k)
        assert g.encode(g.exp(g.identity, x, base, k)) == g.encode(g.exp(base, k))


def test_production_exp_schedule_independent_of_scalar(production, monkeypatch):
    """Point doublings and additions per exponentiation do not depend on the
    scalars: for the password-blinding bases M, N, for a decoded point, and
    for the handshake's two-term forms, a share M^pi * g^x and a key
    K = N^(-pi*x) * P^x, with both scalars varying."""
    g = production
    P = g.decode(g.encode(g.exp(g.generator, 0x1234567)))
    scalars = [1, 2**200,                                  # Hamming weight 1, odd and even
               int("01" * 128, 2), int("10" * 128, 2),     # weight 128
               2**255 - 1, 2**256 - 2 - 2**200]            # weight 255 and 254
    for base in (g.generator, g.M, g.N):
        g.exp(base, 1)  # tables are built once per process, outside the count
    counts = Counter()
    for name in ("_ec_jdbl", "_ec_jadd"):
        def counted(*args, _real=getattr(groups, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(groups, name, counted)

    def schedule(*args):
        counts.clear()
        g.exp(*args)
        return counts["_ec_jdbl"], counts["_ec_jadd"]

    forms = ([(base, k) for base in (g.M, g.N) for k in scalars],
             [(P, k) for k in scalars],
             [(blind, e, g.generator, f) for blind in (g.M, g.N) for e in scalars for f in scalars],
             [(blind, e, P, f) for blind in (g.M, g.N) for e in scalars for f in scalars])
    for calls in forms:
        seen = {schedule(*args) for args in calls}
        assert len(seen) == 1, seen
        assert min(seen.pop()) > 0
