import pytest

from pakemail import pake
from pakemail.groups import DecodeError
from pakemail.pake import Phase, Role, StateError

import oracles

IDA, IDB = b"a@x", b"b@x"
PW5 = oracles.TOY_PASSWORD_BY_PI[5]  # hashes to scalar 5 in the toy context

# frozen from the straight-line oracle: x=3, y=7, pi=5 on both sides
FORCED_SK = bytes.fromhex(
    "e8d2bf87d646d5ac55dfb041046c054c2b0ec200b6cd3ef6d2e40685c0a0fa68")


def fixed(value):
    return lambda order: value


def run_pair(group, pw_a, pw_b, x=None, y=None, ida=IDA, idb=IDB):
    sa = pake.PakeSession(Role.INITIATOR, ida, idb, pw_a, group,
                          rng=fixed(x) if x is not None else None)
    msg_a = sa.start()
    sb = pake.PakeSession(Role.RESPONDER, idb, ida, pw_b, group,
                          rng=fixed(y) if y is not None else None)
    msg_b = sb.start()
    return sa, sb, sa.finish(msg_b), sb.finish(msg_a)


def test_start_randomized_outbound(toy):
    m1 = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy).start()
    m2 = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy).start()
    # order 11: collisions possible but not 20 in a row
    msgs = {pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy).start() for _ in range(20)}
    assert len(msgs) > 1


def test_forced_initiator_outbound_matches_oracle(toy):
    msg = pake.PakeSession(Role.INITIATOR, IDA, IDB, PW5, toy, rng=fixed(3)).start()
    assert msg == bytes([oracles.toy_outbound(3, 5, initiator=True)])
    assert msg == bytes([9])


def test_forced_responder_outbound_matches_oracle(toy):
    msg = pake.PakeSession(Role.RESPONDER, IDB, IDA, PW5, toy, rng=fixed(3)).start()
    assert msg == bytes([oracles.toy_outbound(3, 5, initiator=False)])
    assert msg == bytes([12])


def test_forced_run_matches_frozen_oracle_digest(toy):
    sa, sb, sk_a, sk_b = run_pair(toy, PW5, PW5, x=3, y=7)
    assert sk_a == sk_b == FORCED_SK
    assert sk_a == oracles.toy_fig1(3, 7, 5, 5)["sk_a"]


def test_equal_passwords_agree(toy, production):
    for g in (toy, production):
        _, _, sk_a, sk_b = run_pair(g, b"pw", b"pw")
        assert sk_a == sk_b


def test_unequal_passwords_disagree_exhaustively(toy):
    # every unequal scalar pair, every random tape
    for pa in range(toy.order):
        for pb in range(toy.order):
            if pa == pb:
                continue
            for x in range(toy.order):
                for y in range(0, toy.order, 3):  # sampled tapes keep this quick
                    _, _, sk_a, sk_b = run_pair(
                        toy, oracles.TOY_PASSWORD_BY_PI[pa],
                        oracles.TOY_PASSWORD_BY_PI[pb], x=x, y=y)
                    assert sk_a != sk_b


def test_completeness_exhaustive_toy(toy):
    for pi in range(toy.order):
        pw = oracles.TOY_PASSWORD_BY_PI[pi]
        for x in range(toy.order):
            for y in range(toy.order):
                _, _, sk_a, sk_b = run_pair(toy, pw, pw, x=x, y=y)
                assert sk_a == sk_b
                assert sk_a == oracles.toy_fig1(x, y, pi, pi)["sk_a"]


def test_transcripts_identical_both_sides(toy, production):
    for g in (toy, production):
        sa, sb, _, _ = run_pair(g, b"pw", b"pw")
        assert sa.transcript() == sb.transcript()


def test_phase_transitions(toy):
    s = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy)
    assert s.phase is Phase.CREATED
    msg = s.start()
    assert s.phase is Phase.STARTED
    with pytest.raises(StateError):
        s.start()
    peer = pake.PakeSession(Role.RESPONDER, IDB, IDA, b"pw", toy)
    peer_msg = peer.start()
    s.finish(peer_msg)
    assert s.phase is Phase.KEYED
    assert s.sk is not None
    with pytest.raises(StateError):
        s.finish(peer_msg)


def test_finish_decode_failure_fails_session(toy):
    s = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy)
    s.start()
    with pytest.raises(DecodeError):
        s.finish(bytes([7]))  # 7 is not in the order-11 subgroup
    assert s.phase is Phase.FAILED
    assert s.sk is None


def test_rejects_empty_inputs(toy):
    with pytest.raises(ValueError):
        pake.PakeSession(Role.INITIATOR, IDA, IDB, b"", toy)
    with pytest.raises(ValueError):
        pake.PakeSession(Role.INITIATOR, b"", IDB, b"pw", toy)
    with pytest.raises(ValueError):
        pake.PakeSession(Role.INITIATOR, IDA, b"", b"pw", toy)


def test_secrets_never_exposed(toy):
    s = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"hunter2", toy)
    s.start()
    text = repr(s) + str(s)
    assert "hunter2" not in text
    assert f"_x={s._x}" not in text and f"_pi={s._pi}" not in text


def test_forced_randomness_refused_in_production(production):
    with pytest.raises(ValueError):
        pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", production, rng=fixed(3))


def test_identity_share_is_not_taken_for_a_missing_one(production):
    # RFC 9382: the identity is no valid share on the production group
    s = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", production)
    s.start()
    with pytest.raises(DecodeError):
        s.finish(production.encode(production.identity))
    assert s.phase is Phase.FAILED
    assert s.sk is None


def test_toy_group_keeps_its_identity_as_a_share(toy):
    # an honest order-11 run lands on the identity 1 time in 11
    s = pake.PakeSession(Role.INITIATOR, IDA, IDB, b"pw", toy)
    s.start()
    assert len(s.finish(toy.encode(toy.identity))) == 32
    assert s.phase is Phase.KEYED
