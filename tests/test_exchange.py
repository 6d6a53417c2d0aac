"""The exchange engine driven directly, on a network that reorders,
duplicates, reflects or drops flows, with no transport, thread or clock."""

import itertools
import random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pakemail.confirm import Fingerprint
from pakemail.exchange import Exchange, Outcome
from pakemail.pake import Role
from pakemail.transport import FLOW_INITIATOR_PAKE, FLOW_INITIATOR_TAG, FLOW_RESPONDER_PAKE
from pakemail.wire import pack, unpack

IDA, IDB = b"a@x", b"b@x"
FPR_A, FPR_B = Fingerprint(bytes(20)), Fingerprint(bytes(range(20)))
XID = bytes(range(16))


def forced(value):
    return lambda order: value


def make_pair(toy, pw_a, pw_b, seed=0, draws=None):
    """An engine pair whose exponents come from ``seed``, or are the (x, y) in ``draws``."""
    rnd = random.Random(seed)

    def rng(order):
        return rnd.randrange(order)

    rng_a, rng_b = map(forced, draws) if draws else (rng, rng)
    a = Exchange(Role.INITIATOR, IDA, IDB, pw_a, toy, FPR_A, exchange_id=XID, rng=rng_a)
    b = Exchange(Role.RESPONDER, IDB, IDA, pw_b, toy, FPR_B, rng=rng_b)
    return a, b


@settings(derandomize=True, max_examples=200, deadline=None)
@given(residue_a=st.integers(0, 10), shift=st.one_of(st.just(0), st.integers(1, 10)),
       seed=st.integers(0, 2**32), lossy=st.booleans(), data=st.data())
def test_engines_on_a_hostile_network(toy, residue_a, shift, seed, lossy, data):
    # one password per scalar residue: equal residues mean equal passwords
    residue_b = (residue_a + shift) % 11
    pw_a, pw_b = oracles.TOY_PASSWORD_BY_PI[residue_a], oracles.TOY_PASSWORD_BY_PI[residue_b]
    a, b = make_pair(toy, pw_a, pw_b, seed)
    peer = {id(a): b, id(b): a}
    # flows on the wire: (receiving engine, flow); a copy is a duplicate
    wire = [(b, flow) for flow in a.start()] + [(a, flow) for flow in b.start()]
    actions = ["deliver", "duplicate", "reflect"] + (["drop"] if lossy else [])
    copies = 0
    while wire:
        i = data.draw(st.integers(0, len(wire) - 1))
        action = data.draw(st.sampled_from(actions))
        engine, flow = wire[i]
        if action in ("duplicate", "reflect") and copies < 8:
            copies += 1
            wire.append((engine if action == "duplicate" else peer[id(engine)], flow))
            continue
        wire.pop(i)
        if action != "drop":
            replies = engine.receive(XID, *flow)
            # the initiator's tag goes out only once the responder's verified
            for reply in replies if engine is a else ():
                valid = a.outcome is Outcome.SUCCESS
                assert reply[:2] == (FLOW_INITIATOR_TAG, a._bundle.tau_self if valid else b"")
            wire += [(peer[id(engine)], reply) for reply in replies]
    a.expire()
    b.expire()

    for engine in (a, b):
        assert engine.outcome is not None
        assert (engine.key is not None) == (engine.outcome is Outcome.SUCCESS)
    if a.outcome is b.outcome is Outcome.SUCCESS:
        assert a.key == b.key and a.exchange_id == b.exchange_id == XID
    if residue_a == residue_b and not lossy:
        assert a.outcome is b.outcome is Outcome.SUCCESS
    if residue_a != residue_b:
        assert Outcome.SUCCESS not in (a.outcome, b.outcome)


@pytest.mark.parametrize("x", range(11))
def test_three_flows_in_order_match_the_pencil_oracle(toy, x):
    # every (x, y) draw, with shares, tags and keys pinned to the pencil oracle
    for y, pi_b in itertools.product(range(11), (5, 6)):
        a, b = make_pair(toy, oracles.TOY_PASSWORD_BY_PI[5], oracles.TOY_PASSWORD_BY_PI[pi_b],
                         draws=(x, y))
        assert b.start() == []
        [opening] = a.start()
        [answer] = b.receive(XID, *opening)
        assert b.released and b.outcome is None
        [confirm] = a.receive(XID, *answer)
        assert not a.released
        b.receive(XID, *confirm)
        fig1 = oracles.toy_fig1(x, y, 5, pi_b)
        shares = bytes([fig1["xstar"]]), bytes([fig1["ystar"]])
        sid = b"".join(map(oracles.lp, (IDA, IDB, *shares, XID)))
        material_a, material_b = oracles.hkdf96(fig1["sk_a"]), oracles.hkdf96(fig1["sk_b"])
        tau_a = oracles.mac_tag(material_a[32:64], FPR_A.bytes, FPR_B.bytes, sid)
        tau_b = oracles.mac_tag(material_b[64:96], FPR_A.bytes, FPR_B.bytes, sid)
        assert opening == (FLOW_INITIATOR_PAKE, shares[0], FPR_A)
        assert answer == (FLOW_RESPONDER_PAKE, pack([shares[1], tau_b]), FPR_B)
        if pi_b == 5:
            assert a.outcome is b.outcome is Outcome.SUCCESS
            assert confirm == (FLOW_INITIATOR_TAG, tau_a, None)
            assert a.key == b.key == material_a[:32]
        else:
            # after a bad responder tag the initiator releases nothing of its own
            assert a.outcome is b.outcome is Outcome.PASSWORD_MISMATCH
            assert confirm == (FLOW_INITIATOR_TAG, b"", None) and confirm[1] != tau_a
            assert a.key is b.key is None


MALFORMED_ANSWERS = {
    "bare-share": lambda share, tag: share,  # the earlier wire format's flow 1
    "one-field": lambda share, tag: pack([share]),
    "three-fields": lambda share, tag: pack([share, tag, tag]),
    "truncated-prefix": lambda share, tag: pack([share, tag]) + b"\x00\x00",
}


@pytest.mark.parametrize("name", MALFORMED_ANSWERS)
def test_a_malformed_answer_is_a_protocol_error_and_sends_nothing(toy, name):
    a, b = make_pair(toy, b"pw", b"pw")
    b.start()
    [(flow, answer, fpr)] = b.receive(XID, *a.start()[0])
    share, tag = unpack(answer)
    assert a.receive(XID, flow, MALFORMED_ANSWERS[name](share, tag), fpr) == []
    assert a.outcome is Outcome.PROTOCOL_ERROR and a.key is None


def test_flows_of_another_exchange_are_ignored(toy):
    a, b = make_pair(toy, b"pw", b"pw")
    b.start()
    [answer] = b.receive(XID, *a.start()[0])
    assert a.receive(bytes(16), *answer) == []
    assert a.outcome is None
    a.expire()
    assert a.outcome is Outcome.ABORTED_BY_TIMEOUT and a.key is None


def test_a_share_without_any_fingerprint_is_a_protocol_error(toy):
    a, b = make_pair(toy, b"pw", b"pw")
    [(flow, payload, _)] = a.start()
    assert flow == FLOW_INITIATOR_PAKE and b.start() == []
    assert b.receive(XID, flow, payload, None) == []
    assert b.outcome is Outcome.PROTOCOL_ERROR and b.key is None
