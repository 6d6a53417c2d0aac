"""Adversary simulations against honest sessions in the brute-forceable group.

Three strategies:

* ``passive``  — transcript observer who may grind the logged exchange
  offline against a candidate dictionary. Every candidate stays consistent
  with some random tape, so the observer can never single out the password.
* ``active-one-guess`` — plays responder against an honest initiator with
  one dictionary guess per session; succeeds only when the guess matches.
* ``guess-and-abort`` — same single guess, but on a mismatch the adversary
  drops its confirmation tag to look like a network failure. The honest
  side's history then shows a timeout for that exchange, never a gap.

A caveat specific to the brute-forceable group: its order (11) is smaller
than useful dictionaries, so distinct passwords can collide in their
derived scalars and a wrong guess can then complete a session. That is an
artifact of the tiny order with no analogue at production sizes, so
``adversary_successes`` counts the event the dictionary-test model
measures — the guess equalling the password — while ``honest_outcomes``
records what the honest side actually observed, collisions included.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field

from . import confirm, pake
from .confirm import Fingerprint
from .groups import ToyGroup, get_group
from .manager import Outcome
from .pake import Role


class Strategy(enum.Enum):
    PASSIVE = "passive"
    ACTIVE_ONE_GUESS = "active-one-guess"
    GUESS_AND_ABORT = "guess-and-abort"


@dataclass
class HarnessStats:
    strategy: Strategy
    trials: int = 0
    adversary_successes: int = 0
    honest_outcomes: Counter = field(default_factory=Counter)

    @property
    def success_rate(self) -> float:
        return self.adversary_successes / self.trials if self.trials else 0.0


_ID_A = b"alice@example.org"
_ID_B = b"bob@example.org"
_FPR_A = Fingerprint(bytes(range(20)))
_FPR_B = Fingerprint(bytes(range(20, 40)))
_SID_SUFFIX = b"harness"


def _confirmed_run(password_a: bytes, password_b: bytes, group, rng_a, rng_b) -> tuple[bool, dict]:
    """One full honest-shaped run; returns (tags_matched, transcript log)."""
    sa = pake.PakeSession(Role.INITIATOR, _ID_A, _ID_B, password_a, group, rng=rng_a)
    sb = pake.PakeSession(Role.RESPONDER, _ID_B, _ID_A, password_b, group, rng=rng_b)
    msg_a, msg_b = sa.start(), sb.start()
    sk_a = sa.finish(msg_b)
    sk_b = sb.finish(msg_a)
    sid_a = sa.transcript() + _SID_SUFFIX
    sid_b = sb.transcript() + _SID_SUFFIX
    ba = confirm.derive_bundle(sk_a, sid_a, _FPR_A, _FPR_B, Role.INITIATOR)
    bb = confirm.derive_bundle(sk_b, sid_b, _FPR_A, _FPR_B, Role.RESPONDER)
    ok_a, _ = ba.verify_peer_tag(bb.tau_self, _FPR_A, _FPR_B, sid_a)
    ok_b, _ = bb.verify_peer_tag(ba.tau_self, _FPR_A, _FPR_B, sid_b)
    log = {"msg_a": msg_a, "msg_b": msg_b, "tau_a": ba.tau_self, "tau_b": bb.tau_self}
    return ok_a and ok_b, log


def _dlog_table(group) -> dict:
    """Every element's discrete log to the generator: 11 entries in the toy group."""
    return {group.exp(group.generator, x): x for x in range(group.order)}


def _blinds(dictionary, group) -> list[tuple[bytes, object]]:
    """(candidate, M^pi) for every dictionary entry."""
    ctx = pake.password_context(group)
    return [(candidate, group.exp(group.M, group.scalar_from_password(candidate, ctx)))
            for candidate in dictionary]


def _passive_candidates(log: dict, blinds, group, dlog: dict) -> list[bytes]:
    """Candidates still consistent with the observed transcript.

    In the toy group discrete logs are a table lookup, so this actually
    solves for an ephemeral exponent per candidate instead of waving hands:
    a candidate is consistent iff X* / M^pi has a discrete log in ``dlog``,
    which it always does in a cyclic group.
    """
    x_star = group.decode(log["msg_a"])
    return [candidate for candidate, blind in blinds if group.div(x_star, blind) in dlog]


def adversary_harness(dictionary: list[bytes], strategy: Strategy | str,
                      trials: int = 1000, honest_passwords: list[bytes] | None = None,
                      seed: int | None = None) -> HarnessStats:
    """Simulate ``trials`` attacked sessions and tally the outcomes.

    ``honest_passwords`` defaults to the adversary's dictionary (the
    adversary knows the password distribution); pass a disjoint list to
    model guesses that can never hit.
    """
    strategy = Strategy(strategy)
    group = get_group("toy")
    assert isinstance(group, ToyGroup)
    rnd = random.Random(seed)
    pool = honest_passwords if honest_passwords is not None else dictionary
    stats = HarnessStats(strategy=strategy)
    dlog, blinds = _dlog_table(group), _blinds(dictionary, group)

    def rng(order, _r=rnd):
        return _r.randrange(order)

    for _ in range(trials):
        stats.trials += 1
        password = rnd.choice(pool)

        if strategy is Strategy.PASSIVE:
            matched, log = _confirmed_run(password, password, group, rng, rng)
            assert matched
            candidates = _passive_candidates(log, blinds, group, dlog)
            # unique candidate would mean the transcript leaked the password
            if len(candidates) == 1 and candidates[0] == password and len(dictionary) > 1:
                stats.adversary_successes += 1
            stats.honest_outcomes[Outcome.SUCCESS] += 1
            continue

        guess = rnd.choice(dictionary)
        matched, _ = _confirmed_run(password, guess, group, rng, rng)
        assert matched == (guess == password) or matched  # collisions only help
        if guess == password:
            stats.adversary_successes += 1
        if matched:
            stats.honest_outcomes[Outcome.SUCCESS] += 1
        elif strategy is Strategy.ACTIVE_ONE_GUESS:
            stats.honest_outcomes[Outcome.PASSWORD_MISMATCH] += 1
        else:  # guess-and-abort: the mismatching tag is dropped, not delivered
            stats.honest_outcomes[Outcome.ABORTED_BY_TIMEOUT] += 1

    return stats
