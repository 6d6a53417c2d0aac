"""Adversary simulations against honest sessions in the brute-forceable group.

Three strategies:

* ``passive``  — transcript observer who grinds the logged shares offline
  against a candidate dictionary. In a cyclic group every candidate stays
  consistent with some ephemeral exponent, so this filter keeps every
  candidate by construction: it shows that the shares leak nothing, not
  that the tags do. An observer who also checks the confirmation tags
  offline can single out the password in the toy group.
* ``active-one-guess`` — plays responder against an honest initiator with
  one dictionary guess per session; succeeds only when the guess matches.
* ``guess-and-abort`` — same single guess, but the adversary initiates,
  since only a responder releases its tag unverified: it checks the honest
  responder's tag first and, on a mismatch, withholds its own to look like
  a network failure. The honest engine then expires, so its history shows
  a timeout for that exchange, never a gap.

Each trial runs two real :class:`~pakemail.exchange.Exchange` engines and
tallies the outcome the honest engine reached.

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

from . import pake
from .confirm import Fingerprint
from .exchange import Exchange, Outcome
from .groups import ToyGroup, get_group
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


def _run(password: bytes, guess: bytes, group, rng, withhold: bool) -> tuple[Outcome, bytes]:
    """The honest engine's outcome and the opening share of one exchange
    against an engine holding ``guess``. The honest side initiates, except
    with ``withhold``: only a responder releases its tag unverified, so the
    adversary then initiates and, on a mismatch, withholds its own tag."""
    xid = bytes(16)
    roles = (Role.RESPONDER, Role.INITIATOR) if withhold else (Role.INITIATOR, Role.RESPONDER)
    honest = Exchange(roles[0], _ID_A, _ID_B, password, group, _FPR_A, exchange_id=xid, rng=rng)
    other = Exchange(roles[1], _ID_B, _ID_A, guess, group, _FPR_B, exchange_id=xid, rng=rng)
    initiator, responder = roles[0].order(honest, other)
    [opening] = initiator.start()
    responder.start()
    [answer] = responder.receive(xid, *opening)
    [tag] = initiator.receive(xid, *answer)
    if withhold and other.outcome is not Outcome.SUCCESS:
        honest.expire()  # the adversary withholds its tag
    elif withhold:  # without it, the honest engine initiated and is done
        honest.receive(xid, *tag)
    return honest.outcome, opening[1]


def _dlog_table(group) -> dict:
    """Every element's discrete log to the generator: 11 entries in the toy group."""
    return {group.exp(group.generator, x): x for x in range(group.order)}


def _blinds(dictionary, group) -> list[tuple[bytes, object]]:
    """(candidate, M^pi) for every dictionary entry."""
    ctx = pake.password_context(group)
    return [(candidate, group.exp(group.M, group.scalar_from_password(candidate, ctx)))
            for candidate in dictionary]


def _passive_candidates(opening: bytes, blinds, group, dlog: dict) -> list[bytes]:
    """Candidates still consistent with the observed transcript.

    In the toy group discrete logs are a table lookup, so this actually
    solves for an ephemeral exponent per candidate instead of waving hands:
    a candidate is consistent iff X* / M^pi has a discrete log in ``dlog``,
    which it always does in a cyclic group.
    """
    x_star = group.decode(opening)
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

    passive, withhold = strategy is Strategy.PASSIVE, strategy is Strategy.GUESS_AND_ABORT
    for _ in range(trials):
        stats.trials += 1
        password = rnd.choice(pool)
        guess = password if passive else rnd.choice(dictionary)
        outcome, opening = _run(password, guess, group, rng, withhold)
        stats.honest_outcomes[outcome] += 1
        if passive:
            assert outcome is Outcome.SUCCESS
            candidates = _passive_candidates(opening, blinds, group, dlog)
            # unique candidate would mean the transcript leaked the password
            if len(candidates) == 1 and candidates[0] == password and len(dictionary) > 1:
                stats.adversary_successes += 1
        elif guess == password:
            stats.adversary_successes += 1

    return stats
