import math
from collections import Counter

import pytest

from pakemail.harness import HarnessStats, Strategy, adversary_harness
from pakemail.manager import Outcome

DICTIONARY = [b"pw%d" % i for i in range(16)]


def test_strategy_accepts_strings():
    stats = adversary_harness(DICTIONARY, "passive", trials=5, seed=1)
    assert stats.strategy is Strategy.PASSIVE


def test_passive_observer_never_wins():
    stats = adversary_harness(DICTIONARY, Strategy.PASSIVE, trials=200, seed=7)
    assert stats.trials == 200
    assert stats.adversary_successes == 0
    assert stats.honest_outcomes[Outcome.SUCCESS] == 200


def test_active_one_guess_rate_near_uniform():
    trials = 4000
    stats = adversary_harness(DICTIONARY, Strategy.ACTIVE_ONE_GUESS,
                              trials=trials, seed=11)
    expected = 1 / len(DICTIONARY)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(stats.success_rate - expected) <= 3 * sigma
    completed = stats.honest_outcomes[Outcome.SUCCESS]
    mismatches = stats.honest_outcomes[Outcome.PASSWORD_MISMATCH]
    assert completed + mismatches == trials
    # scalar collisions in the tiny group can complete extra sessions,
    # but never the other way around
    assert stats.adversary_successes <= completed


def test_active_guess_certain_with_singleton_dictionary():
    stats = adversary_harness([b"only"], Strategy.ACTIVE_ONE_GUESS,
                              trials=50, seed=3)
    assert stats.success_rate == 1.0


def test_collision_free_dictionary_matches_only_on_hit():
    # one password per scalar residue: no collisions, so the session
    # completes exactly when the guess is the password
    import oracles
    dictionary = list(oracles.TOY_PASSWORD_BY_PI.values())
    stats = adversary_harness(dictionary, Strategy.ACTIVE_ONE_GUESS,
                              trials=500, seed=2)
    assert stats.honest_outcomes[Outcome.SUCCESS] == stats.adversary_successes


def test_guess_and_abort_leaves_timeouts_not_gaps():
    import oracles
    # residue-disjoint pools so a wrong guess can never collide into a hit
    dictionary = [oracles.TOY_PASSWORD_BY_PI[r] for r in range(5)]
    honest = [oracles.TOY_PASSWORD_BY_PI[r] for r in range(5, 11)]
    trials = 300
    stats = adversary_harness(dictionary, Strategy.GUESS_AND_ABORT,
                              trials=trials, seed=5,
                              honest_passwords=honest)
    assert stats.adversary_successes == 0
    # every attacked session is visible in the history as a timeout
    assert stats.honest_outcomes[Outcome.ABORTED_BY_TIMEOUT] == trials
    assert sum(stats.honest_outcomes.values()) == trials


def test_active_one_guess_known_answer_tally():
    stats = adversary_harness(DICTIONARY, Strategy.ACTIVE_ONE_GUESS, trials=4000, seed=11)
    assert stats.adversary_successes == 244
    assert stats.honest_outcomes == Counter({Outcome.SUCCESS: 441,
                                             Outcome.PASSWORD_MISMATCH: 3559})


def test_guess_and_abort_known_answer_tally_on_an_overlapping_dictionary():
    # the pools overlap, so some guesses hit and the adversary then
    # releases its tag: those sessions succeed, the rest time out
    stats = adversary_harness(DICTIONARY, Strategy.GUESS_AND_ABORT, trials=1000, seed=5)
    assert stats.adversary_successes == 64
    assert stats.honest_outcomes == Counter({Outcome.SUCCESS: 106,
                                             Outcome.ABORTED_BY_TIMEOUT: 894})


def test_stats_rate_with_no_trials():
    assert HarnessStats(Strategy.PASSIVE).success_rate == 0.0
