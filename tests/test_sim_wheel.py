"""The timer wheel's suite, under its original test names.

The engine once kept far-future timers in a hierarchical timer wheel beside
the heap and this suite A/B'd the two.  The wheel is gone: the engine is
one heap.  Each name here now runs the one-queue test that absorbed it, so
the name still asserts what it did: every scheduler picks the threads, and
every run kind ends in the digest, recorded with the wheel on; a defense
run's record/replay journal is byte-identical to that recording; near and
far timers fire in ``(time, seq)`` order with cancellations mixed in; the
exact ledger holds under cancel-heavy churn and after a stale cancel; and
``queue_health()`` keeps its ``wheel_scheduled`` key at 0 with no option
left to enable a wheel.
"""

import pytest

from tests.test_engine_recorded import (
    test_defense_replay_journal_matches_the_recording
    as test_defense_record_replay_fingerprints_identical_with_and_without_wheel,
    test_run_digest_matches_the_recording as run_digest_matches_the_recording,
    test_scheduler_picks_match_the_recording
    as test_scheduler_picks_identical_with_and_without_wheel,
)
from tests.test_sim_engine import (
    test_cancel_after_firing_is_a_noop,
    test_cancelled_zero_delay_event_settles_its_debt
    as test_cancelled_fast_lane_pop_moves_debt_to_removed,
    test_exact_ledger_under_cancel_heavy_churn
    as test_exact_ledger_under_cancel_heavy_wheel_churn,
    test_live_events_covers_zero_delay_events
    as test_live_events_covers_wheel_residents,
    test_one_loop_fires_in_time_seq_order_however_it_is_driven
    as test_engine_firing_order_identical_with_and_without_wheel,
    test_queue_health_counters
    as test_wheel_flag_and_counters_mirror_fast_lane_pattern,
)


def test_experiment_run_digest_identical_with_and_without_wheel():
    run_digest_matches_the_recording("experiment")


@pytest.mark.chaos
def test_chaos_run_digest_identical_with_and_without_wheel():
    run_digest_matches_the_recording("chaos")


@pytest.mark.defense
def test_defense_run_digest_identical_with_and_without_wheel():
    run_digest_matches_the_recording("defense")


@pytest.mark.cluster
def test_cluster_run_digest_identical_with_and_without_wheel():
    run_digest_matches_the_recording("cluster")
