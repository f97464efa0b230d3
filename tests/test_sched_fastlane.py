"""The same-tick fast lane's suite, under its original test names.

The engine once sent zero-delay events through a FIFO beside the heap (the
fast lane) and this suite A/B'd the two.  The lane is gone: the engine is
one heap.  Each name here now runs the one-queue test that absorbed it,
so the name still asserts what it did: the scheduler picks the threads
recorded with the lane on, zero-delay hand-offs fire in ``(time, seq)``
order however the engine is driven, a cancelled zero-delay event never
fires and settles its ledger debt, and ``queue_health()`` keeps its
``fast_lane_events`` key at 0 with no option left to enable a lane.
"""

from tests.test_engine_recorded import (
    test_scheduler_picks_match_the_recording
    as test_scheduler_picks_identical_with_and_without_fast_lane,
)
from tests.test_sim_engine import (
    test_cancelled_zero_delay_event_settles_its_debt
    as test_cancelled_fast_lane_event_never_fires_and_debt_clears,
    test_live_events_covers_zero_delay_events
    as test_live_events_covers_the_fast_lane,
    test_one_loop_fires_in_time_seq_order_however_it_is_driven
    as test_engine_firing_order_identical_with_and_without_fast_lane,
    test_queue_health_counters,
    test_queue_health_counters as test_fast_lane_counter_only_moves_when_enabled,
)
