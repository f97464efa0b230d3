"""Unit tests for the discrete-event engine."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.engine import Simulator


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    sim.schedule(10, lambda: order.append(1))
    sim.schedule(10, lambda: order.append(2))
    sim.schedule(10, lambda: order.append(3))
    sim.run()
    assert order == [1, 2, 3]


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(10, lambda: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(10, lambda: fired.append("early"))
    sim.schedule(100, lambda: fired.append("late"))
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=1234)
    assert sim.now == 1234


def test_run_for_relative_duration(sim):
    sim.run(until=100)
    fired = []
    sim.schedule(50, lambda: fired.append(1))
    sim.run_for(50)
    assert fired == [1]
    assert sim.now == 150


def test_events_scheduled_during_run_execute(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(5, lambda: order.append("inner"))

    sim.schedule(10, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 15


def test_zero_delay_event_runs_after_current(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0, lambda: order.append("chained"))

    sim.schedule(10, outer)
    sim.schedule(10, lambda: order.append("sibling"))
    sim.run()
    assert order == ["outer", "sibling", "chained"]


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=60))
def test_firing_order_is_sorted_for_any_delays(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(delays)


# ----------------------------------------------------------------------
# One loop, however it is driven
# ----------------------------------------------------------------------
# A program is a list of initial events ``(delay, action)`` plus the
# indices of initial events cancelled before the run.  Delays are mostly
# small, so same-tick ties are common, with some far-future timers (up to
# ~10 ms of ticks).  An action fires with its event: ``spawn`` schedules a
# child ``arg`` ticks later (0 is a same-tick hand-off), ``cancel`` cancels
# event ``arg`` (modulo the events created so far), which may already have
# fired or be the event itself.
_ACTION = st.one_of(st.just(("none", 0)),
                    st.tuples(st.just("spawn"), st.integers(0, 5)),
                    st.tuples(st.just("cancel"), st.integers(0, 63)))
_DELAY = st.one_of(st.integers(0, 8), st.integers(0, 3 << 21))
_PROGRAM = st.tuples(
    st.lists(st.tuples(_DELAY, _ACTION), min_size=1, max_size=30),
    st.sets(st.integers(0, 29)))
#: Driver calls; the ``until`` of step_until/run is relative to ``now``.
_DRIVE = st.lists(st.one_of(st.just(("step", 0)),
                            st.tuples(st.just("step_until"),
                                      st.integers(0, 12)),
                            st.tuples(st.just("run"), st.integers(0, 12))),
                  max_size=40)


def _build(program):
    """Schedule ``program`` on a fresh engine; returns the engine, every
    event it creates (in creation order) and the labels fired so far."""
    initial, precancel = program
    sim = Simulator()
    events, fired = [], []

    def add(delay, action):
        label = len(events)

        def fire():
            fired.append(label)
            kind, arg = action
            if kind == "spawn":
                add(arg, ("none", 0))
            elif kind == "cancel":
                events[arg % len(events)].cancel()

        events.append(sim.schedule(delay, fire))

    for delay, action in initial:
        add(delay, action)
    for index in precancel:
        if index < len(events):
            events[index].cancel()
    return sim, events, fired


@settings(max_examples=150, deadline=None)
@given(_PROGRAM, _DRIVE)
def test_one_loop_fires_in_time_seq_order_however_it_is_driven(program,
                                                               drive):
    # A tiny compaction floor, so these small heaps get compacted too.
    with mock.patch.object(engine, "COMPACT_MIN_QUEUE", 4):
        sim, events, fired = _build(program)
        for call, arg in drive:
            before = len(fired)
            if call == "step":
                ran = sim.step()
                if not ran:
                    assert sim.live_events() == []
            elif call == "step_until":
                until = sim.now + arg
                ran = sim.step_until(until)
                if ran:
                    assert sim.now <= until
                else:
                    assert all(t > until for t, _ in sim.live_events())
            else:
                until = sim.now + arg
                sim.run(until=until)
                ran = None
                assert sim.now == until
                assert all(t > until for t, _ in sim.live_events())
            if ran is not None:
                # step and step_until run exactly one event when they say so.
                assert len(fired) - before == (1 if ran else 0)
            sim.check_invariant()
            assert sim.cancelled_pending() == (sim.pending()
                                               - len(sim.live_events()))
        sim.run()
        sim.check_invariant()

    reference, _, reference_fired = _build(program)
    reference.run()
    assert fired == reference_fired
    keys = [(events[i].time, events[i].seq) for i in fired]
    assert keys == sorted((ev.time, ev.seq) for ev in events
                          if not ev.cancelled)


# ----------------------------------------------------------------------
# Cancellation and the exact ledger
# ----------------------------------------------------------------------
def test_cancel_after_firing_is_a_noop():
    """A stale timer handle (cancelled after the event fired) must not
    mutate the ledger or resurrect the callback."""
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, lambda: fired.append("x"))
    sim.run()
    assert fired == ["x"]
    before = sim.queue_health()
    ev.cancel()
    ev.cancel()
    assert not ev.cancelled
    assert sim.queue_health() == before
    sim.check_invariant()


def test_cancelled_zero_delay_event_settles_its_debt():
    """A cancelled same-tick event never fires; popping it moves its debt
    from ``cancelled_pending`` to ``cancelled_removed``, and the ledger
    holds at every step."""
    sim = Simulator()
    fired = []
    dead = sim.schedule(0, lambda: fired.append("dead"))
    sim.schedule(0, lambda: fired.append("live"))
    dead.cancel()
    assert sim.cancelled_pending() == 1
    sim.check_invariant()
    sim.run()
    assert fired == ["live"]
    assert sim.events_processed == 1
    assert sim.cancelled_pending() == 0
    assert sim.cancelled_removed() == 1
    sim.check_invariant()


def test_exact_ledger_under_cancel_heavy_churn():
    sim = Simulator()
    events = [sim.schedule(1000 + (i % 512) * 4096, lambda: None)
              for i in range(3_000)]
    for i, ev in enumerate(events):
        if i % 10:
            ev.cancel()
    sim.check_invariant()
    sim.run()
    sim.check_invariant()
    health = sim.queue_health()
    assert health["events_processed"] == 300
    assert health["pending"] == 0
    assert health["cancelled_pending"] == 0
    assert health["cancelled_removed"] == 2_700
    assert health["compactions"] >= 1


def test_live_events_covers_zero_delay_events():
    sim = Simulator()
    sim.schedule(1 << 21, lambda: None)
    sim.schedule(5, lambda: None)
    sim.schedule(0, lambda: None)
    assert sim.live_events() == [(0, 3), (5, 2), (1 << 21, 1)]
    assert sim.pending() == 3


def test_queue_health_counters():
    sim = Simulator()
    sim.schedule(0, lambda: None)
    sim.schedule(10, lambda: None)
    victim = sim.schedule(20, lambda: None)
    victim.cancel()
    sim.run()
    health = sim.queue_health()
    assert health["events_processed"] == 2
    assert health["scheduled"] == 3
    assert health["pending"] == 0
    assert health["cancelled_pending"] == 0
    assert health["cancelled_removed"] == 1
    assert health["now"] == 10
    # Kept for readers of the older report shape; one queue, always 0.
    assert health["wheel_scheduled"] == 0
    assert health["fast_lane_events"] == 0
    assert health["cancelled_wheel"] == 0
    # ... and no option can turn a second queue back on.
    for option in ("fast_lane", "timer_wheel", "event_pool"):
        with pytest.raises(TypeError):
            Simulator(**{option: True})
