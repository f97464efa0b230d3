"""Unit tests for the chaos oracle: schedules and the invariant checker.

The checker must (a) stay silent on a healthy kernel, (b) catch each class
of deliberately broken invariant, and (c) never report the same breakage
twice.  Fault schedules must be pure functions of their seed.
"""

import gc
import weakref

import pytest

from repro.sim.clock import millis_to_ticks
from repro.sim.cpu import Cycles, Interrupt
from repro.kernel.iobuffer import IOBuffer, IOBufferLock
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.owner import Owner, OwnerType
from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import (
    ALL_FAULT_KINDS,
    DOMAIN_CRASH,
    FaultEvent,
    FaultSchedule,
)


def make_owner(name="victim"):
    return Owner(OwnerType.PATH, name=name)


def spin(iterations, cycles=10_000):
    def body():
        for _ in range(iterations):
            yield Cycles(cycles)
    return body()


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
def test_schedule_sorts_and_counts():
    sched = FaultSchedule([
        FaultEvent(0.5, "link-flap"),
        FaultEvent(0.1, "stuck-thread"),
        FaultEvent(0.3, "link-flap"),
    ])
    assert [e.at_s for e in sched] == [0.1, 0.3, 0.5]
    assert sched.counts() == {"link-flap": 2, "stuck-thread": 1}
    assert len(sched) == 3


def test_random_schedule_is_seed_deterministic():
    a = FaultSchedule.random(7, duration_s=1.0)
    b = FaultSchedule.random(7, duration_s=1.0)
    assert a.events == b.events
    c = FaultSchedule.random(8, duration_s=1.0)
    assert a.events != c.events


def test_random_schedule_needs_targets_for_domain_crash():
    # Without crash_targets there is nothing to aim a crash at, so the
    # kind is filtered out rather than generating no-op events.
    sched = FaultSchedule.random(3, duration_s=5.0, kinds=ALL_FAULT_KINDS,
                                 rate_per_second=10.0)
    assert all(e.kind != DOMAIN_CRASH for e in sched)
    with_targets = FaultSchedule.random(
        3, duration_s=5.0, kinds=(DOMAIN_CRASH,), rate_per_second=10.0,
        crash_targets=("pd-http",))
    assert all(e.kind == DOMAIN_CRASH and e.target == "pd-http"
               for e in with_targets)
    assert len(with_targets) > 0


# ----------------------------------------------------------------------
# The checker on a healthy kernel
# ----------------------------------------------------------------------
def test_clean_run_has_no_violations(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = make_owner()
    kernel.allocator.alloc(owner, count=4)
    kernel.spawn_thread(owner, spin(50))
    sim.run(until=millis_to_ticks(5))
    checker.check_now()
    assert checker.ok, checker.report()
    assert checker.checks_run >= 1
    assert "OK" in checker.report()


def test_checker_attaches_mid_run(sim, kernel):
    # Work happens *before* the checker exists; its cycle baseline must
    # start from the CPU counters at attach time, not from zero.
    owner = make_owner()
    kernel.spawn_thread(owner, spin(30))
    sim.run(until=millis_to_ticks(2))
    checker = InvariantChecker(kernel)
    kernel.spawn_thread(make_owner("late"), spin(30))
    sim.run(until=millis_to_ticks(4))
    checker.check_now()
    assert checker.ok, checker.report()


def test_kill_postconditions_checked_automatically(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = make_owner()
    kernel.allocator.alloc(owner, count=2)
    kernel.spawn_thread(owner, spin(10**6))
    sim.run(until=millis_to_ticks(1))
    kernel.kill_owner(owner)
    # The kill listener fired and found the reclamation complete.
    assert checker.ok, checker.report()
    assert checker.checks_run >= 1


# ----------------------------------------------------------------------
# The checker on deliberately broken kernels
# ----------------------------------------------------------------------
def test_detects_cycle_miscounting(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = make_owner()
    kernel.spawn_thread(owner, spin(20))
    sim.run(until=millis_to_ticks(2))
    owner.usage.cycles += 555  # cook the books
    found = checker.check_now()
    assert any(v.rule == "cycle-conservation" for v in found)


def test_detects_page_charged_to_dead_owner(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = make_owner()
    pages = kernel.allocator.alloc(owner, count=1)
    # Simulate a buggy kill that forgets the allocator.
    owner.page_list.clear()
    owner.usage.pages = 0
    owner.destroyed = True
    checker._owners.add(owner)
    found = checker.check_now()
    assert any(v.rule == "page-consistency" for v in found)
    assert not checker.ok
    # Clean up so the allocator is consistent for teardown.
    for page in pages:
        owner.page_list.add(page)


def test_violations_deduplicate(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = make_owner()
    kernel.spawn_thread(owner, spin(20))
    sim.run(until=millis_to_ticks(2))
    owner.usage.cycles += 1
    checker.check_now()
    checker.check_now()
    checker.check_now()
    cycle = [v for v in checker.violations
             if v.rule == "cycle-conservation"
             and v.subject == owner.name]
    assert len(cycle) == 1
    assert "violation" in checker.report()


def test_periodic_sweep_runs_and_stops(sim, kernel):
    checker = InvariantChecker(kernel)
    checker.start(period_s=0.001)
    sim.run(until=millis_to_ticks(10))
    ran = checker.checks_run
    assert ran >= 5
    checker.stop()
    sim.run(until=millis_to_ticks(20))
    assert checker.checks_run == ran


# ----------------------------------------------------------------------
# Dead owners: each per-owner rule still holds after the kill
# ----------------------------------------------------------------------
def killed_owner(sim, kernel):
    """An owner the checker saw charged, then killed (no sweep yet)."""
    owner = make_owner("doomed")
    kernel.spawn_thread(owner, spin(10**6))
    sim.run(until=millis_to_ticks(1))
    kernel.kill_owner(owner)
    return owner


def test_detects_cycles_cooked_on_a_killed_owner(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = killed_owner(sim, kernel)
    owner.usage.cycles += 7
    found = checker.check_now()
    assert [(v.rule, v.subject) for v in found] \
        == [("cycle-conservation", owner.name)]


def test_detects_live_thread_left_in_a_killed_owner(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = killed_owner(sim, kernel)
    intruder = kernel.spawn_thread(make_owner("live"), spin(10**6))
    owner.thread_list.add(intruder)
    found = checker.check_now()
    assert [(v.rule, v.subject) for v in found] \
        == [("orphan-thread", intruder.name)]
    owner.thread_list.discard(intruder)


def test_detects_lock_on_freed_buffer_kept_by_a_killed_owner(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = killed_owner(sim, kernel)
    buf = IOBuffer(PAGE_SIZE, make_owner("writer"))
    buf.freed = True
    owner.iobuffer_locks.add(IOBufferLock(buf, owner))
    found = checker.check_now()
    assert [(v.rule, v.subject) for v in found] == [("iobuf-lock", owner.name)]


def test_late_charge_to_a_retired_owner_is_checked(sim, kernel):
    # An interrupt posted before the kill charges the owner after it, and
    # after the sweep that retired it: the charge must still be checked
    # against everything the owner was charged before.
    checker = InvariantChecker(kernel)
    owner = make_owner("doomed")
    kernel.spawn_thread(owner, spin(10**6))
    sim.run(until=millis_to_ticks(1))
    kernel.cpu.post_interrupt(Interrupt([(owner, 500)]))
    kernel.kill_owner(owner)
    assert checker.check_now() == []
    # A buggy kernel counts the late charge twice.
    owner.charge_cycles = lambda n: Owner.charge_cycles(owner, 2 * n)
    sim.run(until=millis_to_ticks(2))
    found = checker.check_now()
    assert [(v.rule, v.subject) for v in found] \
        == [("cycle-conservation", owner.name)]


def test_retired_owner_is_audited_while_reachable_then_let_go(sim, kernel):
    checker = InvariantChecker(kernel)
    owner = killed_owner(sim, kernel)
    assert checker.check_now() == []
    # Retired after that sweep: out of the strong tables...
    assert owner not in checker._owners
    assert owner not in checker._observed
    # ...but still audited while something can reach it and change it.
    owner.usage.cycles += 1
    assert [v.rule for v in checker.check_now()] == ["cycle-conservation"]
    # Once nothing else holds it (the scheduler, which remembers the
    # owner it served last, moves on to a bystander), the checker does
    # not keep it alive.
    kernel.spawn_thread(make_owner("bystander"), spin(1))
    sim.run(until=millis_to_ticks(2))
    gone = weakref.ref(owner)
    del owner
    gc.collect()
    assert gone() is None
    assert checker.check_now() == []


# ----------------------------------------------------------------------
# Edge cases: teardown racing the sweep, and the degenerate quiet run
# ----------------------------------------------------------------------
def test_domain_torn_down_mid_check_raises_no_false_alarms(sim, kernel):
    # A domain destroyed *between* two sweeps stays in the checker's owner
    # set; the sweep must treat it as legitimately dead (reclaimed, no
    # pages, no live threads), not report phantom violations.
    checker = InvariantChecker(kernel)
    pd = kernel.create_domain("pd-victim")
    kernel.allocator.alloc(pd, count=3)
    kernel.spawn_thread(pd, spin(10**6), name="victim-worker")
    sim.run(until=millis_to_ticks(1))
    checker.check_now()
    assert checker.ok, checker.report()

    kernel.destroy_domain(pd)  # torn down mid-campaign
    sim.run(until=millis_to_ticks(2))
    checker.check_now()
    assert checker.ok, checker.report()
    assert pd.destroyed
    # The dead domain is still audited: a live thread smuggled onto it
    # (a buggy teardown that missed one) is caught as an orphan.
    intruder = kernel.spawn_thread(make_owner("live"), spin(10**6))
    pd.thread_list.add(intruder)
    found = checker.check_now()
    assert any(v.rule == "orphan-thread" for v in found)
    pd.thread_list.discard(intruder)


def test_domain_torn_down_during_periodic_sweep(sim, kernel):
    # Same race, but against the self-rescheduling sweep: teardown lands
    # between ticks of a running periodic checker.
    checker = InvariantChecker(kernel)
    checker.start(period_s=0.001)
    pd = kernel.create_domain("pd-flaky")
    kernel.spawn_thread(pd, spin(10**6), name="flaky-worker")
    sim.run(until=millis_to_ticks(3))
    kernel.destroy_domain(pd)
    sim.run(until=millis_to_ticks(6))
    checker.stop()
    assert checker.checks_run >= 3
    assert checker.ok, checker.report()


def test_checker_with_zero_traffic_offered(sim, kernel):
    # Degenerate campaign case: the fault schedule fired before any work
    # was offered.  Nothing was charged, nothing allocated — the checker
    # must come back clean instead of dividing into zero-traffic counters.
    checker = InvariantChecker(kernel)
    found = checker.check_now()
    assert found == []
    assert checker.ok, checker.report()
    sim.run(until=millis_to_ticks(5))  # idle time only
    checker.check_now()
    assert checker.ok, checker.report()
    assert checker.violations == []
    assert "OK" in checker.report()
