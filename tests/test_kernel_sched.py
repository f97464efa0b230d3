"""Unit tests for Escort's proportional-share scheduler."""

import gc
import weakref

import pytest

from repro.sim.cpu import CPU, Cycles, YieldCPU
from repro.sim.engine import Simulator
from repro.kernel.owner import Owner, OwnerType
from repro.kernel.sched import ProportionalShareScheduler


def make_owner(name, tickets=1):
    owner = Owner(OwnerType.PATH, name=name)
    owner.sched.tickets = tickets
    return owner


def spinner(rounds, burst, log, tag):
    for _ in range(rounds):
        yield Cycles(burst)
        log.append(tag)
        yield YieldCPU()


# ----------------------------------------------------------------------
# Proportional share
# ----------------------------------------------------------------------
def test_stride_respects_ticket_ratio():
    sim = Simulator()
    cpu = CPU(sim, 2, scheduler=ProportionalShareScheduler())
    heavy = make_owner("heavy", tickets=3)
    light = make_owner("light", tickets=1)
    log = []
    cpu.spawn(spinner(400, 100, log, "h"), heavy)
    cpu.spawn(spinner(400, 100, log, "l"), light)
    # Run long enough for ~100 bursts total, then compare shares.
    sim.run(until=2 * 100 * 100)
    h = log.count("h")
    l = log.count("l")
    assert h + l > 20
    assert h / max(1, l) == pytest.approx(3.0, rel=0.35)


def test_stride_waking_owner_cannot_bank_credit():
    """An owner idle for a long time must not starve others on wake."""
    sim = Simulator()
    sched = ProportionalShareScheduler()
    cpu = CPU(sim, 2, scheduler=sched)
    steady = make_owner("steady", tickets=1)
    log = []
    cpu.spawn(spinner(1000, 100, log, "s"), steady)
    sleeper = make_owner("sleeper", tickets=1)

    def wake_later():
        cpu.spawn(spinner(500, 100, log, "w"), sleeper)

    sim.schedule(100_000, wake_later)  # steady has run 500 bursts already
    sim.run(until=140_000)
    # After waking, the two should roughly alternate in the wake window.
    tail = log[-60:]
    assert tail.count("w") > 15


def test_stride_single_owner_runs_alone():
    sim = Simulator()
    cpu = CPU(sim, 2, scheduler=ProportionalShareScheduler())
    owner = make_owner("solo")
    log = []
    cpu.spawn(spinner(10, 10, log, "x"), owner)
    sim.run()
    assert log == ["x"] * 10


# ----------------------------------------------------------------------
# Scheduler/CPU integration edge cases
# ----------------------------------------------------------------------
def test_dequeue_of_never_enqueued_thread_is_noop():
    sched = ProportionalShareScheduler()
    sim = Simulator()
    cpu = CPU(sim, 2, scheduler=sched)
    owner = make_owner("o")

    def body():
        yield Cycles(1)

    t = cpu.spawn(body(), owner)
    sim.run()
    sched.dequeue(t)  # already gone: must not raise
    assert sched.pick() is None


def test_killed_owner_is_not_kept_alive_by_the_scheduler(kernel):
    """The owner served last is released once killed, even if the CPU idles."""
    owner = make_owner("runaway")

    def loop():
        while True:
            yield Cycles(1_000)

    kernel.spawn_thread(owner, loop())
    kernel.sim.schedule(10_000, lambda: kernel.kill_owner(owner))
    kernel.sim.run(until=100_000)
    assert owner.destroyed and kernel.cpu.current is None
    ref = weakref.ref(owner)
    del owner
    gc.collect()
    assert ref() is None
