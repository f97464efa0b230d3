"""Unit tests for the virtual CPU: charging, interrupts, runaway traps."""

from collections import deque

import pytest

from repro.sim.cpu import (
    CPU,
    Block,
    Cycles,
    Interrupt,
    Sleep,
    YieldCPU,
)
from repro.sim.engine import Simulator

TPC = 2  # ticks per cycle used throughout these tests


class FakeOwner:
    def __init__(self, name="owner", limit=None):
        self.name = name
        self.cycles = 0
        self.runtime_limit_cycles = limit

    def charge_cycles(self, n):
        self.cycles += n


class FakeWaitable:
    def __init__(self):
        self.waiters = []

    def add_waiter(self, thread):
        self.waiters.append(thread)

    def wake_all(self, cpu, value=None):
        waiters, self.waiters = self.waiters, []
        for t in waiters:
            cpu.make_runnable(t, value)


class FakeScheduler:
    """Round-robin over threads, so these tests see the CPU's own order."""

    def __init__(self):
        self.queue = deque()

    def enqueue(self, thread):
        self.queue.append(thread)

    def dequeue(self, thread):
        if thread in self.queue:
            self.queue.remove(thread)

    def pick(self):
        while self.queue:
            thread = self.queue.popleft()
            if thread.alive:
                return thread
        return None

    def on_charge(self, thread, cycles):
        pass


@pytest.fixture
def cpu(sim):
    return CPU(sim, TPC, FakeScheduler(), idle_owner=FakeOwner("idle"))


def run(sim):
    sim.run()


def test_cycles_charged_and_time_advances(sim, cpu):
    owner = FakeOwner()

    def body():
        yield Cycles(100)

    cpu.spawn(body(), owner)
    run(sim)
    assert owner.cycles == 100
    assert sim.now == 100 * TPC
    assert cpu.busy_cycles == 100


def test_explicit_charge_owner_override(sim, cpu):
    owner = FakeOwner("thread-owner")
    other = FakeOwner("other")

    def body():
        yield Cycles(30)
        yield Cycles(70, owner=other)

    cpu.spawn(body(), owner)
    run(sim)
    assert owner.cycles == 30
    assert other.cycles == 70


def test_zero_cycles_is_free(sim, cpu):
    owner = FakeOwner()

    def body():
        yield Cycles(0)
        yield Cycles(5)

    cpu.spawn(body(), owner)
    run(sim)
    assert owner.cycles == 5


def test_negative_cycles_rejected():
    with pytest.raises(ValueError):
        Cycles(-1)


def test_threads_interleave_on_yield(sim, cpu):
    trace = []

    def body(tag):
        for _ in range(2):
            yield Cycles(10)
            trace.append(tag)
            yield YieldCPU()

    cpu.spawn(body("a"), FakeOwner("a"))
    cpu.spawn(body("b"), FakeOwner("b"))
    run(sim)
    assert trace == ["a", "b", "a", "b"]


def test_block_and_wake(sim, cpu):
    waitable = FakeWaitable()
    result = []

    def waiter():
        value = yield Block(waitable)
        result.append(value)

    cpu.spawn(waiter(), FakeOwner())
    sim.schedule(500, lambda: waitable.wake_all(cpu, "hello"))
    run(sim)
    assert result == ["hello"]


def test_sleep_blocks_for_duration(sim, cpu):
    times = []

    def body():
        yield Cycles(10)
        yield Sleep(1000)
        times.append(sim.now)
        yield Cycles(10)

    cpu.spawn(body(), FakeOwner())
    run(sim)
    assert times == [10 * TPC + 1000]
    assert sim.now == 20 * TPC + 1000


def test_idle_cycles_charged_to_idle_owner(sim, cpu):
    owner = FakeOwner()

    def body():
        yield Cycles(10)

    sim.schedule(200, lambda: cpu.spawn(body(), owner))
    run(sim)
    cpu.finalize_idle()
    assert cpu.idle_cycles == 100  # 200 ticks idle / 2 ticks per cycle
    assert cpu.idle_owner.cycles == 100
    assert owner.cycles == 10


def test_interrupt_preempts_and_resumes(sim, cpu):
    owner = FakeOwner("thread")
    intr_owner = FakeOwner("intr")
    done = []

    def body():
        yield Cycles(100)
        done.append(sim.now)

    cpu.spawn(body(), owner)
    # Interrupt lands mid-consume at tick 50 (25 cycles in).
    sim.schedule(50, lambda: cpu.post_interrupt(
        Interrupt([(intr_owner, 40)], label="test")))
    run(sim)
    assert owner.cycles == 100          # full burst still charged
    assert intr_owner.cycles == 40
    # Completion delayed by exactly the interrupt service time.
    assert done == [100 * TPC + 40 * TPC]
    assert cpu.interrupt_cycles == 40


def test_interrupt_while_idle_runs_immediately(sim, cpu):
    intr_owner = FakeOwner("intr")
    fired = []
    sim.schedule(100, lambda: cpu.post_interrupt(
        Interrupt([(intr_owner, 10)], on_complete=lambda: fired.append(sim.now))))
    run(sim)
    assert fired == [100 + 10 * TPC]
    assert intr_owner.cycles == 10


def test_queued_interrupts_serialize(sim, cpu):
    a, b = FakeOwner("a"), FakeOwner("b")
    fired = []

    def post_both():
        cpu.post_interrupt(Interrupt([(a, 10)],
                                     on_complete=lambda: fired.append(sim.now)))
        cpu.post_interrupt(Interrupt([(b, 10)],
                                     on_complete=lambda: fired.append(sim.now)))

    sim.schedule(0, post_both)
    run(sim)
    assert fired == [10 * TPC, 20 * TPC]


def test_interrupt_completion_can_wake_threads(sim, cpu):
    waitable = FakeWaitable()
    result = []

    def waiter():
        yield Block(waitable)
        yield Cycles(5)
        result.append(sim.now)

    cpu.spawn(waiter(), FakeOwner())
    sim.schedule(100, lambda: cpu.post_interrupt(
        Interrupt([(FakeOwner("i"), 20)],
                  on_complete=lambda: waitable.wake_all(cpu))))
    run(sim)
    assert result == [100 + 20 * TPC + 5 * TPC]


def test_runaway_trap_fires_at_exact_limit(sim, cpu):
    owner = FakeOwner("runaway", limit=1000)
    trapped = []

    def hook(thread):
        trapped.append((sim.now, thread.burst_cycles))
        cpu.kill_thread(thread)

    cpu.on_runaway = hook

    def body():
        yield Cycles(10_000)  # tries to burn far past the limit

    cpu.spawn(body(), owner)
    run(sim)
    assert trapped == [(1000 * TPC, 1000)]
    assert owner.cycles == 1000  # charged only up to the limit


def test_yield_resets_runaway_burst(sim, cpu):
    owner = FakeOwner("ok", limit=100)
    trapped = []
    cpu.on_runaway = lambda t: trapped.append(t) or cpu.kill_thread(t)
    done = []

    def body():
        for _ in range(5):
            yield Cycles(80)   # under the limit each time
            yield YieldCPU()
        done.append(True)

    cpu.spawn(body(), owner)
    run(sim)
    assert done == [True]
    assert trapped == []
    assert owner.cycles == 400


def test_runaway_without_kill_continues_with_fresh_allowance(sim, cpu):
    owner = FakeOwner("forgiven", limit=100)
    traps = []
    cpu.on_runaway = lambda t: traps.append(sim.now)
    done = []

    def body():
        yield Cycles(250)
        done.append(True)

    cpu.spawn(body(), owner)
    run(sim)
    assert done == [True]
    assert owner.cycles == 250
    assert len(traps) == 2  # at 100 and 200 cycles


def test_kill_blocked_thread(sim, cpu):
    waitable = FakeWaitable()
    exited = []

    def body():
        try:
            yield Block(waitable)
        finally:
            exited.append("finally")

    t = cpu.spawn(body(), FakeOwner())
    sim.schedule(10, lambda: cpu.kill_thread(t))
    run(sim)
    assert exited == ["finally"]
    assert not t.alive


def test_exit_callback_runs_on_completion(sim, cpu):
    calls = []

    def body():
        yield Cycles(1)

    t = cpu.spawn(body(), FakeOwner())
    t.on_exit(lambda th: calls.append(th.name))
    run(sim)
    assert calls == [t.name]


def test_charge_conservation_with_interrupts(sim, cpu):
    """Every consumed tick is charged to exactly one owner."""
    charges = []
    cpu.charge_listeners.append(lambda o, n: charges.append(n))
    owner = FakeOwner()

    def body():
        yield Cycles(500)
        yield Sleep(100)
        yield Cycles(300)

    cpu.spawn(body(), owner)
    sim.schedule(333, lambda: cpu.post_interrupt(
        Interrupt([(FakeOwner("i"), 77)])))
    run(sim)
    cpu.finalize_idle()
    total_cycles = sum(charges)
    assert total_cycles * TPC == sim.now


def test_thread_yielding_garbage_raises(sim, cpu):
    def body():
        yield "nonsense"

    with pytest.raises(TypeError):
        cpu.spawn(body(), FakeOwner())
        run(sim)
