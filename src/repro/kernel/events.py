"""Kernel events, semaphores, and the softclock (paper section 3.2).

*Events* let modules fork a new thread that starts executing a function
after a specified delay; the thread belongs to the event's owner.  Events
are dispatched by the *softclock*, which increments the system timer every
millisecond — the tick itself is charged to the kernel ("it is constant per
clock interrupt"), while the work done by a fired event is charged to the
event's owner.  This split is exactly the one Table 1 reports for the TCP
master event vs. the softclock rows.

*Semaphores* block threads — not only threads of the semaphore's owner.  If
a semaphore is destroyed, all blocked threads that do not belong to the
semaphore's owner are unblocked (they observe failure); the owner's own
threads are going away with the owner anyway.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, List, Tuple, TYPE_CHECKING

from repro.sim.cpu import Block, Cycles, Interrupt
from repro.kernel.errors import InvalidOperationError
from repro.kernel.owner import Owner

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

EVENT_KMEM = 96
SEMAPHORE_KMEM = 64


class KernelEvent:
    """A deferred function call, executed in a fresh thread of ``owner``.

    ``fn`` is a zero-argument callable returning a thread-body generator.
    Periodic events reschedule themselves until cancelled.
    """

    _next_id = 1

    def __init__(self, kernel: "Kernel", owner: Owner,
                 fn: Callable[[], Generator], delay_ticks: int,
                 periodic: bool = False, name: str = ""):
        if delay_ticks < 0:
            raise ValueError("delay must be non-negative")
        self.event_id = KernelEvent._next_id
        KernelEvent._next_id += 1
        self.kernel = kernel
        self.owner = owner
        self.fn = fn
        self.delay_ticks = delay_ticks
        self.periodic = periodic
        self.name = name or f"event-{self.event_id}"
        self.cancelled = False
        self.fired = 0

        owner.check_alive()
        owner.event_list.add(self)
        owner.usage.events += 1
        owner.usage.kmem += EVENT_KMEM

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.owner.event_list.discard(self)
        self.owner.usage.events -= 1
        self.owner.usage.kmem -= EVENT_KMEM
        # Let the softclock track its dead weight (lazy purge); stub
        # kernels in unit tests may have no softclock.
        softclock = getattr(self.kernel, "softclock", None)
        if softclock is not None:
            softclock.note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelEvent {self.name} owner={self.owner.name}>"


#: Lazy-purge thresholds, mirroring the simulator's compaction policy: a
#: purge costs O(n), so it only runs when the wheel is non-trivial and at
#: least half of it is cancelled dead weight.
PURGE_MIN_WHEEL = 64
PURGE_RATIO = 0.5


class Softclock:
    """The millisecond system timer and the event wheel it drives."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self._wheel: List[Tuple[int, int, KernelEvent]] = []
        self._seq = 0
        self._running = False
        self.ticks = 0
        #: Cancelled events still sitting in the wheel (lazy deletion).
        self._cancelled_pending = 0
        #: Timer-skew knob (chaos injection): the next tick is scheduled
        #: ``period * period_scale`` ticks out.  1.0 = nominal clock.
        self.period_scale = 1.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def stop(self) -> None:
        self._running = False

    def add(self, event: KernelEvent) -> None:
        """Arm an event: it fires at the first tick past its delay."""
        due = self.kernel.sim.now + event.delay_ticks
        self._seq += 1
        heapq.heappush(self._wheel, (due, self._seq, event))

    def entries(self) -> List[Tuple[int, int, str]]:
        """Canonical view of the armed (non-cancelled) wheel entries.

        Structure-independent: callers (snapshot digests, tests) see the
        same sorted ``(due, seq, name)`` list whether or not a lazy purge
        has run, so purging never perturbs replay fingerprints.
        """
        return sorted((due, seq, ev.name)
                      for due, seq, ev in self._wheel if not ev.cancelled)

    def note_cancel(self) -> None:
        """A kernel event was cancelled; purge when dead weight dominates.

        Mass cancellations (a path kill cancelling a flood of half-open
        TCP timers) would otherwise leave the wheel mostly tombstones that
        every tick pops one by one.
        """
        self._cancelled_pending += 1
        wheel = self._wheel
        if (len(wheel) >= PURGE_MIN_WHEEL
                and self._cancelled_pending >= len(wheel) * PURGE_RATIO):
            wheel[:] = [e for e in wheel if not e[2].cancelled]
            heapq.heapify(wheel)
            self._cancelled_pending = 0

    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        period = self.kernel.costs.softclock_period_ticks
        if self.period_scale != 1.0:
            period = max(1, int(period * self.period_scale))
        self.kernel.sim.schedule(period, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        now = self.kernel.sim.now
        due: List[KernelEvent] = []
        while self._wheel and self._wheel[0][0] <= now:
            _, _, ev = heapq.heappop(self._wheel)
            if ev.cancelled:
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
            elif not ev.owner.destroyed:
                due.append(ev)

        costs = self.kernel.costs
        charges = [(self.kernel.kernel_owner, costs.softclock_tick)]
        for ev in due:
            # Scheduling the event's thread is work done on the owner's
            # behalf.
            charges.append((ev.owner, costs.event_schedule))

        def fire() -> None:
            for ev in due:
                if ev.cancelled or ev.owner.destroyed:
                    continue
                ev.fired += 1
                self.kernel.spawn_thread(ev.owner, ev.fn(),
                                         name=f"{ev.name}#{ev.fired}")
                if ev.periodic and not ev.cancelled:
                    self.add(ev)
                else:
                    ev.cancel()
            if self._running:
                self._schedule_tick()

        self.kernel.cpu.post_interrupt(
            Interrupt(charges, on_complete=fire, label="softclock"))


class Semaphore:
    """A counting semaphore owned by a path or protection domain."""

    _next_id = 1

    def __init__(self, kernel: "Kernel", owner: Owner, count: int = 0,
                 name: str = ""):
        if count < 0:
            raise ValueError("initial count must be non-negative")
        self.sema_id = Semaphore._next_id
        Semaphore._next_id += 1
        self.kernel = kernel
        self.owner = owner
        self.count = count
        self.name = name or f"sema-{self.sema_id}"
        self.destroyed = False
        self._waiters: List = []  # SimThreads

        owner.check_alive()
        owner.semaphore_list.add(self)
        owner.usage.semaphores += 1
        owner.usage.kmem += SEMAPHORE_KMEM

    # -- waitable protocol (used via ``yield Block(sema)``) -------------
    def add_waiter(self, thread) -> None:
        self._waiters.append(thread)

    # ------------------------------------------------------------------
    def acquire(self) -> Generator:
        """Thread-body helper: ``ok = yield from sema.acquire()``.

        Returns True on success, False if the semaphore was destroyed while
        waiting.
        """
        yield Cycles(self.kernel.costs.semaphore_op + self.kernel.acct(1))
        while self.count == 0:
            if self.destroyed:
                return False
            yield Block(self)
        self.count -= 1
        return True

    def try_acquire(self) -> bool:
        """Non-blocking acquire (no cycle cost; callers charge)."""
        if self.destroyed or self.count == 0:
            return False
        self.count -= 1
        return True

    def release(self) -> None:
        """V operation: bump the count and wake one waiter."""
        if self.destroyed:
            raise InvalidOperationError(f"release on destroyed {self.name}")
        self.count += 1
        self._wake_one()

    def _wake_one(self) -> None:
        while self._waiters:
            t = self._waiters.pop(0)
            if t.alive:
                self.kernel.cpu.make_runnable(t)
                return

    def destroy(self) -> None:
        """Destroy the semaphore, waking all foreign waiters."""
        if self.destroyed:
            return
        self.destroyed = True
        self.owner.semaphore_list.discard(self)
        self.owner.usage.semaphores -= 1
        self.owner.usage.kmem -= SEMAPHORE_KMEM
        waiters, self._waiters = self._waiters, []
        for t in waiters:
            if t.alive:
                self.kernel.cpu.make_runnable(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Semaphore {self.name} count={self.count}>"
