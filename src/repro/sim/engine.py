"""The discrete-event engine.

A :class:`Simulator` owns the virtual clock and a priority queue of pending
:class:`Event` objects.  Everything in the reproduction — packet arrivals,
CPU burst completions, softclock ticks, TCP retransmission timers — is an
event scheduled here.

The queue is one binary heap of ``(time, seq, event)`` entries: ``seq`` is
the global scheduling counter, so ties in time break by insertion order and
sift comparisons stay on C-level int tuples (the entries' keys are unique,
so the heap never compares the events themselves).  Execution order is
exactly ``(time, seq)`` order, which keeps runs deterministic; the
snapshot/replay subsystem (:mod:`repro.snapshot`) verifies that guarantee
by digest comparison.

One loop body, :meth:`Simulator._drain`, pops and fires events;
:meth:`~Simulator.step`, :meth:`~Simulator.step_until` and
:meth:`~Simulator.run` are thin calls into it.

Events are cancellable: cancelling marks the event dead and the loop skips
it when popped (lazy deletion, the standard trick for heap-backed
simulators).  When cancelled events outnumber live ones the heap is
compacted in place, so long runs that cancel many timers (TCP retransmits
are the classic case) neither grow the heap nor pin the cancelled
callbacks' closures.

The ledger is exact: every scheduled event is, at any instant, in exactly
one of three states — executed (``events_processed``), stored in the heap
(``pending()``, live or cancelled), or cancelled and discarded
(``cancelled_removed``) — so
``seq == events_processed + pending() + cancelled_removed`` always holds;
:meth:`Simulator.check_invariant` asserts it and the tier-1 suite calls it
after full runs.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

#: Compaction is considered once the queue is at least this large; below
#: it the lazy-deletion garbage is too small to matter.
COMPACT_MIN_QUEUE = 64

#: Compact once cancelled events exceed this fraction of the queue.
COMPACT_RATIO = 0.5

#: ``_progress_at`` when no progress hook is installed: no event count ever
#: reaches it, so the per-event check stays a single false comparison.
_NEVER = 1 << 62


class Event:
    """A scheduled callback.

    Created through :meth:`Simulator.schedule` / :meth:`Simulator.at`; user
    code only ever needs :meth:`cancel` and :attr:`time`.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "fired", "sim")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event dead; it will never fire.

        The callback reference is dropped immediately — a cancelled event
        may sit in the heap until popped or compacted away, and it must not
        keep its closure (and whatever the closure captures) alive.

        Cancelling an event that already fired is a no-op: the event is
        not stored anywhere, so there is nothing to cancel and no
        lazy-deletion debt to record (stale timer handles — a retransmit
        timer cancelled after it fired — hit this path constantly).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.fn = None
        if self.sim is not None:
            self.sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # The heap compares (time, seq, event) tuples and never reaches the
        # event (keys are unique); kept for user-code sorting.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        if self.fired:
            state += " fired"
        return f"<Event t={self.time} seq={self.seq}{state}>"


class Simulator:
    """Virtual clock plus event queue.

    The clock unit is the integer *tick* defined in :mod:`repro.sim.clock`.
    A single Simulator instance is shared by every component of a testbed
    (server, clients, links); components keep a reference to it and schedule
    their own events.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: Heap of ``(time, seq, event)`` entries.
        self._queue: List[Tuple[int, int, Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        # Cancelled events still sitting in the heap (lazy-deletion debt).
        self._cancelled_pending: int = 0
        # Cancelled events already discarded (popped or compacted out) —
        # the closing entry of the exact ledger.
        self._cancelled_removed: int = 0
        self.compactions: int = 0
        # Progress hook: an out-of-band callback fired every N executed
        # events (see set_progress_hook).  ``_progress_at`` is the next
        # events_processed threshold.
        self._progress_hook: Optional[Callable[[], None]] = None
        self._progress_every: int = 0
        self._progress_at: int = _NEVER

    # ------------------------------------------------------------------
    # Progress hook
    # ------------------------------------------------------------------
    def set_progress_hook(self, fn: Callable[[], None],
                          every_events: int = 1000) -> None:
        """Call ``fn()`` after every ``every_events`` executed events.

        The hook is for *out-of-band* work only — supervision heartbeats,
        crash-injection triggers, wall-clock watchdogs.  It runs between
        events (never mid-callback) and must not schedule, cancel, or
        otherwise touch simulated state: determinism is guaranteed only
        for hooks the simulation cannot observe.
        """
        if every_events < 1:
            raise ValueError(f"every_events must be >= 1: {every_events}")
        self._progress_hook = fn
        self._progress_every = every_events
        self._progress_at = self._events_processed + every_events

    def clear_progress_hook(self) -> None:
        """Remove the progress hook (the per-event check goes dormant)."""
        self._progress_hook = None
        self._progress_every = 0
        self._progress_at = _NEVER

    def _fire_progress(self) -> None:
        # Re-arm before calling: a hook that raises (or never returns —
        # an injected hang) must not be re-entered on the same threshold.
        self._progress_at = self._events_processed + self._progress_every
        self._progress_hook()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        # Not ``return self.at(...)``: these two are the hottest calls in
        # the repository, and wrappers that count scheduled events patch
        # both, so neither may go through the other.
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, self)
        heappush(self._queue, (time, seq, ev))
        return ev

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute tick ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.now}")
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, self)
        heappush(self._queue, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        queued = len(self._queue)
        if (self._cancelled_pending > queued * COMPACT_RATIO
                and queued >= COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events.

        Execution order is unaffected: live events keep their unique
        ``(time, seq)`` keys, so replays are bit-identical whether or not
        a compaction happened.  In place (slice assignment), so the run
        loop's local binding of the queue list stays valid when a callback
        cancels enough events to trigger a compaction mid-run.
        """
        queue = self._queue
        before = len(queue)
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapify(queue)
        removed = before - len(queue)
        self._cancelled_pending -= removed
        self._cancelled_removed += removed
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self, until: float, single: bool) -> bool:
        """The event loop: fire events due at or before ``until`` (a tick,
        or ``math.inf`` for no horizon).

        Events fire in ``(time, seq)`` order; cancelled entries met at the
        head are discarded on the way.  With ``single`` the loop returns
        True right after the first event it fires.  Returns False once no
        live event is due.
        """
        queue = self._queue
        while queue:
            time, _seq, ev = queue[0]
            if ev.cancelled:
                heappop(queue)
                self._cancelled_pending -= 1
                self._cancelled_removed += 1
                continue
            if time > until:
                break
            heappop(queue)
            self.now = time
            ev.fired = True
            self._events_processed += 1
            ev.fn()
            if self._events_processed >= self._progress_at:
                self._fire_progress()
            if single:
                return True
        return False

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        return self._drain(math.inf, True)

    def step_until(self, until: int) -> bool:
        """Run the next event if it is due at or before ``until``.

        Returns True when exactly one event executed, False when the next
        live event (if any) lies beyond ``until``.  Unlike :meth:`run`, the
        clock is *not* advanced to ``until`` on False — call
        :meth:`finish_until` for that.  ``run(until=X)`` is exactly
        ``while step_until(X): pass`` followed by ``finish_until(X)``; the
        replay driver uses this decomposition to observe the machine
        between events.
        """
        return self._drain(until, True)

    def finish_until(self, until: int) -> None:
        """Advance the clock to exactly ``until`` (if it is not there yet)."""
        if self.now < until:
            self.now = until

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so measurement windows have a
        well-defined end time.
        """
        if until is None:
            self._drain(math.inf, False)
            return
        self._drain(until, False)
        self.finish_until(until)

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` ticks from the current time."""
        self.run(until=self.now + duration)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for engine diagnostics)."""
        return self._events_processed

    @property
    def seq(self) -> int:
        """Total events ever scheduled (monotonic; part of state digests)."""
        return self._seq

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled_pending

    def cancelled_removed(self) -> int:
        """Cancelled events already discarded from the heap."""
        return self._cancelled_removed

    def live_events(self) -> List[Tuple[int, int]]:
        """Sorted ``(time, seq)`` keys of every live queued event.

        This is the queue's *shape* independent of the heap's internal
        layout, so digests built from it are stable across compactions.
        """
        return sorted((time, seq) for time, seq, ev in self._queue
                      if not ev.cancelled)

    def check_invariant(self) -> None:
        """Assert the exact scheduling ledger (cheap; O(1)).

        Every scheduled event is executed, stored, or cancelled-and-
        discarded — no event is ever lost or double-counted.  Raises
        AssertionError with the full ledger on breach.
        """
        stored = self.pending()
        total = self._events_processed + stored + self._cancelled_removed
        if total != self._seq:
            raise AssertionError(
                f"event ledger breach: scheduled={self._seq} != "
                f"processed={self._events_processed} + stored={stored} + "
                f"cancelled_removed={self._cancelled_removed} "
                f"(= {total}); health={self.queue_health()}")

    def queue_health(self) -> dict:
        """Engine-health counters, read by the perf runs and the obs
        session's ``sim.*`` series.

        ``wheel_scheduled``, ``fast_lane_events`` and ``cancelled_wheel``
        are always 0: the engine has one queue, and the keys stay so that
        readers of the earlier report shape (``perfbench/run.py``) keep
        working.
        """
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "scheduled": self._seq,
            "pending": self.pending(),
            "cancelled_pending": self._cancelled_pending,
            "cancelled_removed": self._cancelled_removed,
            "compactions": self.compactions,
            "wheel_scheduled": 0,
            "fast_lane_events": 0,
            "cancelled_wheel": 0,
        }
