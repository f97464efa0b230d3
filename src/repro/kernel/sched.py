"""Escort's thread scheduler: proportional share (stride scheduling).

The paper lists three schedulers ("a priority-based scheduler, a
proportional share scheduler, and an EDF scheduler"), but every result it
reports runs proportional share: "a proportional share scheduler is used
to ensure that the path responsible for this connection receives this
bandwidth" (section 4.1.2).  This is the one the kernel runs.

The scheduler schedules *owners* (paths / protection domains) and
round-robins among an owner's runnable threads; per-owner scheduling is
what makes QoS guarantees per path possible.  The CPU drives it through
four methods (``enqueue``, ``dequeue``, ``pick``, ``on_charge``).

Owners hold *tickets* (``owner.sched.tickets``); over any interval in
which an owner stays runnable it receives CPU in proportion to its
tickets.  Each owner advances a virtual time ("pass") by
``cycles * STRIDE1 / tickets`` as it consumes cycles; the runnable owner
with the smallest pass runs next.  Owners waking from idle are clamped to
the current minimum pass so sleeping cannot bank credit — that clamp is
what makes the scheduler work-conserving while still protecting
reservations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.sim.cpu import SimThread
from repro.kernel.owner import Owner

#: Stride normalization constant (large so integer division keeps
#: precision even for big ticket counts).
STRIDE1 = 1 << 20


class ProportionalShareScheduler:
    """Stride scheduling over owners, round-robin within an owner."""

    def __init__(self) -> None:
        #: Each runnable owner's FIFO of runnable threads.
        self._runnable: Dict[Owner, Deque[SimThread]] = {}
        #: The owner whose thread the CPU is currently running.  It has
        #: left the runnable map, but its pass must still anchor the
        #: virtual-time floor — otherwise every yield would re-clamp it
        #: against the *other* owners and erase its ticket advantage.
        self._serving: Optional[Owner] = None

    def enqueue(self, thread: SimThread) -> None:
        owner = thread.owner
        queue = self._runnable.get(owner)
        if queue is not None:
            queue.append(thread)
            return
        self._runnable[owner] = deque((thread,))
        if owner is self._serving:
            # The owner is continuing (its thread yielded or re-blocked
            # mid-service); it never really left, so no wake clamp — this
            # is what preserves a reservation's advantage while it stays
            # busy.
            return
        floor = self._min_pass(exclude=owner)
        if floor is not None and owner.sched.stride_pass < floor:
            owner.sched.stride_pass = floor

    def dequeue(self, thread: SimThread) -> None:
        owner = thread.owner
        queue = self._runnable.get(owner)
        if queue is None:
            return
        try:
            queue.remove(thread)
        except ValueError:
            return
        if not queue:
            del self._runnable[owner]

    def pick(self) -> Optional[SimThread]:
        runnable = self._runnable
        while runnable:
            best = None
            best_key = None
            for owner in runnable:
                key = (owner.sched.stride_pass, owner.oid)
                if best_key is None or key < best_key:
                    best = owner
                    best_key = key
            self._serving = best
            queue = runnable[best]
            thread = queue.popleft()
            if not queue:
                del runnable[best]
            if thread.alive:
                return thread
        return None

    def forget(self, owner: Owner) -> None:
        """Drop the destroyed ``owner`` if it was the one served last.

        A destroyed owner never enqueues again and ``_min_pass`` already
        ignores it, so this changes no pick; it only stops an idle CPU's
        scheduler from keeping a killed path alive until the next pick.
        """
        if self._serving is owner:
            self._serving = None

    def on_charge(self, thread: SimThread, cycles: int) -> None:
        sched = thread.owner.sched
        tickets = sched.tickets
        if tickets < 1:
            tickets = 1
        sched.stride_pass += cycles * STRIDE1 // tickets

    def _min_pass(self, exclude: Owner) -> Optional[int]:
        best = None
        for owner in self._runnable:
            if owner is exclude:
                continue
            p = owner.sched.stride_pass
            if best is None or p < best:
                best = p
        serving = self._serving
        if serving is not None and serving is not exclude \
                and not serving.destroyed:
            p = serving.sched.stride_pass
            if best is None or p < best:
                best = p
        return best
