"""Bounded queues (one of Escort's trusted libraries).

Paths have source and sink queues; data is enqueued at one end of the path
and a thread is scheduled to execute the path.  The queue here is the
blocking primitive those threads use.  It is deliberately simple: bounded
FIFO, blocking ``get``, non-blocking ``put`` that reports overflow (a
dropped packet) instead of blocking the producer — device drivers must
never block in interrupt context.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, TYPE_CHECKING

from repro.sim.cpu import Block

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class BoundedQueue:
    """Bounded FIFO with a blocking generator-style ``get``."""

    def __init__(self, kernel: "Kernel", capacity: int = 64, name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name or "queue"
        self._items: Deque = deque()
        self._waiters: List = []
        self.closed = False
        self.drops = 0

    # -- waitable protocol ----------------------------------------------
    def add_waiter(self, thread) -> None:
        self._waiters.append(thread)

    # ------------------------------------------------------------------
    def put(self, item) -> bool:
        """Enqueue; returns False (and counts a drop) when full or closed."""
        if self.closed or len(self._items) >= self.capacity:
            self.drops += 1
            return False
        self._items.append(item)
        self._wake_one()
        return True

    def get(self) -> Generator:
        """Thread-body helper: ``item = yield from q.get()``.

        Returns ``None`` if the queue is closed while waiting.
        """
        while not self._items:
            if self.closed:
                return None
            yield Block(self)
        return self._items.popleft()

    def get_nowait(self):
        """Pop without blocking; None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def close(self) -> None:
        """Close the queue and wake all waiters (they observe None)."""
        self.closed = True
        waiters, self._waiters = self._waiters, []
        for t in waiters:
            if t.alive:
                self.kernel.cpu.make_runnable(t)

    def _wake_one(self) -> None:
        while self._waiters:
            t = self._waiters.pop(0)
            if t.alive:
                self.kernel.cpu.make_runnable(t)
                return

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BoundedQueue {self.name} {len(self._items)}/{self.capacity}>"
