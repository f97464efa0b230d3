"""The Owner data structure — the paper's Figure 4.

Every resource in Escort is charged to an owner, which is either a *path* or
a *protection domain* (plus two kernel-internal pseudo-owners used for the
kernel itself and for idle time, so the cycle ledger always sums to the wall
clock).

Mirroring the paper, the structure has three parts:

* **Accounting** — counters of resources consumed (kernel memory, pages,
  stacks, CPU cycles, events, semaphores).  Policies read these to detect
  violations.
* **Tracking** — the actual kernel objects associated with the owner, kept
  in collections that support fast removal so the owner can be destroyed
  cheaply (Table 2 measures exactly this walk).
* **Scheduling** — per-owner state of the proportional-share scheduler
  (:mod:`repro.kernel.sched`): tickets and virtual time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.kernel.errors import OwnerDestroyedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.memory import Page
    from repro.kernel.threads import EscortThread
    from repro.kernel.events import KernelEvent, Semaphore
    from repro.kernel.iobuffer import IOBufferLock


class OwnerType(enum.Enum):
    """What kind of principal an owner is."""

    PATH = "path"
    PROTECTION_DOMAIN = "pd"
    KERNEL = "kernel"
    IDLE = "idle"


@dataclass
class ResourceUsage:
    """The accounting half of the Owner structure (Figure 4, first part)."""

    kmem: int = 0          # bytes of kernel memory for tracked objects
    heap_bytes: int = 0    # bytes charged out of protection-domain heaps
    pages: int = 0         # whole memory pages
    stacks: int = 0        # thread stacks
    cycles: int = 0        # CPU cycles consumed
    events: int = 0        # live kernel events
    semaphores: int = 0    # live semaphores

    def snapshot(self) -> "ResourceUsage":
        return ResourceUsage(self.kmem, self.heap_bytes, self.pages,
                             self.stacks, self.cycles, self.events,
                             self.semaphores)


class SchedState:
    """Per-owner scheduler state (Figure 4, third part).

    The proportional-share scheduler's two fields: the owner's ticket
    grant and its stride-scheduling virtual time ("pass").
    """

    __slots__ = ("tickets", "stride_pass")

    def __init__(self) -> None:
        self.tickets = 1
        self.stride_pass = 0


def _category(otype: OwnerType, name: str) -> str:
    if otype == OwnerType.IDLE:
        return "idle"
    if otype == OwnerType.KERNEL:
        return "kernel"
    if otype == OwnerType.PROTECTION_DOMAIN:
        return f"pd:{name}"
    if name.startswith("passive"):
        return "passive-path"
    if name.startswith("conn"):
        return "active-path"
    return f"path:{name}"


class Owner:
    """A principal that resources are charged to.

    Subclassed by :class:`~repro.core.path.Path` and
    :class:`~repro.kernel.domain.ProtectionDomain` — the paper makes Owner
    the first element of both structs; inheritance is the Python analogue.
    """

    _next_id = 1

    def __init__(self, otype: OwnerType, name: str = ""):
        self.oid = Owner._next_id
        Owner._next_id += 1
        self.type = otype
        self.name = name or f"{otype.value}-{self.oid}"
        #: Table 1's category, what the experiment harness's cycle ledger
        #: tallies: ``idle``, ``kernel``, ``pd:<name>``, ``passive-path``,
        #: ``active-path`` (connection paths) or ``path:<name>``.
        self.category = _category(otype, self.name)

        # -- Accounting ------------------------------------------------
        self.usage = ResourceUsage()

        # -- Tracking (doubly-linked lists in the paper; Python sets and
        #    dicts give the same O(1) removal) ---------------------------
        self.page_list: Set["Page"] = set()
        self.thread_list: Set["EscortThread"] = set()
        self.iobuffer_locks: Set["IOBufferLock"] = set()
        self.event_list: Set["KernelEvent"] = set()
        self.semaphore_list: Set["Semaphore"] = set()
        self.heap_allocations: Set = set()   # HeapAllocation objects

        # -- Scheduling --------------------------------------------------
        self.sched = SchedState()

        #: Maximum thread runtime without a yield, in cycles (None =
        #: unlimited).  Enforced by the CPU; the CGI policy sets 2 ms.
        self.runtime_limit_cycles: Optional[int] = None

        self.destroyed = False
        self._destroy_callbacks: List[Callable[["Owner"], None]] = []

        #: Arbitrary per-owner policy state (e.g. SYN_RECVD counts live on
        #: the passive path because "this number is part of the path
        #: state").
        self.policy_state: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Accounting entry points
    # ------------------------------------------------------------------
    def charge_cycles(self, n: int) -> None:
        """Charge ``n`` CPU cycles to this owner (called by the CPU)."""
        self.usage.cycles += n

    def check_alive(self) -> None:
        if self.destroyed:
            raise OwnerDestroyedError(f"{self.name} has been destroyed")

    # ------------------------------------------------------------------
    # Destruction support
    # ------------------------------------------------------------------
    def on_destroy(self, fn: Callable[["Owner"], None]) -> None:
        """Register a callback to run when this owner is destroyed."""
        self._destroy_callbacks.append(fn)

    def run_destroy_callbacks(self) -> None:
        callbacks, self._destroy_callbacks = self._destroy_callbacks, []
        for fn in callbacks:
            fn(self)

    def tracked_object_count(self) -> int:
        """Total tracked kernel objects (used by Table 2's cost model)."""
        return (len(self.page_list) + len(self.thread_list)
                + len(self.iobuffer_locks) + len(self.event_list)
                + len(self.semaphore_list) + len(self.heap_allocations))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Owner {self.name} ({self.type.value})>"


def make_kernel_owner() -> Owner:
    """The pseudo-owner charged for kernel work (softclock ticks etc.)."""
    return Owner(OwnerType.KERNEL, name="kernel")


def make_idle_owner() -> Owner:
    """The pseudo-owner charged when the CPU has nothing to run."""
    return Owner(OwnerType.IDLE, name="idle")
