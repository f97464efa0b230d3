"""Protection domains and their heaps.

A protection domain isolates one or more modules (paper section 2.3).  The
kernel hands out memory to domains at page granularity only; each domain
runs a *heap* that suballocates those pages and can charge the resulting
objects to paths that cross the domain — "the memory charged toward a path
is then deducted from the memory charged to the protection domain" (section
2.4).

Destroying a protection domain destroys every path that crosses it, because
paths may reference the domain's module state (e.g. IP's routing table).
Modules register *destructor functions* with paths; a destructor runs in the
module's domain on ``pathDestroy`` and transfers the charge for the memory
back to the domain.
"""

from __future__ import annotations

from typing import List, Optional, Set, TYPE_CHECKING

from repro.kernel.errors import (
    InvalidOperationError,
    PermissionError_,
    ResourceLimitError,
)
from repro.kernel.memory import PAGE_SIZE, PageAllocator
from repro.kernel.owner import Owner, OwnerType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.path import Path


class HeapAllocation:
    """One object handed out by a domain heap."""

    _next_id = 1

    __slots__ = ("alloc_id", "domain", "nbytes", "charged_to", "label")

    def __init__(self, domain: "ProtectionDomain", nbytes: int,
                 charged_to: Owner, label: str = ""):
        self.alloc_id = HeapAllocation._next_id
        HeapAllocation._next_id += 1
        self.domain = domain
        self.nbytes = nbytes
        self.charged_to = charged_to
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HeapAllocation {self.label or self.alloc_id} "
                f"{self.nbytes}B -> {self.charged_to.name}>")


class ProtectionDomain(Owner):
    """A hardware-enforced protection domain.

    Owns pages (its heap arena), module global state, and domain-owned
    threads.  The ``privileged`` domain is the kernel's own; trusted modules
    may be configured into it.
    """

    def __init__(self, name: str, privileged: bool = False):
        super().__init__(OwnerType.PROTECTION_DOMAIN, name=name)
        self.privileged = privileged
        self.module_names: List[str] = []
        #: Paths currently crossing this domain (so destroying the domain
        #: can destroy them too).
        self.crossing_paths: Set["Path"] = set()
        # Heap bookkeeping: bytes backed by pages vs bytes handed out.
        self._heap_capacity = 0
        self._heap_used = 0
        self._allocations: Set[HeapAllocation] = set()

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def heap_grow(self, allocator: PageAllocator, pages: int) -> None:
        """Acquire ``pages`` pages from the kernel to back the heap."""
        allocator.alloc(self, count=pages)
        self._heap_capacity += pages * PAGE_SIZE

    def heap_alloc(self, nbytes: int, charge_to: Optional[Owner] = None,
                   label: str = "",
                   allocator: Optional[PageAllocator] = None) -> HeapAllocation:
        """Allocate ``nbytes`` from this domain's heap.

        ``charge_to`` may be a path crossing this domain (the common case —
        per-connection state is charged to the connection's path) or
        ``None`` to charge the domain itself.  When the heap arena is full
        and ``allocator`` is provided, the heap grows by whole pages.
        """
        self.check_alive()
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        owner = charge_to if charge_to is not None else self
        owner.check_alive()
        if owner is not self and owner.type == OwnerType.PATH:
            if self not in getattr(owner, "domains_crossed", lambda: [self])():
                raise PermissionError_(
                    f"{owner.name} does not cross domain {self.name}")
        while self._heap_used + nbytes > self._heap_capacity:
            if allocator is None:
                raise ResourceLimitError(
                    f"heap of {self.name} exhausted "
                    f"({self._heap_used}/{self._heap_capacity} bytes)")
            grow = max(1, -(-nbytes // PAGE_SIZE))
            self.heap_grow(allocator, grow)
        self._heap_used += nbytes
        alloc = HeapAllocation(self, nbytes, owner, label=label)
        self._allocations.add(alloc)
        owner.heap_allocations.add(alloc)
        owner.usage.heap_bytes += nbytes
        if owner is not self:
            # Chargeback: deduct from the domain, charge the path.
            self.usage.heap_bytes -= nbytes
        return alloc

    def heap_free(self, alloc: HeapAllocation) -> None:
        """Return an allocation to the heap."""
        if alloc not in self._allocations:
            raise InvalidOperationError(f"double free of {alloc!r}")
        self._allocations.discard(alloc)
        owner = alloc.charged_to
        owner.heap_allocations.discard(alloc)
        owner.usage.heap_bytes -= alloc.nbytes
        if owner is not self:
            self.usage.heap_bytes += alloc.nbytes
        self._heap_used -= alloc.nbytes

    def heap_transfer(self, alloc: HeapAllocation, new_owner: Owner) -> None:
        """Move the charge for an allocation to a different owner.

        Used by module destructor functions: on ``pathDestroy`` the charge
        for path memory "transfers back to the protection domain".
        """
        new_owner.check_alive()
        old = alloc.charged_to
        if old is new_owner:
            return
        old.heap_allocations.discard(alloc)
        old.usage.heap_bytes -= alloc.nbytes
        if old is not self:
            self.usage.heap_bytes += alloc.nbytes
        alloc.charged_to = new_owner
        new_owner.heap_allocations.add(alloc)
        new_owner.usage.heap_bytes += alloc.nbytes
        if new_owner is not self:
            self.usage.heap_bytes -= alloc.nbytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def heap_capacity(self) -> int:
        return self._heap_capacity

    @property
    def heap_used(self) -> int:
        return self._heap_used

    def live_allocations(self) -> int:
        return len(self._allocations)

    def reclaim_path_allocations(self, path: Owner) -> int:
        """Free every heap object charged to ``path`` (pathKill's sweep).

        Returns the number of objects freed.  Unlike a destructor run, this
        does not give the module a chance to run cleanup code — that is the
        defining difference between ``pathKill`` and ``pathDestroy``.
        """
        allocs = [a for a in path.heap_allocations if a.domain is self]
        for alloc in allocs:
            self.heap_free(alloc)
        return len(allocs)
