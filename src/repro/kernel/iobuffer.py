"""IOBuffers: cross-domain data transfer (paper section 3.3).

IOBuffers are Escort's fbuf-like mechanism for moving blocks of data between
protection domains without copying.  The kernel rules implemented here,
straight from the paper:

* Buffers are always allocated as a multiple of the page size.
* The owner must be the current protection domain or a path crossing it.
  Domain-owned buffers map read/write in that domain only; path-owned
  buffers map read/write in the allocating domain and read-only in the
  other domains along the path, up to an optional *termination domain*.
* The identity of the domain allowed to write is stored in the buffer
  (``writer_pd`` — "the first long word" in the paper).
* Locking increments the reference count and revokes *all* write access, so
  a consumer can validate the contents once and trust them afterwards.
* Unlocking decrements the count; at zero the buffer is freed or parked in
  the buffer cache.  A later allocation whose read mappings match a cached
  buffer reuses it — only the allocating domain's mapping changes, and the
  buffer does not need to be zeroed.
* A buffer can be *associated* with a second owner (e.g. a web cache): the
  second owner is fully charged for the buffer and receives a lock, so the
  first owner releasing it can never strand the data underfunded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.kernel.domain import ProtectionDomain
from repro.kernel.errors import InvalidOperationError, PermissionError_
from repro.kernel.memory import PAGE_SIZE, PageAllocator
from repro.kernel.owner import Owner, OwnerType

#: Nominal kernel-memory footprint of the IOBuffer descriptor itself,
#: charged as kmem to the buffer's owner.
IOBUF_KMEM = 128
LOCK_KMEM = 48


class IOBufferLock:
    """One kernel lock on an IOBuffer, tracked in its owner's lock list."""

    __slots__ = ("buffer", "owner")

    def __init__(self, buffer: "IOBuffer", owner: Owner):
        self.buffer = buffer
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IOBufferLock buf={self.buffer.buf_id} owner={self.owner.name}>"


class IOBuffer:
    """A page-aligned kernel buffer mappable into several domains."""

    __slots__ = ("buf_id", "nbytes", "owner", "page_objs", "writer_pd",
                 "mappings", "locks", "charged", "cached", "freed",
                 "payload")

    _next_id = 1

    def __init__(self, nbytes: int, owner: Owner):
        if nbytes <= 0 or nbytes % PAGE_SIZE != 0:
            raise InvalidOperationError(
                f"IOBuffer size must be a positive page multiple, got {nbytes}")
        self.buf_id = IOBuffer._next_id
        IOBuffer._next_id += 1
        self.nbytes = nbytes
        self.owner = owner
        #: The physical pages backing this buffer.
        self.page_objs: List = []
        #: Domain currently allowed to write (None once locked).
        self.writer_pd: Optional[ProtectionDomain] = None
        #: pd -> "r" | "rw"
        self.mappings: Dict[ProtectionDomain, str] = {}
        self.locks: Dict[Owner, IOBufferLock] = {}
        #: Owners charged for this buffer (primary plus associated).
        self.charged: Set[Owner] = set()
        self.cached = False
        self.freed = False
        #: Opaque payload carried by the buffer (simulation stand-in for
        #: the actual bytes).
        self.payload: object = None

    @property
    def refcount(self) -> int:
        return len(self.locks)

    @property
    def pages(self) -> int:
        return self.nbytes // PAGE_SIZE

    def readable_in(self, pd: ProtectionDomain) -> bool:
        return pd in self.mappings

    def writable_in(self, pd: ProtectionDomain) -> bool:
        return self.writer_pd is pd and self.mappings.get(pd) == "rw"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<IOBuffer {self.buf_id} {self.nbytes}B owner={self.owner.name} "
                f"refs={self.refcount}>")


def pages_for(nbytes: int) -> int:
    """Pages needed to hold ``nbytes`` (IOBuffers round up to pages)."""
    return max(1, -(-nbytes // PAGE_SIZE))


class IOBufferCache:
    """The kernel's IOBuffer manager, including the reuse cache."""

    def __init__(self, allocator: PageAllocator, kernel_owner: Owner,
                 cache_capacity_pages: int = 512):
        self.allocator = allocator
        self.kernel_owner = kernel_owner
        self.cache_capacity_pages = cache_capacity_pages
        self._cache: Dict[Tuple[int, FrozenSet[ProtectionDomain]],
                          List[IOBuffer]] = {}
        self._cached_pages = 0
        self.stats_allocs = 0
        self.stats_cache_hits = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, owner: Owner, current_pd: ProtectionDomain,
              read_pds: Iterable[ProtectionDomain] = ()) -> Tuple[IOBuffer, bool]:
        """Allocate (or reuse) a buffer.  Returns ``(buffer, cache_hit)``.

        ``owner`` must be ``current_pd`` itself or a path crossing it.
        ``read_pds`` are the additional domains that get read-only mappings
        (the caller derives them from the path and any termination domain).
        """
        nbytes = pages_for(nbytes) * PAGE_SIZE
        self._validate_owner(owner, current_pd)
        read_set = frozenset(read_pds) | {current_pd}
        self.stats_allocs += 1

        key = (nbytes, read_set)
        bucket = self._cache.get(key)
        if bucket:
            buf = bucket.pop()
            if not bucket:
                del self._cache[key]
            self._cached_pages -= buf.pages
            self.stats_cache_hits += 1
            buf.cached = False
            # Re-charge pages from the cache's holder to the new owner.
            self._charge_pages(buf, owner)
            buf.owner = owner
            buf.charged = {owner}
            buf.mappings[current_pd] = "rw"
            buf.writer_pd = current_pd
            buf.payload = None
            return buf, True

        buf = IOBuffer(nbytes, owner)
        buf.page_objs = self.allocator.alloc(owner, count=buf.pages)
        owner.usage.kmem += IOBUF_KMEM
        buf.charged.add(owner)
        buf.writer_pd = current_pd
        buf.mappings = {pd: "r" for pd in read_set}
        buf.mappings[current_pd] = "rw"
        return buf, False

    def _validate_owner(self, owner: Owner, current_pd: ProtectionDomain) -> None:
        owner.check_alive()
        if owner is current_pd:
            return
        if owner.type == OwnerType.PATH:
            crossed = getattr(owner, "domains_crossed", None)
            if crossed is not None and current_pd not in crossed():
                raise PermissionError_(
                    f"{owner.name} does not cross {current_pd.name}")
            return
        if owner.type in (OwnerType.KERNEL,):
            return
        raise PermissionError_(
            f"IOBuffer owner must be the current domain or a crossing path, "
            f"got {owner.name}")

    def _charge_pages(self, buf: IOBuffer, owner: Owner) -> None:
        """Move the page charges of ``buf`` onto ``owner``."""
        for page in buf.page_objs:
            self.allocator.transfer(page, owner)
        buf.owner.usage.kmem -= IOBUF_KMEM
        owner.usage.kmem += IOBUF_KMEM

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def lock(self, buf: IOBuffer, owner: Owner) -> IOBufferLock:
        """Lock ``buf`` for ``owner``: bump refcount, revoke write access.

        At most one kernel lock per owner: an owner holds a buffer once,
        however many references to it its modules keep.
        """
        if buf.freed:
            raise InvalidOperationError("lock of freed IOBuffer")
        owner.check_alive()
        if owner in buf.locks:
            raise InvalidOperationError(
                f"{owner.name} already holds a kernel lock on buf {buf.buf_id}")
        # Locking removes all write privileges (writer id set to zero).
        if buf.writer_pd is not None:
            buf.mappings[buf.writer_pd] = "r"
            buf.writer_pd = None
        lock = IOBufferLock(buf, owner)
        buf.locks[owner] = lock
        owner.iobuffer_locks.add(lock)
        owner.usage.kmem += LOCK_KMEM
        return lock

    def unlock(self, buf: IOBuffer, owner: Owner) -> None:
        """Drop ``owner``'s lock; free or cache the buffer at refcount 0."""
        lock = buf.locks.pop(owner, None)
        if lock is None:
            raise InvalidOperationError(
                f"{owner.name} holds no lock on buf {buf.buf_id}")
        owner.iobuffer_locks.discard(lock)
        owner.usage.kmem -= LOCK_KMEM
        if owner is not buf.owner and owner in buf.charged:
            # A second (associated) owner is charged only while it holds
            # its lock — the charge was its claim on the buffer.
            owner.usage.pages -= buf.pages
            owner.usage.kmem -= IOBUF_KMEM
            buf.charged.discard(owner)
        if buf.refcount == 0:
            self._retire(buf)

    # ------------------------------------------------------------------
    # Second-owner association
    # ------------------------------------------------------------------
    def associate(self, buf: IOBuffer, second_owner: Owner,
                  current_pd: ProtectionDomain,
                  read_pds: Iterable[ProtectionDomain] = ()) -> IOBufferLock:
        """Associate ``buf`` with a second owner (web-cache pattern).

        Adds the requested read mappings, fully charges the second owner for
        the buffer's pages and descriptor, and takes a lock on its behalf.
        """
        if buf.freed:
            raise InvalidOperationError("associate on freed IOBuffer")
        self._validate_owner(second_owner, current_pd)
        for pd in read_pds:
            buf.mappings.setdefault(pd, "r")
        buf.mappings.setdefault(current_pd, "r")
        # Full charge: the second owner must be able to stand alone if the
        # original owner drops its interest.
        second_owner.usage.pages += buf.pages
        second_owner.usage.kmem += IOBUF_KMEM
        buf.charged.add(second_owner)
        return self.lock(buf, second_owner)

    # ------------------------------------------------------------------
    # Retirement, cache, reclamation
    # ------------------------------------------------------------------
    def _retire(self, buf: IOBuffer) -> None:
        """Refcount hit zero: cache the buffer if there is room, else free."""
        # Remove write mappings (paper: unlock removes all write mappings).
        if buf.writer_pd is not None:
            buf.mappings[buf.writer_pd] = "r"
            buf.writer_pd = None
        self._uncharge_associates(buf)
        if (self._cached_pages + buf.pages <= self.cache_capacity_pages
                and not buf.owner.destroyed):
            self._charge_pages(buf, self.kernel_owner)
            buf.owner = self.kernel_owner
            buf.charged = {self.kernel_owner}
            buf.cached = True
            key = (buf.nbytes, frozenset(buf.mappings))
            self._cache.setdefault(key, []).append(buf)
            self._cached_pages += buf.pages
            return
        self._free(buf)

    def _uncharge_associates(self, buf: IOBuffer) -> None:
        for owner in list(buf.charged):
            if owner is buf.owner:
                continue
            owner.usage.pages -= buf.pages
            owner.usage.kmem -= IOBUF_KMEM
            buf.charged.discard(owner)

    def _free(self, buf: IOBuffer) -> None:
        if buf.freed:
            return
        self._uncharge_associates(buf)
        for page in buf.page_objs:
            self.allocator.free(page)
        buf.page_objs = []
        buf.owner.usage.kmem -= IOBUF_KMEM
        buf.mappings.clear()
        buf.freed = True

    def reclaim_owner(self, owner: Owner) -> int:
        """Drop every lock ``owner`` holds and release its buffers.

        Part of ``pathKill``: returns the number of locks released so the
        cost model can charge per object walked.
        """
        count = 0
        for lock in list(owner.iobuffer_locks):
            buf = lock.buffer
            buf.locks.pop(owner, None)
            owner.iobuffer_locks.discard(lock)
            owner.usage.kmem -= LOCK_KMEM
            count += 1
            if buf.owner is owner:
                # The dying owner holds the primary charge: the buffer goes
                # away with it (device buffers, half-built messages...).
                self._free(buf)
            elif buf.refcount == 0:
                self._retire(buf)
            elif owner in buf.charged:
                owner.usage.pages -= buf.pages
                owner.usage.kmem -= IOBUF_KMEM
                buf.charged.discard(owner)
        return count

    @property
    def cached_buffers(self) -> int:
        return sum(len(v) for v in self._cache.values())
