"""Physical memory: the page allocator.

The Escort kernel "allows memory allocation at the page level only" (paper
section 2.4); protection domains build heaps on top of pages and hand out
smaller objects, optionally charging them to paths that cross the domain.

Pages are tracked in their owner's ``page_list`` so that destroying an owner
can reclaim them by walking the list — the operation Table 2 prices.
"""

from __future__ import annotations

from typing import Set

from repro.kernel.errors import InvalidOperationError, ResourceLimitError
from repro.kernel.owner import Owner

#: Page size of the simulated Alpha (8 KB, the 21064's page size).
PAGE_SIZE = 8192


class Page:
    """One physical page, owned by exactly one owner at a time."""

    _next_id = 1

    __slots__ = ("page_id", "owner")

    def __init__(self, owner: Owner):
        self.page_id = Page._next_id
        Page._next_id += 1
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Page {self.page_id} owner={self.owner.name}>"


class PageAllocator:
    """Fixed-size pool of physical pages.

    ``total_pages`` defaults to 8192 pages = 64 MB, the class of machine the
    paper used.
    """

    def __init__(self, total_pages: int = 8192):
        if total_pages <= 0:
            raise ValueError("total_pages must be positive")
        self.total_pages = total_pages
        self.allocated: Set[Page] = set()

    @property
    def free_pages(self) -> int:
        return self.total_pages - len(self.allocated)

    def alloc(self, owner: Owner, count: int = 1) -> list:
        """Allocate ``count`` pages charged to ``owner``.

        Raises :class:`ResourceLimitError` when the pool is exhausted —
        which is itself a detectable denial-of-service signal.
        """
        owner.check_alive()
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_pages:
            raise ResourceLimitError(
                f"out of pages: requested {count}, free {self.free_pages}")
        pages = []
        for _ in range(count):
            page = Page(owner)
            self.allocated.add(page)
            owner.page_list.add(page)
            owner.usage.pages += 1
            pages.append(page)
        return pages

    def free(self, page: Page) -> None:
        """Return one page to the pool."""
        if page not in self.allocated:
            raise InvalidOperationError(f"double free of {page!r}")
        self.allocated.discard(page)
        page.owner.page_list.discard(page)
        page.owner.usage.pages -= 1

    def transfer(self, page: Page, new_owner: Owner) -> None:
        """Re-charge a page to a different owner (used by domain heaps)."""
        new_owner.check_alive()
        if page not in self.allocated:
            raise InvalidOperationError(f"transfer of unallocated {page!r}")
        old = page.owner
        old.page_list.discard(page)
        old.usage.pages -= 1
        page.owner = new_owner
        new_owner.page_list.add(page)
        new_owner.usage.pages += 1

    def reclaim_all(self, owner: Owner) -> int:
        """Free every page owned by ``owner``; returns the count freed.

        This is the page-walk portion of ``pathKill``.
        """
        pages = list(owner.page_list)
        for page in pages:
            self.free(page)
        return len(pages)
