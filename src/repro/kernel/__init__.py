"""The Escort kernel.

Escort extends Scout with two mechanisms (paper sections 2.3-2.4): resource
*accounting* — every resource is charged to an :class:`~repro.kernel.owner.Owner`,
which is either a path or a protection domain — and hardware-enforced
*protection domains* around the modules configured into the system.

This package implements Escort's kernel objects: owners, protection
domains, memory pages and heaps, IOBuffers, threads, events, semaphores,
the softclock, the proportional-share scheduler (the only one of the
paper's three schedulers its results use), and the role-based ACL guarding
the kernel itself.  Escort's modules reach these objects through system
calls; here the modules are trusted in-process code that call them
directly, and the cost model charges each protection-domain crossing.
"""

from repro.kernel.errors import (
    EscortError,
    PermissionError_,
    ResourceLimitError,
    OwnerDestroyedError,
    InvalidOperationError,
)
from repro.kernel.owner import Owner, OwnerType, ResourceUsage
from repro.kernel.memory import Page, PageAllocator, PAGE_SIZE
from repro.kernel.domain import ProtectionDomain, HeapAllocation
from repro.kernel.iobuffer import IOBuffer, IOBufferCache
from repro.kernel.events import KernelEvent, Semaphore, Softclock
from repro.kernel.threads import EscortThread, ThreadPool
from repro.kernel.acl import AccessControlList, Role
from repro.kernel.kernel import Kernel, KernelConfig

__all__ = [
    "EscortError",
    "PermissionError_",
    "ResourceLimitError",
    "OwnerDestroyedError",
    "InvalidOperationError",
    "Owner",
    "OwnerType",
    "ResourceUsage",
    "Page",
    "PageAllocator",
    "PAGE_SIZE",
    "ProtectionDomain",
    "HeapAllocation",
    "IOBuffer",
    "IOBufferCache",
    "KernelEvent",
    "Semaphore",
    "Softclock",
    "EscortThread",
    "ThreadPool",
    "AccessControlList",
    "Role",
    "Kernel",
    "KernelConfig",
]
