"""The Escort kernel proper.

One :class:`Kernel` instance is the privileged core of a simulated Escort
machine: it owns the CPU, the page allocator, the IOBuffer manager, the
softclock, the ACL, and the registry of protection domains, and it provides
the owner-destruction machinery that ``pathKill`` and domain teardown use.

Configuration (:class:`KernelConfig`) selects the two dimensions the paper
evaluates: whether *accounting* is enabled (the ~8 % overhead of the
"Accounting" configuration) and whether *protection domains* are enforced
(the "Accounting_PD" configuration, where each inter-module call pays a
crossing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

from repro.sim.clock import SERVER_TICKS_PER_CYCLE
from repro.sim.cpu import CPU, Interrupt, SimThread
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.kernel.acl import AccessControlList, Role
from repro.kernel.domain import ProtectionDomain
from repro.kernel.errors import InvalidOperationError
from repro.kernel.events import KernelEvent, Semaphore, Softclock
from repro.kernel.iobuffer import IOBufferCache
from repro.kernel.memory import PageAllocator
from repro.kernel.owner import (
    Owner,
    OwnerType,
    make_idle_owner,
    make_kernel_owner,
)
from repro.kernel.queues import BoundedQueue
from repro.kernel.quota import QuotaEnforcer
from repro.kernel.sched import ProportionalShareScheduler
from repro.kernel.threads import EscortThread


#: Physical pages of every Escort machine.
TOTAL_PAGES = 8192


@dataclass
class KernelConfig:
    """Build-time configuration of an Escort kernel."""

    #: Account for all resource usage (the paper's "Accounting" configs).
    accounting: bool = True
    #: Enforce protection domains (the paper's "Accounting_PD" config).
    protection_domains: bool = False
    costs: CostModel = field(default_factory=CostModel.default)


@dataclass
class KillReport:
    """What a ``kill_owner`` reclaimed, and what it cost (Table 2)."""

    owner_name: str
    cycles: int
    pages: int
    threads: int
    stacks: int
    iobuf_locks: int
    events: int
    semaphores: int
    heap_allocations: int
    domains_visited: int


class Kernel:
    """The privileged protection domain: kernel objects and their services."""

    def __init__(self, sim: Simulator, config: Optional[KernelConfig] = None):
        self.sim = sim
        self.config = config or KernelConfig()
        self.costs = self.config.costs
        # Accounting is a boot-time decision: fold the enabled check into
        # a precomputed per-op cost so ``acct`` is one multiply.
        self.acct_unit = (self.costs.accounting_op
                          if self.config.accounting else 0)

        self.kernel_owner = make_kernel_owner()
        self.idle_owner = make_idle_owner()

        self.cpu = CPU(sim, SERVER_TICKS_PER_CYCLE,
                       scheduler=ProportionalShareScheduler(),
                       idle_owner=self.idle_owner)
        self.cpu.on_runaway = self._handle_runaway

        self.allocator = PageAllocator(TOTAL_PAGES)
        self.iobufs = IOBufferCache(self.allocator, self.kernel_owner)
        self.softclock = Softclock(self)
        self.acl = AccessControlList()

        self.quotas = QuotaEnforcer(self)
        self.privileged_domain = ProtectionDomain("privileged",
                                                  privileged=True)
        self.domains: List[ProtectionDomain] = [self.privileged_domain]

        #: Policy hook invoked when a thread exceeds its owner's runtime
        #: limit.  Default: destroy the owner (the paper's CGI defence).
        self.runaway_policy: Callable[[SimThread], None] = \
            self._default_runaway_policy
        self.kill_reports: List[KillReport] = []
        self.runaway_traps = 0

        # -- fault containment (chaos subsystem hooks) -------------------
        #: Exceptions that escaped a thread body and were contained by
        #: destroying the faulting owner.
        self.fault_traps = 0
        #: Faults whose owner could not be destroyed (kernel/idle pseudo-
        #: owners and the privileged domain are never killed).
        self.uncontained_faults = 0

        #: Kernel watchdog (see :mod:`repro.chaos.watchdog`); attached by
        #: the chaos harness, notified of every owner destruction.
        self.watchdog = None
        #: Listeners notified after every ``kill_owner`` completes, with
        #: ``(owner, report)``.  The invariant checker hangs off this.
        self.kill_listeners: List[Callable[[Owner, "KillReport"], None]] = []

        # -- admission control (graceful degradation) --------------------
        #: While True, ``path_create`` rejects new non-listening paths
        #: cheaply instead of admitting work the kernel cannot finish.
        #: Toggled by the watchdog when the kernel is saturated.
        self.shedding = False
        #: Paths rejected by admission control.
        self.sheds = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def create_domain(self, name: str, privileged: bool = False,
                      role: Optional[Role] = None) -> ProtectionDomain:
        """Create a protection domain (configuration-time operation).

        When protection domains are disabled, callers still get domain
        objects (modules need owners for their global state) — there is
        simply no crossing cost and no isolation, exactly like the paper's
        single-domain configurations.
        """
        pd = ProtectionDomain(name, privileged=privileged)
        self.domains.append(pd)
        if role is not None:
            self.acl.assign(pd, role)
        return pd

    def boot(self) -> None:
        """Start kernel services (the softclock)."""
        self.softclock.start()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def acct(self, ops: int = 1) -> int:
        """Cycle cost of ``ops`` accounting operations (0 when disabled).

        Module and kernel code adds this to the cycles it yields whenever
        it performs an accountable operation; this is the mechanism behind
        the paper's ~8 % accounting overhead.
        """
        return ops * self.acct_unit

    @property
    def pd_enabled(self) -> bool:
        return self.config.protection_domains

    def crossing_cost(self, from_pd: ProtectionDomain,
                      to_pd: ProtectionDomain) -> int:
        """Cycles for one inter-module call given the domain placement."""
        if not self.pd_enabled or from_pd is to_pd:
            return 0
        return self.costs.pd_crossing

    # ------------------------------------------------------------------
    # Kernel object factories (modules call these directly)
    # ------------------------------------------------------------------
    def spawn_thread(self, owner: Owner, body: Generator, name: str = "",
                     stack_domains: int = 1) -> EscortThread:
        """Create a kernel thread owned by ``owner`` and schedule it."""
        thread = EscortThread(self, owner, body, name=name,
                              stack_domains=stack_domains)
        thread.sim_thread.escort = thread  # backref for kernel lookups
        self.cpu.make_runnable(thread.sim_thread)
        return thread

    def create_event(self, owner: Owner, fn: Callable[[], Generator],
                     delay_ticks: int, periodic: bool = False,
                     name: str = "") -> KernelEvent:
        """Arm a kernel event; ``fn()`` runs as a thread of ``owner``."""
        event = KernelEvent(self, owner, fn, delay_ticks,
                            periodic=periodic, name=name)
        self.softclock.add(event)
        return event

    def create_semaphore(self, owner: Owner, count: int = 0,
                         name: str = "") -> Semaphore:
        """Create a semaphore owned (and charged to) ``owner``."""
        return Semaphore(self, owner, count=count, name=name)

    def create_queue(self, capacity: int = 64, name: str = "") -> BoundedQueue:
        """Create a bounded FIFO for path input/output."""
        return BoundedQueue(self, capacity=capacity, name=name)

    @property
    def current_thread(self) -> Optional[SimThread]:
        return self.cpu.current

    # ------------------------------------------------------------------
    # Runaway handling
    # ------------------------------------------------------------------
    def _handle_runaway(self, thread: SimThread) -> None:
        self.runaway_traps += 1
        self.runaway_policy(thread)

    def _default_runaway_policy(self, thread: SimThread) -> None:
        """Threads cannot be preempted gracefully: preempting a thread
        requires destroying it, and a destroyed thread most likely leaves
        its owner inconsistent, so the owner is removed too."""
        owner = thread.owner
        if isinstance(owner, Owner) and not owner.destroyed:
            self.kill_owner(owner)

    # ------------------------------------------------------------------
    # Fault containment
    # ------------------------------------------------------------------
    def enable_fault_containment(self) -> None:
        """Route exceptions escaping thread bodies to the kill machinery.

        A module that raises mid-path leaves its owner in an unknown state;
        like a runaway, the owner is destroyed (``pathKill`` semantics: no
        destructor functions run).  Kernel- and idle-owned threads, and
        threads of the privileged domain, are never contained this way —
        such a fault is recorded and, when a watchdog is attached, logged.

        Only *simulated* faults are absorbed: the :class:`EscortError`
        family (every kernel error plus the chaos layer's injected
        :class:`~repro.chaos.inject.ChaosFault`) and
        :class:`~repro.sim.cpu.ThreadKilled`.  Anything else — a genuine
        bug in harness or module code — is recorded by the CPU and
        re-raised, so a resilience campaign cannot mistake a crashed
        simulator for a survived fault.
        """
        from repro.kernel.errors import EscortError
        from repro.sim.cpu import ThreadKilled

        self.cpu.containable_exceptions = (EscortError, ThreadKilled)
        self.cpu.on_thread_fault = self._handle_thread_fault

    def _handle_thread_fault(self, thread: SimThread, exc: BaseException) -> None:
        self.fault_traps += 1
        owner = thread.owner
        killable = (isinstance(owner, Owner) and not owner.destroyed
                    and owner.type not in (OwnerType.KERNEL, OwnerType.IDLE)
                    and not getattr(owner, "privileged", False))
        if self.watchdog is not None:
            self.watchdog.note_fault(thread, exc, contained=killable)
        if killable:
            self.kill_owner(owner)
        else:
            self.uncontained_faults += 1

    # ------------------------------------------------------------------
    # Watchdog / admission control
    # ------------------------------------------------------------------
    def attach_watchdog(self, watchdog) -> None:
        """Install the kernel watchdog (notified of kills and faults)."""
        self.watchdog = watchdog

    def set_shedding(self, on: bool) -> None:
        """Toggle admission-control shedding (graceful degradation)."""
        self.shedding = bool(on)

    def admit_path(self) -> bool:
        """Admission check consulted by ``path_create``; counts rejections."""
        if self.shedding:
            self.sheds += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Owner destruction (the heart of containment)
    # ------------------------------------------------------------------
    def reclaim_cost(self, owner: Owner, domains_visited: int) -> int:
        """Table 2's cost model: walking the tracking lists."""
        c = self.costs
        usage = owner.usage
        return (c.kill_base
                + c.kill_per_page * len(owner.page_list)
                + c.kill_per_thread * len(owner.thread_list)
                + c.kill_per_stack * usage.stacks
                + c.kill_per_iobuf * len(owner.iobuffer_locks)
                + c.kill_per_event * len(owner.event_list)
                + c.kill_per_semaphore * len(owner.semaphore_list)
                + c.kill_per_heap_alloc * len(owner.heap_allocations)
                + c.kill_per_domain * domains_visited)

    def kill_owner(self, owner: Owner, charge: bool = True,
                   record: bool = True) -> KillReport:
        """Forcibly reclaim everything ``owner`` holds (``pathKill`` core).

        Does *not* run module destructor functions — that is ``pathDestroy``'s
        job.  Returns a :class:`KillReport` with the reclaimed object counts
        and the cycle cost, which is charged to the kernel as interrupt-level
        work when ``charge`` is True.
        """
        if owner.destroyed:
            raise InvalidOperationError(f"{owner.name} already destroyed")

        domains = []
        crossed = getattr(owner, "domains_crossed", None)
        if crossed is not None and self.pd_enabled:
            domains = list(crossed())
        cost = self.reclaim_cost(owner, len(domains))

        report = KillReport(
            owner_name=owner.name,
            cycles=cost,
            pages=len(owner.page_list),
            threads=len(owner.thread_list),
            stacks=owner.usage.stacks,
            iobuf_locks=len(owner.iobuffer_locks),
            events=len(owner.event_list),
            semaphores=len(owner.semaphore_list),
            heap_allocations=len(owner.heap_allocations),
            domains_visited=len(domains),
        )

        # 1. Threads first: a runaway thread must stop consuming cycles
        #    before anything else is reclaimed.
        for thread in list(owner.thread_list):
            thread.kill()
        # 2. Events and semaphores (semaphore destruction wakes foreign
        #    waiters, as the paper requires).
        for event in list(owner.event_list):
            event.cancel()
        for sema in list(owner.semaphore_list):
            sema.destroy()
        # 3. IOBuffer locks and owned buffers.
        self.iobufs.reclaim_owner(owner)
        # 4. Heap allocations in every domain the owner crossed.
        for alloc in list(owner.heap_allocations):
            alloc.domain.heap_free(alloc)
        # 5. Raw pages.
        self.allocator.reclaim_all(owner)
        # 6. Mark dead and notify kernel-internal cleanups (demux bindings,
        #    domain crossing sets, experiment stats).
        owner.destroyed = True
        self.cpu.scheduler.forget(owner)
        owner.run_destroy_callbacks()

        if record:
            self.kill_reports.append(report)
        if charge:
            self.cpu.post_interrupt(Interrupt(
                [(self.kernel_owner, cost)], label=f"kill {owner.name}"))
        # The watchdog hears about *forcible* kills only — the final sweep
        # of a graceful pathDestroy (record=False) is bookkeeping, not
        # containment.  Invariant listeners hear about every kill.
        if record and self.watchdog is not None:
            self.watchdog.note_kill(owner, report)
        for fn in self.kill_listeners:
            fn(owner, report)
        # Dead paths sever their internal reference cycles so the whole
        # island is reclaimed by refcount instead of lingering for the
        # cyclic garbage collector (see Path.sever).
        sever = getattr(owner, "sever", None)
        if sever is not None:
            sever()
        return report

    def destroy_domain(self, pd: ProtectionDomain) -> List[KillReport]:
        """Destroy a protection domain and every path crossing it.

        "If a protection domain is destroyed, all paths crossing that
        protection domain are also destroyed" — the paths could otherwise
        reference module state that no longer exists.
        """
        reports = []
        # Sorted by name: crossing_paths is an identity-hashed set, and
        # teardown order must not depend on memory layout (chaos runs are
        # replayed from seeds and compared run-to-run).
        for path in sorted(pd.crossing_paths, key=lambda p: p.name):
            if not path.destroyed:
                reports.append(self.kill_owner(path))
        reports.append(self.kill_owner(pd))
        if pd in self.domains:
            self.domains.remove(pd)
        return reports
