"""Continuous invariant checking — the chaos oracle.

The paper's accounting claims are conservation laws, and conservation laws
are exactly what chaos testing needs an oracle for: whatever faults are
injected, these must still hold.  The checker asserts:

* **Cycle conservation** — every cycle the CPU accounts (busy + idle +
  interrupt) was charged to some owner, and each owner's ``usage.cycles``
  equals the charges the checker observed flowing to it.
* **Reclamation on death** — after any ``kill_owner``, the owner's tracking
  lists are empty and its page/stack counters are zero: nothing a dead path
  or domain held survives it.
* **Page consistency** — every allocated page is charged to a live owner
  and sits in that owner's ``page_list``.
* **No orphans** — no armed softclock event and no live thread belongs to a
  destroyed owner; every IOBuffer lock an owner holds refers to a live
  (non-freed) buffer that knows about the lock.

The checker is a pure observer: it hangs off the CPU's charge listeners and
the kernel's kill listeners and never yields cycles itself, so enabling it
cannot perturb the simulation it is checking (it stands outside the
machine, like the logic analyzer on the paper's testbed).

It also keeps the reclamation rule it checks: after the first sweep
following its kill, a dead owner is held only weakly, so a long chaos
run's checker does not keep every path the run destroyed alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set
from weakref import WeakKeyDictionary

from repro.sim.clock import seconds_to_ticks, ticks_to_seconds
from repro.kernel.kernel import Kernel, KillReport
from repro.kernel.owner import Owner


@dataclass
class Violation:
    """One invariant violation, timestamped in simulated seconds."""

    at_s: float
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.at_s:.6f}s] {self.rule}: {self.subject} — {self.detail}"


class InvariantChecker:
    """Checks the kernel's conservation invariants, continuously.

    Construct it, then either call :meth:`check_now` at interesting moments
    or :meth:`start` for a periodic sweep.  Violations are deduplicated by
    ``(rule, subject)`` so a persistent breakage reports once.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._seen: Set[tuple] = set()
        self._running = False

        # Cycle-flow observation: every charge the CPU makes, by owner.
        # The checker can attach mid-run, so totals are compared as deltas
        # from the CPU's counters at attach time.
        cpu = kernel.cpu
        self._accounted_at_attach = (cpu.busy_cycles + cpu.idle_cycles
                                     + cpu.interrupt_cycles)
        self._charged_total = 0
        self._observed: Dict[Owner, int] = {}
        self._baseline: Dict[Owner, int] = {}
        kernel.cpu.charge_listeners.append(self._on_charge)
        kernel.kill_listeners.append(self._on_kill)

        # Owners the structural sweeps walk.  Seeded with the owners that
        # exist now; grows as charges reveal new ones.
        self._owners: Set[Owner] = {kernel.kernel_owner, kernel.idle_owner}
        self._owners.update(kernel.domains)

        # Dead owners.  Every kill (graceful pathDestroy included) queues
        # its owner here; the next sweep audits it with the others and
        # then retires it from the three tables above into ``_retired``,
        # with the cycle count its counter must keep.  ``_retired`` holds
        # its owners weakly, so a dead path leaves once nothing else
        # reaches it — and an owner nothing reaches can no longer change.
        self._killed: List[Owner] = []
        self._retired: "WeakKeyDictionary[Owner, Optional[int]]" = \
            WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def _on_charge(self, owner, cycles: int) -> None:
        self._charged_total += cycles
        if owner is None:
            return
        if owner not in self._observed:
            # The listener fires *after* charge_cycles, so the owner's
            # counter already includes this charge; anything before it is
            # pre-observation history.
            self._baseline[owner] = owner.usage.cycles - cycles
            self._observed[owner] = 0
            if isinstance(owner, Owner) and owner.destroyed:
                # An interrupt posted before the kill charged it after:
                # audit the owner again until the next sweep retires it.
                expect = self._retired.pop(owner, None)
                if expect is not None:
                    self._baseline[owner] = expect
                self._killed.append(owner)
        self._observed[owner] += cycles
        if isinstance(owner, Owner):
            self._owners.add(owner)

    def _on_kill(self, owner: Owner, report: KillReport) -> None:
        """A kill just completed: its postconditions must hold *now*."""
        self._killed.append(owner)
        self.checks_run += 1
        if not owner.destroyed:
            self._violate("reclamation", owner.name,
                          "kill completed but owner not marked destroyed")
        leftover = owner.tracked_object_count()
        if leftover:
            self._violate("reclamation", owner.name,
                          f"{leftover} tracked objects survived the kill")
        if owner.usage.pages != 0:
            self._violate("reclamation", owner.name,
                          f"usage.pages == {owner.usage.pages} after kill")
        if owner.usage.stacks != 0:
            self._violate("reclamation", owner.name,
                          f"usage.stacks == {owner.usage.stacks} after kill")
        if owner.usage.events != 0 or owner.usage.semaphores != 0:
            self._violate("reclamation", owner.name,
                          f"events={owner.usage.events} "
                          f"semaphores={owner.usage.semaphores} after kill")

    # ------------------------------------------------------------------
    # Structural sweeps
    # ------------------------------------------------------------------
    def check_now(self) -> List[Violation]:
        """Run every invariant check; returns violations found this sweep."""
        before = len(self.violations)
        self._check_cycle_conservation()
        self._check_pages()
        self._check_orphans()
        self._check_iobuffer_locks()
        self._retire_killed()
        self.checks_run += 1
        return self.violations[before:]

    def _retire_killed(self) -> None:
        """Move the owners this sweep audited after their kill out of the
        strong tables."""
        for owner in self._killed:
            self._owners.discard(owner)
            if owner in self._observed:
                self._retired[owner] = (self._baseline.pop(owner)
                                        + self._observed.pop(owner))
            else:
                self._retired.setdefault(owner, None)
        self._killed.clear()

    def _audited(self) -> List[Owner]:
        """Every owner the per-owner sweeps walk."""
        return [*self._owners, *self._retired]

    def _check_cycle_conservation(self) -> None:
        cpu = self.kernel.cpu
        accounted = (cpu.busy_cycles + cpu.idle_cycles
                     + cpu.interrupt_cycles) - self._accounted_at_attach
        if self._charged_total != accounted:
            self._violate(
                "cycle-conservation", "cpu",
                f"charged {self._charged_total} != accounted {accounted} "
                f"(busy {cpu.busy_cycles} + idle {cpu.idle_cycles} + "
                f"intr {cpu.interrupt_cycles})")
        expected = [(owner, self._baseline[owner] + observed)
                    for owner, observed in self._observed.items()]
        expected += [(owner, expect)
                     for owner, expect in self._retired.items()
                     if expect is not None]
        for owner, expect in expected:
            if owner.usage.cycles != expect:
                self._violate(
                    "cycle-conservation", getattr(owner, "name", repr(owner)),
                    f"usage.cycles {owner.usage.cycles} != observed {expect}")

    def _check_pages(self) -> None:
        for page in self.kernel.allocator.allocated:
            owner = page.owner
            if owner.destroyed:
                self._violate("page-consistency", owner.name,
                              f"page {page.page_id} charged to a dead owner")
            elif page not in owner.page_list:
                self._violate("page-consistency", owner.name,
                              f"page {page.page_id} missing from page_list")

    def _check_orphans(self) -> None:
        # Armed events of dead owners: kill_owner cancels everything in the
        # owner's event_list, so anything still ticking for a dead owner
        # escaped the tracking lists.
        for _due, _seq, ev in self.kernel.softclock._wheel:
            if not ev.cancelled and ev.owner.destroyed:
                self._violate("orphan-event", ev.name,
                              f"armed event of dead owner {ev.owner.name}")
        for owner in self._audited():
            if not owner.destroyed:
                continue
            for thread in list(owner.thread_list):
                if thread.alive:
                    self._violate("orphan-thread", thread.name,
                                  f"live thread of dead owner {owner.name}")

    def _check_iobuffer_locks(self) -> None:
        for owner in self._audited():
            for lock in list(owner.iobuffer_locks):
                buf = lock.buffer
                if buf.freed:
                    self._violate("iobuf-lock", owner.name,
                                  f"holds a lock on freed buf {buf.buf_id}")
                elif buf.locks.get(owner) is not lock:
                    self._violate("iobuf-lock", owner.name,
                                  f"lock on buf {buf.buf_id} not registered "
                                  "with the buffer")

    # ------------------------------------------------------------------
    def _violate(self, rule: str, subject: str, detail: str) -> None:
        key = (rule, subject)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(Violation(
            at_s=ticks_to_seconds(self.kernel.sim.now),
            rule=rule, subject=subject, detail=detail))

    # ------------------------------------------------------------------
    # Periodic operation
    # ------------------------------------------------------------------
    def start(self, period_s: float = 0.05) -> None:
        """Sweep every ``period_s`` simulated seconds until :meth:`stop`."""
        if self._running:
            return
        self._running = True
        period = seconds_to_ticks(period_s)

        def sweep() -> None:
            if not self._running:
                return
            self.check_now()
            self.kernel.sim.schedule(period, sweep)

        self.kernel.sim.schedule(period, sweep)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.ok:
            return (f"invariants: OK ({self.checks_run} checks, "
                    f"0 violations)")
        lines = [f"invariants: {len(self.violations)} violation(s) "
                 f"in {self.checks_run} checks"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)
