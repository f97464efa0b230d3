"""The kernel watchdog: detect, kill, back off, recover.

Escort's static defences (runtime limits, per-subnet path quotas) each
target one known attack.  The watchdog is the backstop for everything
else: a periodic kernel scan that watches *symptoms* — an owner burning an
outsized share of the CPU window, an owner hoarding pages, a thread that
stays on the processor across scans without finishing, a page pool running
dry — and responds with an escalating ladder:

1. **pathKill** the offending owner (a path dies; the server lives) —
   unless an adaptive :mod:`repro.defense` controller is attached and
   absorbs the first offense non-lethally (throttle + ladder escalation);
2. on repeat offenses from the same family of owners, **escalate** to
   admission-control shedding for an exponentially growing backoff window
   (new work is rejected cheaply while the kernel digests the damage);
3. non-privileged **domains** that misbehave are **rolled back** to their
   last known-good snapshot when a
   :class:`~repro.snapshot.rollback.DomainSnapshotter` is attached — only
   objects created since the snapshot are reclaimed, cycle accounting is
   never rewound — and torn down whole when no snapshot helps (or the
   per-domain rollback budget is spent);
4. the privileged domain and the kernel itself are never killed — the
   watchdog sheds and logs instead.

Snapshots are taken during the scan itself, and only of domains that look
healthy *this window* (no offense logged, under half the cycle budget), so
a wedged state is never captured as a rollback target.

Every detection, kill, escalation, and verified recovery is logged as a
:class:`WatchdogAction`, so tests can assert the full
detect → kill → recover cycle actually happened.  The scan itself is
charged to the kernel owner (``SCAN_COST_CYCLES`` per sweep) — the
watchdog lives inside the machine and pays for its cycles, unlike the
invariant checker, which observes from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.clock import (
    SERVER_CYCLE_HZ,
    seconds_to_ticks,
    ticks_to_seconds,
)
from repro.sim.cpu import Interrupt, SimThread
from repro.kernel.domain import ProtectionDomain
from repro.kernel.kernel import Kernel, KillReport
from repro.kernel.owner import Owner, OwnerType


@dataclass
class WatchdogAction:
    """One entry in the watchdog's action log."""

    at_s: float
    kind: str       # detect | kill | rollback | defend | escalate | recover | shed-on | shed-off | fault
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        out = f"[{self.at_s:.6f}s] {self.kind}: {self.subject}"
        return f"{out} — {self.detail}" if self.detail else out


class Watchdog:
    """Periodic kernel scan with an escalating kill/shed response.

    Parameters
    ----------
    shed_on_free_pages / shed_off_free_pages:
        Hysteresis thresholds on the page pool for saturation shedding.
    service_probe / service_revive:
        Optional liveness hook: when ``service_probe()`` goes false the
        watchdog logs a detection and calls ``service_revive()`` (wired to
        :class:`repro.chaos.recovery.DomainRecovery` by the scenarios).
    snapshotter:
        Optional :class:`~repro.snapshot.rollback.DomainSnapshotter`.
        When attached, a misbehaving domain is first rolled back to its
        last good snapshot (at most ``ROLLBACK_LIMIT`` times per domain)
        and only torn down when rollback is unavailable or reclaims
        nothing.
    """

    #: Scan period in simulated seconds.
    PERIOD_S = 0.05
    #: An owner burning more cycles than this in one scan window is
    #: flagged: half the machine.
    CYCLE_BUDGET = int(0.5 * PERIOD_S * SERVER_CYCLE_HZ)
    #: An owner holding more pages than this is flagged.
    PAGE_BUDGET = 1024
    #: A thread seen on the CPU for this many consecutive scans without
    #: leaving is declared non-progressing.
    STUCK_SCANS = 3
    #: Offenses from one owner-name family before shedding escalates.
    ESCALATE_AFTER = 2
    #: First shedding window; it doubles per escalation up to the max.
    BACKOFF_S = 0.05
    BACKOFF_MAX_S = 0.8
    #: Kernel cycles one scan costs.
    SCAN_COST_CYCLES = 2_000
    #: Rollbacks allowed per domain before teardown.
    ROLLBACK_LIMIT = 1

    def __init__(self, kernel: Kernel,
                 shed_on_free_pages: int = 64,
                 shed_off_free_pages: int = 256,
                 service_probe: Optional[Callable[[], bool]] = None,
                 service_revive: Optional[Callable[[], None]] = None,
                 snapshotter=None):
        self.kernel = kernel
        self.shed_on_free_pages = shed_on_free_pages
        self.shed_off_free_pages = shed_off_free_pages
        self.service_probe = service_probe
        self.service_revive = service_revive
        self.snapshotter = snapshotter
        #: Optional adaptive :class:`~repro.defense.DefenseController`: a
        #: rung between rollback and pathKill.  A first offense the
        #: controller can absorb (throttle/contain) avoids the kill; the
        #: kill stays the final rung for repeat offenders.
        self.defense_controller = None

        self.log: List[WatchdogAction] = []
        self.scans = 0
        self.kills = 0
        self.escalations = 0
        self.rollbacks = 0
        self._rollbacks_by_domain: Dict[str, int] = {}
        self._offended_names: set = set()
        self._running = False
        #: Attached :class:`~repro.obs.session.ObsSession`, if any — a
        #: pure observer notified per log entry and per scan.
        self.obs = None

        # Per-scan-window cycle observation.
        self._window: Dict[object, int] = {}
        # Same-thread-on-CPU streak for progress detection.
        self._last_thread: Optional[SimThread] = None
        self._streak = 0
        # Escalation state per owner-name family ("conn", "pd", ...).
        self._offenses: Dict[str, int] = {}
        self._family_backoff: Dict[str, float] = {}
        self._shed_until: int = 0        # sim tick; 0 = not shedding
        self._saturation_shed = False
        # Kills awaiting reclamation verification.  A dict used as an
        # ordered set: recoveries are verified (and logged) in kill
        # order, keeping the log deterministic run-to-run.
        self._pending_recovery: Dict[Owner, None] = {}
        # Service-liveness state: down since which scan (None = up).
        self._service_down_scan: Optional[int] = None

        kernel.attach_watchdog(self)
        kernel.cpu.charge_listeners.append(self._on_charge)

    # ------------------------------------------------------------------
    # Notification hooks (called by the kernel)
    # ------------------------------------------------------------------
    def _on_charge(self, owner, cycles: int) -> None:
        if owner is not None:
            self._window[owner] = self._window.get(owner, 0) + cycles

    def note_kill(self, owner: Owner, report: KillReport) -> None:
        """The kernel destroyed an owner (any cause, not just ours)."""
        self.kills += 1
        self._log("kill", owner.name,
                  f"reclaimed {report.pages}p/{report.threads}t/"
                  f"{report.events}e (cost {report.cycles} cyc)")
        self._pending_recovery[owner] = None

    def note_fault(self, thread: SimThread, exc: BaseException,
                   contained: bool) -> None:
        """A thread body raised; the kernel is containing (or not)."""
        owner_name = getattr(thread.owner, "name", "?")
        status = "contained" if contained else "NOT containable"
        self._log("fault", thread.name,
                  f"{type(exc).__name__} in {owner_name} ({status})")
        if contained:
            # The kill that follows arrives via note_kill.
            self._log("detect", owner_name,
                      f"faulting owner ({type(exc).__name__})")

    # ------------------------------------------------------------------
    # The scan loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.kernel.sim.schedule(seconds_to_ticks(self.PERIOD_S), self._scan)

    def stop(self) -> None:
        self._running = False

    def _scan(self) -> None:
        if not self._running:
            return
        self.scans += 1
        offended = False
        self._offended_names.clear()

        offended |= self._check_cycle_budgets()
        offended |= self._check_page_budgets()
        offended |= self._check_progress()
        self._check_saturation()
        self._check_backoff_expiry()
        self._verify_recoveries()
        self._check_service()
        self._take_snapshots()

        if not offended and self._offenses:
            # A clean scan cools the escalation state: families that have
            # stopped offending get a fresh start.
            self._offenses.clear()
            self._family_backoff.clear()

        self._window.clear()
        if self.obs is not None:
            self.obs.on_watchdog_scan(self)
        # The scan walked kernel tables: charge it like any other
        # interrupt-level kernel work.
        self.kernel.cpu.post_interrupt(Interrupt(
            [(self.kernel.kernel_owner, self.SCAN_COST_CYCLES)],
            label="watchdog-scan"))
        self.kernel.sim.schedule(seconds_to_ticks(self.PERIOD_S), self._scan)

    # -- detectors ------------------------------------------------------
    def _check_cycle_budgets(self) -> bool:
        hit = False
        for owner, cycles in list(self._window.items()):
            if cycles <= self.CYCLE_BUDGET:
                continue
            if not self._is_killable(owner):
                continue
            hit = True
            self._log("detect", owner.name,
                      f"{cycles} cycles this window "
                      f"(budget {self.CYCLE_BUDGET})")
            self._respond(owner)
        return hit

    def _check_page_budgets(self) -> bool:
        hit = False
        for owner in list(self._window):
            if not self._is_killable(owner):
                continue
            pages = owner.usage.pages
            if pages > self.PAGE_BUDGET:
                hit = True
                self._log("detect", owner.name,
                          f"{pages} pages held (budget {self.PAGE_BUDGET})")
                self._respond(owner)
        return hit

    def _check_progress(self) -> bool:
        current = self.kernel.cpu.current
        if current is not None and current is self._last_thread:
            self._streak += 1
        else:
            self._last_thread = current
            self._streak = 1 if current is not None else 0
        if current is None or self._streak < self.STUCK_SCANS:
            return False
        owner = current.owner
        if not self._is_killable(owner):
            return False
        self._log("detect", getattr(owner, "name", "?"),
                  f"thread {current.name} on CPU for "
                  f"{self._streak} consecutive scans")
        self._last_thread = None
        self._streak = 0
        self._respond(owner)
        return True

    def _check_saturation(self) -> None:
        free = self.kernel.allocator.free_pages
        if not self._saturation_shed and free <= self.shed_on_free_pages:
            self._saturation_shed = True
            self.kernel.set_shedding(True)
            self._log("shed-on", "kernel",
                      f"page pool saturated ({free} free)")
        elif self._saturation_shed and free >= self.shed_off_free_pages:
            self._saturation_shed = False
            if self.kernel.sim.now >= self._shed_until:
                self.kernel.set_shedding(False)
                self._log("shed-off", "kernel", f"pool recovered ({free} free)")

    def _check_backoff_expiry(self) -> None:
        if (self._shed_until and self.kernel.sim.now >= self._shed_until
                and not self._saturation_shed):
            self._shed_until = 0
            self.kernel.set_shedding(False)
            self._log("shed-off", "kernel", "backoff window expired")

    def _verify_recoveries(self) -> None:
        for owner in list(self._pending_recovery):
            if owner.destroyed and owner.tracked_object_count() == 0:
                self._pending_recovery.pop(owner, None)
                self._log("recover", owner.name,
                          "fully reclaimed; kernel state clean")

    def _take_snapshots(self) -> None:
        """Snapshot healthy-looking domains as future rollback targets.

        A domain that offended this scan, or that burned over half its
        cycle budget in this window, is *not* snapshotted — capturing a
        wedged state as "good" would make rollback worse than useless.
        """
        if self.snapshotter is None:
            return
        skip = set(self._offended_names)
        for pd in self.kernel.domains:
            if self._window.get(pd, 0) > self.CYCLE_BUDGET // 2:
                skip.add(pd.name)
        self.snapshotter.observe(skip=skip)

    def _check_service(self) -> None:
        if self.service_probe is None:
            return
        if self.service_probe():
            if self._service_down_scan is not None:
                self._service_down_scan = None
                self._log("recover", "service", "listener back up")
            return
        first = self._service_down_scan is None
        if first:
            self._service_down_scan = self.scans
            self._log("detect", "service", "no live listening path")
        # Revive on the transition, then retry every few scans while the
        # service stays down (a revive takes effect asynchronously, on a
        # freshly spawned init thread).
        down_for = self.scans - (self._service_down_scan or self.scans)
        if self.service_revive is not None and (first or down_for % 4 == 0):
            self.service_revive()

    # -- response ladder ------------------------------------------------
    def _is_killable(self, owner) -> bool:
        return (isinstance(owner, Owner)
                and not owner.destroyed
                and owner.type not in (OwnerType.KERNEL, OwnerType.IDLE)
                and not getattr(owner, "privileged", False))

    @staticmethod
    def _family(owner: Owner) -> str:
        return owner.name.split("-", 1)[0]

    def _respond(self, owner: Owner) -> None:
        family = self._family(owner)
        offenses = self._offenses.get(family, 0) + 1
        self._offenses[family] = offenses
        self._offended_names.add(owner.name)

        if isinstance(owner, ProtectionDomain):
            if not self._try_rollback(owner) \
                    and not self._try_defend(owner, offenses):
                # Tearing down a domain kills its crossing paths too.
                self.kernel.destroy_domain(owner)
        elif not self._try_defend(owner, offenses):
            self.kernel.kill_owner(owner)

        if offenses >= self.ESCALATE_AFTER:
            # The family keeps offending: killing individuals is not
            # containing the source, so shed new admissions for a backoff
            # window that doubles with each escalation.
            backoff = self._family_backoff.get(family, self.BACKOFF_S)
            self._family_backoff[family] = min(backoff * 2,
                                               self.BACKOFF_MAX_S)
            until = self.kernel.sim.now + seconds_to_ticks(backoff)
            self._shed_until = max(self._shed_until, until)
            self.escalations += 1
            self.kernel.set_shedding(True)
            self._log("escalate", family,
                      f"offense #{offenses}: shedding for {backoff:.3f}s")

    def attach_defense(self, controller) -> None:
        """Insert an adaptive defense controller between rollback and
        kill.  ``controller.absorb(owner)`` returning True means the
        controller contained the offender non-lethally."""
        self.defense_controller = controller

    def _try_defend(self, owner: Owner, offenses: int) -> bool:
        """Offer the offender to the defense controller before killing.

        Only first offenses within a family are absorbable: once a family
        escalates, the kill rung stays final.  Returns True when the
        controller contained the owner.
        """
        if self.defense_controller is None:
            return False
        if offenses >= self.ESCALATE_AFTER:
            return False
        if not self.defense_controller.absorb(owner):
            return False
        self._log("defend", owner.name,
                  "absorbed by adaptive defense (throttled)")
        return True

    def _try_rollback(self, pd: ProtectionDomain) -> bool:
        """Roll a misbehaving domain back to its last good snapshot.

        Returns True when rollback reclaimed something (the gentler rung
        handled it); False means fall through to teardown — no snapshotter,
        per-domain budget spent, no snapshot, or the rollback reclaimed
        nothing (the wedge predates every snapshot we hold).
        """
        if self.snapshotter is None:
            return False
        if self._rollbacks_by_domain.get(pd.name, 0) >= self.ROLLBACK_LIMIT:
            return False
        if not self.snapshotter.can_rollback(pd):
            return False
        report = self.snapshotter.rollback(pd)
        if report is None or not report.reclaimed_anything:
            return False
        self.rollbacks += 1
        self._rollbacks_by_domain[pd.name] = \
            self._rollbacks_by_domain.get(pd.name, 0) + 1
        self._log("rollback", pd.name,
                  f"to snapshot at "
                  f"{ticks_to_seconds(report.snapshot_tick):.6f}s: killed "
                  f"{len(report.paths_killed)} path(s), "
                  f"{report.threads_killed} thread(s), cancelled "
                  f"{report.events_cancelled} event(s), freed "
                  f"{report.heap_allocs_freed} alloc(s)")
        return True

    # ------------------------------------------------------------------
    def _log(self, kind: str, subject: str, detail: str = "") -> None:
        action = WatchdogAction(
            at_s=ticks_to_seconds(self.kernel.sim.now),
            kind=kind, subject=subject, detail=detail)
        self.log.append(action)
        if self.obs is not None:
            self.obs.on_watchdog_action(self, action)

    def actions(self, kind: Optional[str] = None) -> List[WatchdogAction]:
        if kind is None:
            return list(self.log)
        return [a for a in self.log if a.kind == kind]

    def saw_recovery_cycle(self) -> bool:
        """True when the log shows ≥1 full detect → kill → recover cycle."""
        detects = self.actions("detect")
        kills = self.actions("kill")
        recovers = self.actions("recover")
        if not (detects and kills and recovers):
            return False
        return recovers[-1].at_s >= detects[0].at_s

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for a in self.log:
            counts[a.kind] = counts.get(a.kind, 0) + 1
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"watchdog: {self.scans} scans, {body or 'no actions'}"
