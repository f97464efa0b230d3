"""The defense controller: an escalating, de-escalating mitigation ladder.

Each scan (engine-tick periodic, like the watchdog) the controller reads
one :class:`~repro.defense.signals.DefenseSignals` sample and drives four
rungs, each with its own trigger, hysteresis watermarks and release
cooldown:

1. **ratelimit** — per-source token buckets installed on suspect /24
   prefixes (anomaly score over its own baseline), enforced in TCP demux;
2. **syncookies** — stateless SYN handling past a half-open watermark;
3. **quota** — :class:`~repro.kernel.quota.QuotaEnforcer` flips to
   throttle-first mode and connection quotas/runtime limits tighten;
4. **degrade** — the webserver sheds CGI, then shrinks static responses.

Escalation is per-rung (a SYN flood never sheds CGI; a runaway CGI never
arms cookies) and every transition is logged as a :class:`DefenseAction`
so experiments can show the ladder climbing and climbing back down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.clock import seconds_to_ticks, ticks_to_seconds
from repro.sim.cpu import Interrupt
from repro.kernel.quota import ResourceQuota
from repro.defense.ratelimit import TokenBucket
from repro.defense.signals import AccountingMonitor, DefenseSignals

RUNGS = ("ratelimit", "syncookies", "quota", "degrade")

#: The quota rung 3 puts on every new connection path while it is up.
TIGHT_QUOTA = ResourceQuota(max_pages=16, max_heap_bytes=16 * 1024,
                            max_events=8)


@dataclass
class DefenseAction:
    """One ladder transition (or absorb) in the controller's log."""

    at_s: float
    kind: str       # escalate | deescalate | absorb
    rung: str       # one of RUNGS, or "watchdog" for absorbs
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.at_s:.6f}s] {self.kind} {self.rung}: {self.detail}"


class DefenseController:
    """Closed-loop controller over one :class:`ScoutWebServer`.

    ``prefix_rate_floor`` is the per-/24 SYN rate below which rung 1
    never limits a source: 300/s on a standalone server, the cluster-wide
    :data:`~repro.cluster.defense.PREFIX_RATE_FLOOR` on a replica.
    """

    #: Scan period (simulated seconds) and the kernel cycles one scan costs.
    PERIOD_S = 0.05
    SCAN_COST_CYCLES = 1_500
    #: Rung 1: a prefix is limited at this anomaly score, to this rate
    #: (SYN/s), and released after this many scans under the limit.
    SCORE_ON = 4.0
    ALLOW_RATE_FLOOR = 50
    LIMIT_RELEASE_SCANS = 8
    #: Rung 2: cookies on at this many half-open connections, off after
    #: this many scans at or under the low watermark.
    HALFOPEN_ON = 48
    HALFOPEN_OFF = 8
    COOKIE_RELEASE_SCANS = 6
    #: Rung 3: quotas relax after this many scans without a runaway trap.
    QUOTA_RELEASE_SCANS = 8
    #: Rung 4: pressure at or under PAGES_ON free pages; a tier is shed
    #: after DEGRADE_AFTER_SCANS pressured scans and restored after
    #: DEGRADE_RELEASE_SCANS quiet ones with at least PAGES_OFF free.
    PAGES_ON = 128
    PAGES_OFF = 512
    DEGRADE_AFTER_SCANS = 3
    DEGRADE_RELEASE_SCANS = 8

    def __init__(self, server, prefix_rate_floor: float = 300.0):
        self.server = server
        self.monitor = AccountingMonitor(server)
        self.prefix_rate_floor = prefix_rate_floor

        self.log: List[DefenseAction] = []
        self.scans = 0
        self.absorbed = 0
        self.rung_active: Dict[str, bool] = {r: False for r in RUNGS}
        self.last_signals: Optional[DefenseSignals] = None

        #: prefix -> TokenBucket currently limiting it.
        self.buckets: Dict[str, TokenBucket] = {}
        self._bucket_quiet: Dict[str, int] = {}
        self._cookie_quiet = 0
        self._quota_quiet = 0
        self._quota_pressure = 0
        self._degrade_pressure = 0
        self._degrade_quiet = 0
        self._saved_quota = None
        self._saved_runtime_limit = None
        self._running = False
        #: Attached :class:`~repro.obs.session.ObsSession`, if any.  The
        #: session is a pure observer: notified after each scan (with the
        #: signals sample already taken — never re-sampled, which would
        #: double-update the EWMA baselines) and after each transition.
        self.obs = None

        server.defense = self
        server.tcp.syn_gate = self._gate

    # ------------------------------------------------------------------
    # The demux gate (rung 1 enforcement point)
    # ------------------------------------------------------------------
    def _gate(self, prefix: str) -> bool:
        bucket = self.buckets.get(prefix)
        if bucket is None:
            return True
        return bucket.allow(self.server.kernel.sim.now)

    # ------------------------------------------------------------------
    # Scan loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.server.kernel.sim.schedule(
            seconds_to_ticks(self.PERIOD_S), self._scan)

    def stop(self) -> None:
        self._running = False

    def _scan(self) -> None:
        if not self._running:
            return
        self.scans += 1
        sig = self.monitor.sample()
        self.last_signals = sig

        self._drive_ratelimit(sig)
        self._drive_syncookies(sig)
        self._drive_quota(sig)
        self._drive_degrade(sig)

        if self.obs is not None:
            self.obs.on_defense_scan(self, sig)

        kernel = self.server.kernel
        kernel.cpu.post_interrupt(Interrupt(
            [(kernel.kernel_owner, self.SCAN_COST_CYCLES)],
            label="defense-scan"))
        kernel.sim.schedule(seconds_to_ticks(self.PERIOD_S), self._scan)

    # -- rung 1: adaptive per-source rate limiting ----------------------
    def _drive_ratelimit(self, sig: DefenseSignals) -> None:
        now = sig.at
        for prefix in sig.hot_prefixes(self.SCORE_ON,
                                       self.prefix_rate_floor):
            if prefix in self.buckets:
                continue
            # By the time a prefix scores hot its own EWMA baseline has
            # been dragged up by the anomaly, so the baseline cannot size
            # the limit — clamp a flagged source to the flat floor (a
            # legitimate steady source never gets flagged at all).
            allow = self.ALLOW_RATE_FLOOR
            burst = max(8, allow // 4)
            self.buckets[prefix] = TokenBucket(allow, burst, now=now)
            self._bucket_quiet[prefix] = 0
            self._transition("escalate", "ratelimit",
                             f"{prefix}.0/24 limited to {allow}/s "
                             f"(offered {sig.syn_rates.get(prefix, 0):.0f}/s,"
                             f" score {sig.syn_scores.get(prefix, 0):.1f})")
        # Release buckets whose offered load has stayed under the limit.
        for prefix in sorted(self.buckets):
            bucket = self.buckets[prefix]
            offered = sig.syn_rates.get(prefix, 0.0)
            if offered <= bucket.rate:
                self._bucket_quiet[prefix] += 1
            else:
                self._bucket_quiet[prefix] = 0
            if self._bucket_quiet[prefix] >= self.LIMIT_RELEASE_SCANS:
                del self.buckets[prefix]
                del self._bucket_quiet[prefix]
                self._transition("deescalate", "ratelimit",
                                 f"{prefix}.0/24 released "
                                 f"(offered {offered:.0f}/s)")
        self.rung_active["ratelimit"] = bool(self.buckets)

    # -- rung 2: SYN-cookie fallback ------------------------------------
    def _drive_syncookies(self, sig: DefenseSignals) -> None:
        tcp = self.server.tcp
        if not tcp.syncookies:
            if sig.half_open >= self.HALFOPEN_ON:
                tcp.set_syncookies(True)
                self._cookie_quiet = 0
                self.rung_active["syncookies"] = True
                self._transition("escalate", "syncookies",
                                 f"half-open {sig.half_open} >= "
                                 f"{self.HALFOPEN_ON}: stateless fallback on")
            return
        if sig.half_open <= self.HALFOPEN_OFF:
            self._cookie_quiet += 1
        else:
            self._cookie_quiet = 0
        if self._cookie_quiet >= self.COOKIE_RELEASE_SCANS:
            tcp.set_syncookies(False)
            self.rung_active["syncookies"] = False
            self._transition("deescalate", "syncookies",
                             f"half-open down to {sig.half_open}: "
                             "stateful handshakes resume")

    # -- rung 3: quota tightening ---------------------------------------
    def _drive_quota(self, sig: DefenseSignals) -> None:
        if sig.trap_delta > 0:
            self._quota_pressure += 1
            self._quota_quiet = 0
        else:
            self._quota_quiet += 1
        if not self.rung_active["quota"]:
            if sig.trap_delta > 0:
                self._tighten_quota(sig)
            return
        # Throttled owners that keep violating fall through to the kill
        # rung inside the enforcer; sweep so tightened quotas bite paths
        # that existed before this scan.
        self.server.kernel.quotas.sweep(
            [p for p in self.server.tcp.conn_table.values()
             if not p.destroyed])
        if self._quota_quiet >= self.QUOTA_RELEASE_SCANS:
            self._relax_quota()

    def _tighten_quota(self, sig: DefenseSignals) -> None:
        tcp = self.server.tcp
        quotas = self.server.kernel.quotas
        self._saved_quota = tcp.active_path_quota
        self._saved_runtime_limit = tcp.active_path_runtime_limit
        quotas.set_mode("throttle")
        tcp.active_path_quota = TIGHT_QUOTA
        if tcp.active_path_runtime_limit is not None:
            tcp.active_path_runtime_limit = max(
                1, tcp.active_path_runtime_limit // 2)
        self.rung_active["quota"] = True
        self._quota_quiet = 0
        self._transition("escalate", "quota",
                         f"{sig.trap_delta} runaway trap(s) this window: "
                         "throttle-first enforcement, quotas tightened")

    def _relax_quota(self) -> None:
        tcp = self.server.tcp
        quotas = self.server.kernel.quotas
        quotas.set_mode("kill")
        tcp.active_path_quota = self._saved_quota
        tcp.active_path_runtime_limit = self._saved_runtime_limit
        self.rung_active["quota"] = False
        self._quota_pressure = 0
        self._transition("deescalate", "quota",
                         "no runaway traps for "
                         f"{self.QUOTA_RELEASE_SCANS} scans: quotas restored")

    # -- rung 4: graceful degradation -----------------------------------
    def _drive_degrade(self, sig: DefenseSignals) -> None:
        http = self.server.http
        level = http.degrade_level
        pressured = (sig.trap_delta > 0
                     or sig.free_pages <= self.PAGES_ON
                     or (level >= 1 and sig.free_pages < self.PAGES_OFF
                         and self._quota_pressure > 0))
        if pressured:
            self._degrade_pressure += 1
            self._degrade_quiet = 0
        else:
            self._degrade_pressure = 0
            self._degrade_quiet += 1

        if self._degrade_pressure >= self.DEGRADE_AFTER_SCANS and level < 2:
            # Sustained pressure the earlier rungs did not relieve: shed.
            http.degrade_level = level + 1
            self._degrade_pressure = 0
            self.rung_active["degrade"] = True
            what = ("shedding CGI" if level == 0
                    else "shrinking static responses")
            self._transition("escalate", "degrade",
                             f"tier {level + 1}: {what} "
                             f"(traps {sig.trap_delta}, "
                             f"free pages {sig.free_pages})")
        elif (self._degrade_quiet >= self.DEGRADE_RELEASE_SCANS
              and level > 0 and sig.free_pages >= self.PAGES_OFF):
            http.degrade_level = level - 1
            self._degrade_quiet = 0
            self.rung_active["degrade"] = http.degrade_level > 0
            self._transition("deescalate", "degrade",
                             f"tier {level - 1}: pressure cleared "
                             f"(free pages {sig.free_pages})")

    # ------------------------------------------------------------------
    # Watchdog integration: the rung between rollback and pathKill
    # ------------------------------------------------------------------
    def absorb(self, owner) -> bool:
        """Contain a watchdog-flagged offender non-lethally.

        Throttles the owner's scheduler share via the quota enforcer and
        registers the event as quota pressure so the ladder's quota and
        degradation rungs see it.  Returns False when the owner was
        already throttled (repeat offense) — the watchdog then proceeds
        to the kill rung.
        """
        quotas = self.server.kernel.quotas
        if not quotas.throttle(owner, "watchdog-defense"):
            return False
        self.absorbed += 1
        self._quota_pressure += 1
        self._quota_quiet = 0
        action = DefenseAction(
            at_s=ticks_to_seconds(self.server.kernel.sim.now),
            kind="absorb", rung="watchdog",
            detail=f"{owner.name} throttled instead of killed")
        self.log.append(action)
        if self.obs is not None:
            self.obs.on_defense_transition(self, action)
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _transition(self, kind: str, rung: str, detail: str) -> None:
        action = DefenseAction(
            at_s=ticks_to_seconds(self.server.kernel.sim.now),
            kind=kind, rung=rung, detail=detail)
        self.log.append(action)
        if self.obs is not None:
            self.obs.on_defense_transition(self, action)

    def actions(self, kind: Optional[str] = None) -> List[DefenseAction]:
        if kind is None:
            return list(self.log)
        return [a for a in self.log if a.kind == kind]

    def escalations(self) -> List[DefenseAction]:
        return self.actions("escalate")

    def deescalations(self) -> List[DefenseAction]:
        return self.actions("deescalate")

    def ladder_trace(self) -> List[str]:
        return [str(a) for a in self.log]

    def summary(self) -> str:
        up = sum(1 for a in self.log if a.kind == "escalate")
        down = sum(1 for a in self.log if a.kind == "deescalate")
        active = [r for r in RUNGS if self.rung_active[r]]
        return (f"defense: {self.scans} scans, {up} escalations, "
                f"{down} de-escalations, {self.absorbed} absorbed, "
                f"active rungs: {', '.join(active) or 'none'}")
