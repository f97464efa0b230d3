"""Canned chaos scenarios: the full harness, runnable from the CLI.

Each scenario builds a Figure-7 testbed, runs it through five phases —

1. **boot + warmup**: the server comes up and well-behaved load settles;
2. **chaos**: the fault schedule fires (plus whatever attack the scenario
   layers on top), with the watchdog and the invariant checker running;
3. **recovery**: injection stops; the watchdog finishes its kills, backoff
   shedding expires, the service is revived if it died;
4. **probe**: *fresh* well-behaved clients attach and must complete
   requests — the server has to still be answering;
5. **verdict**: a :class:`ChaosReport` — pass requires zero invariant
   violations, at least one full detect → kill → recover watchdog cycle,
   and probe completions.

``run_scenario(name, seed)`` is the whole API; the same ``(name, seed)``
always reproduces the same run.  Exposed on the command line as
``python -m repro chaos --scenario <name> --seed <n>`` (and ``--list``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.clock import micros_to_ticks, seconds_to_ticks
from repro.experiments.harness import TRUSTED_SUBNET, Testbed
from repro.snapshot.runs import (SETTLE_S, ReplayableRun, rng_fingerprint,
                                 spec_field)
from repro.net.fault import FaultInjector
from repro.policy.synflood import SynFloodPolicy
from repro.chaos.inject import ChaosInjector
from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.recovery import DomainRecovery
from repro.chaos.schedule import (
    CLOCK_SKEW,
    DOMAIN_CRASH,
    IOBUF_FAIL,
    LINK_FLAP,
    MODULE_EXCEPTION,
    PAGE_PRESSURE,
    STUCK_THREAD,
    FaultEvent,
    FaultSchedule,
)
from repro.chaos.watchdog import Watchdog, WatchdogAction


@dataclass
class ChaosReport:
    """The outcome of one chaos run."""

    scenario: str
    seed: int
    ok: bool
    service_alive: bool
    recovery_cycle: bool
    completions_after: int
    faults_injected: Dict[str, int]
    faults_skipped: Dict[str, int]
    violations: List[Violation]
    watchdog_log: List[WatchdogAction]
    sheds: int
    fault_traps: int
    kills: int
    rollbacks: int = 0
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [f"[{verdict}] {self.scenario} seed={self.seed}"]
        inj = ", ".join(f"{k}={v}"
                        for k, v in sorted(self.faults_injected.items()))
        lines.append(f"  injected: {inj or 'nothing'}")
        if self.faults_skipped:
            skp = ", ".join(f"{k}={v}"
                            for k, v in sorted(self.faults_skipped.items()))
            lines.append(f"  skipped:  {skp}")
        lines.append(f"  watchdog: {self.kills} kills, "
                     f"{self.sheds} admissions shed, "
                     f"{self.fault_traps} faults contained, "
                     f"recovery cycle: "
                     f"{'yes' if self.recovery_cycle else 'NO'}")
        lines.append(f"  service:  "
                     f"{'alive' if self.service_alive else 'DOWN'}, "
                     f"{self.completions_after} probe request(s) completed")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines += [f"    {v}" for v in self.violations]
        else:
            lines.append("  invariants: all held")
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


#: Phase lengths of every scenario, in simulated seconds.
WARMUP_S = 0.25
CHAOS_S = 0.8
RECOVERY_S = 0.5
PROBE_S = 0.6


class ChaosScenario:
    """One canned chaos scenario: a testbed builder plus a fault schedule.

    ``build`` returns ``(testbed, fault_injector_or_None)``;
    ``make_schedule`` returns the :class:`FaultSchedule` for one seed,
    spread over the ``CHAOS_S`` window.
    """

    def __init__(self, name: str, description: str, *,
                 build: Callable[[int], Tuple[Testbed,
                                              Optional[FaultInjector]]],
                 make_schedule: Callable[[int], FaultSchedule],
                 watchdog_kwargs: Optional[dict] = None):
        self.name = name
        self.description = description
        self.build = build
        self.make_schedule = make_schedule
        self.watchdog_kwargs = watchdog_kwargs or {}


# ----------------------------------------------------------------------
# Scenario 1: SYN flood over a lossy, flapping network
# ----------------------------------------------------------------------
def _build_lossy_syn_flood(seed: int):
    bed = Testbed.escort(
        policies=[SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=64)])
    injector = FaultInjector(bed.sim, bed.hub, seed=seed,
                             drop_probability=0.05,
                             duplicate_probability=0.05,
                             extra_delay_ticks=micros_to_ticks(200),
                             delay_probability=0.1,
                             reorder_probability=0.03,
                             corrupt_probability=0.02)
    # The server's transmissions pass through the fault model; the SYN
    # flood and client traffic arrive unmodified (their loss is the
    # server's responses disappearing — the nastier case for TCP state).
    bed.server.nic.medium = injector
    bed.add_clients(4)
    bed.add_syn_attacker(rate_per_second=300)
    return bed, injector


def _schedule_lossy_syn_flood(seed: int) -> FaultSchedule:
    events = [
        FaultEvent(0.10 * CHAOS_S, STUCK_THREAD),
        FaultEvent(0.40 * CHAOS_S, LINK_FLAP, duration_s=0.03),
        FaultEvent(0.60 * CHAOS_S, CLOCK_SKEW, duration_s=0.2,
                   magnitude=2.0),
    ]
    events += FaultSchedule.random(
        seed, CHAOS_S, kinds=(LINK_FLAP, CLOCK_SKEW),
        rate_per_second=2.0).events
    return FaultSchedule(events, seed=seed)


# ----------------------------------------------------------------------
# Scenario 2: runaway CGI attack while memory runs out
# ----------------------------------------------------------------------
def _build_oom_cgi(seed: int):
    # Deliberately NO RunawayPolicy: the watchdog's cycle budget is the
    # only defence against the looping CGI threads.
    bed = Testbed.escort()
    bed.add_clients(3)
    bed.add_cgi_attackers(2, script="loop")
    return bed, None


def _schedule_oom_cgi(seed: int) -> FaultSchedule:
    events = [
        FaultEvent(0.15 * CHAOS_S, PAGE_PRESSURE, duration_s=0.3,
                   magnitude=0.97),
        FaultEvent(0.55 * CHAOS_S, IOBUF_FAIL, duration_s=0.15,
                   magnitude=0.5),
    ]
    events += FaultSchedule.random(
        seed, CHAOS_S, kinds=(MODULE_EXCEPTION, IOBUF_FAIL),
        rate_per_second=2.0, exception_targets=("http", "fs")).events
    return FaultSchedule(events, seed=seed)


# ----------------------------------------------------------------------
# Scenario 3: a protection domain crashes mid-transfer
# ----------------------------------------------------------------------
def _build_domain_crash(seed: int):
    bed = Testbed.escort(protection_domains=True)
    bed.add_clients(3)
    return bed, None


def _schedule_domain_crash(seed: int) -> FaultSchedule:
    events = [
        FaultEvent(0.25 * CHAOS_S, DOMAIN_CRASH, target="pd-http"),
        FaultEvent(0.55 * CHAOS_S, STUCK_THREAD),
        FaultEvent(0.70 * CHAOS_S, MODULE_EXCEPTION, target="http",
                   duration_s=0.1, magnitude=0.5),
    ]
    return FaultSchedule(events, seed=seed)


SCENARIOS: Dict[str, ChaosScenario] = {
    "lossy-syn-flood": ChaosScenario(
        "lossy-syn-flood",
        "SYN flood from the untrusted subnet while the server's own "
        "transmissions are dropped, duplicated, reordered, corrupted, "
        "and the link flaps; plus a stuck thread and clock skew.",
        build=_build_lossy_syn_flood,
        make_schedule=_schedule_lossy_syn_flood),
    "oom-cgi": ChaosScenario(
        "oom-cgi",
        "Runaway CGI attack with no static runaway policy — the watchdog "
        "is the only defence — while ballast squeezes the page pool and "
        "IOBuffer allocations fail.",
        build=_build_oom_cgi,
        make_schedule=_schedule_oom_cgi,
        watchdog_kwargs={"shed_on_free_pages": 512,
                         "shed_off_free_pages": 1024}),
    "domain-crash": ChaosScenario(
        "domain-crash",
        "The HTTP protection domain is destroyed mid-run (killing every "
        "crossing path, listeners included); recovery must rebuild the "
        "domain and resurrect the service.",
        build=_build_domain_crash,
        make_schedule=_schedule_domain_crash),
}


@dataclass(eq=False)
class ChaosRun(ReplayableRun):
    """A chaos scenario expressed as a replayable run.

    Chaos runs get whole-machine checkpoints, crash-resume, and lockstep
    replay like every other :class:`~repro.snapshot.runs.ReplayableRun`.
    The five scenario phases become five milestones:

    ======================  ====================================
    tick                    action
    ======================  ====================================
    0                       ``boot``
    settle                  ``start_load``
    + warmup                ``arm_chaos``  (watchdog, checker, injector)
    + chaos + recovery      ``disarm_probe``
    + probe                 ``verdict``
    ======================  ====================================
    """

    KIND = "chaos"
    #: Run-time state, set while the run executes.
    snapshotter = None

    scenario: str = spec_field(choices=SCENARIOS)
    seed: int = spec_field(1, low=None)
    use_rollback: bool = spec_field(False, key="rollback")
    #: Explicit fault schedule overriding the scenario's generator.
    #: This is how the resilience campaign runs *generated* schedules
    #: against a canned scenario's testbed: the schedule rides in the
    #: spec, so the run stays a pure function of its spec.
    schedule: Optional[FaultSchedule] = spec_field(None, codec=FaultSchedule)

    # -- build + timeline ----------------------------------------------
    def build(self) -> None:
        self.bed, self.net_injector = SCENARIOS[self.scenario].build(
            self.seed)

    def milestones(self) -> List[Tuple[int, str]]:
        settle = seconds_to_ticks(SETTLE_S)
        t_chaos = settle + seconds_to_ticks(WARMUP_S)
        t_probe = (t_chaos + seconds_to_ticks(CHAOS_S)
                   + seconds_to_ticks(RECOVERY_S))
        t_verdict = t_probe + seconds_to_ticks(PROBE_S)
        return [(0, "boot"), (settle, "start_load"), (t_chaos, "arm_chaos"),
                (t_probe, "disarm_probe"), (t_verdict, "verdict")]

    # -- milestone actions ----------------------------------------------
    def ms_arm_chaos(self) -> None:
        sc, bed = SCENARIOS[self.scenario], self.bed
        kernel = bed.server.kernel
        self.recovery = DomainRecovery(bed.server)
        wd_kwargs = dict(sc.watchdog_kwargs)
        if self.use_rollback:
            from repro.snapshot.rollback import DomainSnapshotter
            self.snapshotter = DomainSnapshotter(kernel)
            wd_kwargs.setdefault("snapshotter", self.snapshotter)
        self.watchdog = Watchdog(kernel,
                                 service_probe=self.recovery.probe,
                                 service_revive=self.recovery.revive,
                                 **wd_kwargs)
        self.watchdog.start()
        self.checker = InvariantChecker(kernel)
        self.checker.start(period_s=0.05)
        schedule = (self.schedule if self.schedule is not None
                    else sc.make_schedule(self.seed))
        self.chaos = ChaosInjector(bed.server, schedule,
                                   fault_injector=self.net_injector)
        self.chaos.arm()

    def ms_disarm_probe(self) -> None:
        self.chaos.disarm()
        self.probes = self.bed.add_clients(3)
        for probe in self.probes:
            probe.start()
        self._probe_start = self.bed.sim.now

    def ms_verdict(self) -> None:
        bed, sim = self.bed, self.bed.sim
        completions = bed.stats.completions_in("client", self._probe_start,
                                               sim.now)
        self.checker.check_now()
        self.checker.stop()
        self.watchdog.stop()
        service_alive = self.recovery.probe()
        recovery_cycle = self.watchdog.saw_recovery_cycle()
        ok = (self.checker.ok and recovery_cycle and service_alive
              and completions > 0)
        notes = list(self.chaos.log[-3:])
        if self.recovery.recoveries:
            notes.append(
                f"service revived {self.recovery.recoveries} time(s)")
        self.run_result = ChaosReport(
            scenario=self.scenario,
            seed=self.seed,
            ok=ok,
            service_alive=service_alive,
            recovery_cycle=recovery_cycle,
            completions_after=completions,
            faults_injected=dict(self.chaos.injected),
            faults_skipped=dict(self.chaos.skipped),
            violations=list(self.checker.violations),
            watchdog_log=list(self.watchdog.log),
            sheds=bed.server.kernel.sheds,
            fault_traps=bed.server.kernel.fault_traps,
            kills=self.watchdog.kills,
            rollbacks=self.watchdog.rollbacks,
            notes=notes,
        )

    # -- digests --------------------------------------------------------
    def extra_summary(self) -> Dict:
        out: Dict = {}
        chaos = getattr(self, "chaos", None)
        if chaos is not None:
            out["injected"] = dict(sorted(chaos.injected.items()))
            out["skipped"] = dict(sorted(chaos.skipped.items()))
            out["chaos_rng"] = rng_fingerprint(chaos.rng)
        watchdog = getattr(self, "watchdog", None)
        if watchdog is not None:
            kinds: Dict[str, int] = {}
            for action in watchdog.log:
                kinds[action.kind] = kinds.get(action.kind, 0) + 1
            out["watchdog"] = {"scans": watchdog.scans,
                               "kills": watchdog.kills,
                               "rollbacks": watchdog.rollbacks,
                               "log": dict(sorted(kinds.items()))}
        if self.net_injector is not None:
            rng = getattr(self.net_injector, "rng", None)
            if rng is not None:
                out["net_rng"] = rng_fingerprint(rng)
        if self.snapshotter is not None:
            out["snapshotter"] = self.snapshotter.summary()
        return out


def list_scenarios() -> List[Tuple[str, str]]:
    """``[(name, description)]`` for the CLI."""
    return [(s.name, s.description) for s in SCENARIOS.values()]


def run_scenario(name: str, seed: int = 1, *,
                 use_rollback: bool = False) -> ChaosReport:
    """Run one canned scenario to its verdict; raises ``KeyError`` for
    unknown names.

    The five phases execute as the milestones of a :class:`ChaosRun`,
    which is what makes a chaos run checkpointable, resumable, and
    replayable like any other run.  ``use_rollback`` arms the watchdog's
    snapshot/rollback rung (off by default — the canned scenarios'
    escalation behavior is part of their contract).
    """
    from repro.snapshot.driver import RunDriver

    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return RunDriver(ChaosRun(name, seed,
                              use_rollback=use_rollback)).run_all()
