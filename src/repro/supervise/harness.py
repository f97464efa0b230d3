"""Deterministic crash-injection selftest for the supervision stack.

The crash-only contract is falsifiable, so this module falsifies it on
demand: for each run kind it first executes a small *reference* run
in-process (digest, event count, replay fingerprint), then re-runs the
same spec under the :class:`~repro.supervise.supervisor.Supervisor`
with seeded faults injected into the child —

* **kill points**: SIGKILL after K executed events, K drawn from a
  seeded LCG over the reference run's event count, so the kill lands at
  a different (but reproducible) point for every seed;
* **hang**: the child stops executing events but stays alive, proving
  wall-clock heartbeat detection and the ``hang`` classification;
* **kill-always** (gave-up case): the fault fires on *every* attempt,
  proving the retry budget bounds the damage and the failure is
  *recorded* (``supervision:signal:SIGKILL``) instead of raised.

Every recovered case is gated on **byte-identical digest and replay
fingerprint** against the reference — resume that merely "works" but
lands on a different machine state is a failure, not a pass.  The
resilience campaign and CI run this via ``python -m repro supervise
--selftest``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.supervise.supervisor import (Supervisor, SupervisedResult,
                                        supervision_verdict)

__all__ = ["SelftestCase", "SelftestReport", "crash_injection_selftest",
           "selftest_spec", "reference_outcome"]

#: Small-but-real runs, one per kind, as the fields that differ from the
#: kind's defaults: each boots the full machine, takes attack traffic
#: where the kind has any, and finishes in seconds.
_SELFTEST_FIELDS: Dict[str, Dict] = {
    "experiment": dict(clients=3, syn_rate=100, untrusted_cap=16,
                       warmup_s=0.2, measure_s=0.5),
    "chaos": dict(scenario="domain-crash", seed=3),
    "defense": dict(seed=2, clients=6, syn_rate=150, syn_ramp_to=600,
                    syn_ramp_s=0.5, spoof_hosts=100, cgi_attackers=4,
                    warmup_s=0.3, measure_s=0.8),
    "cluster": dict(replicas=2, seed=2, clients=6, spoof_hosts=100,
                    chaos_at_s=0.4, chaos_restore_s=1.0,
                    warmup_s=0.3, measure_s=1.2),
}


def selftest_spec(kind: str) -> Dict:
    """The selftest's reference spec for one run kind."""
    from repro.snapshot.runs import run_class
    return run_class(kind)(**_SELFTEST_FIELDS[kind]).spec()


def reference_outcome(spec: Dict) -> Dict:
    """Execute ``spec`` in-process; the ground truth a resume must hit."""
    from repro.snapshot.digest import light_state
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import run_from_spec

    driver = RunDriver(run_from_spec(spec))
    driver.run_all()
    server = getattr(driver.run.bed, "server", None)
    kernel = getattr(server, "kernel", None) if server is not None else None
    return {
        "digest": driver.run.digest(),
        "events": driver.sim.events_processed,
        "fingerprint": light_state(driver.sim, kernel),
    }


def _seeded_kill_points(seed: int, kind: str, n: int,
                        total_events: int) -> List[int]:
    """``n`` distinct kill points in [10%, 90%] of the run, LCG-seeded."""
    import zlib

    x = (zlib.crc32(f"{seed}/{kind}".encode()) & 0x7fffffff) or 1
    points = set()
    while len(points) < n:
        x = (1103515245 * x + 12345) % (1 << 31)
        frac = 0.10 + 0.80 * (x / float(1 << 31))
        points.add(max(1, int(total_events * frac)))
    return sorted(points)


@dataclass
class SelftestCase:
    """One injected fault and what supervision made of it."""

    name: str                    # e.g. "chaos/kill@8123"
    kind: str
    mode: str                    # kill | hang | kill-always
    after_events: int
    passed: bool = False
    classifications: List[str] = field(default_factory=list)
    digest_ok: bool = False
    fingerprint_ok: bool = False
    resumed_events: int = 0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"  [{status}] {self.name}: "
                f"{' -> '.join(self.classifications) or 'no attempts'}, "
                f"resumed at event {self.resumed_events}{extra}")


@dataclass
class SelftestReport:
    """All selftest cases plus the per-kind references they ran against."""

    cases: List[SelftestCase] = field(default_factory=list)
    references: Dict[str, Dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.cases) and all(c.passed for c in self.cases)

    @property
    def failed(self) -> List[SelftestCase]:
        return [c for c in self.cases if not c.passed]

    def summary(self) -> str:
        lines = [f"crash-injection selftest: "
                 f"{sum(c.passed for c in self.cases)}/{len(self.cases)} "
                 f"cases passed"]
        for kind, ref in sorted(self.references.items()):
            lines.append(f"  reference {kind}: {ref['events']} events, "
                         f"digest {ref['digest'][:12]}...")
        lines += [c.line() for c in self.cases]
        return "\n".join(lines)


def _check_recovery(case: SelftestCase, sres: SupervisedResult,
                    ref: Dict, first_expected: str) -> None:
    """Gate a recovered case on classification + digest + fingerprint."""
    case.classifications = [a.classification for a in sres.attempts]
    problems = []
    if not sres.attempts:
        problems.append("no attempts recorded")
    elif sres.attempts[0].classification != first_expected:
        problems.append(f"first attempt classified "
                        f"{sres.attempts[0].classification!r}, "
                        f"expected {first_expected!r}")
    if not sres.ok:
        problems.append(f"did not recover (final: {sres.classification})")
    else:
        case.digest_ok = sres.digest == ref["digest"]
        case.fingerprint_ok = sres.fingerprint == ref["fingerprint"]
        case.resumed_events = (sres.result.get("resume", {})
                               .get("resumed_events", 0))
        if not case.digest_ok:
            problems.append(f"digest drifted: {sres.digest[:12]}... != "
                            f"reference {ref['digest'][:12]}...")
        if not case.fingerprint_ok:
            problems.append(f"fingerprint drifted: {sres.fingerprint} != "
                            f"{ref['fingerprint']}")
        if sres.result["events"] != ref["events"]:
            problems.append(f"event count drifted: "
                            f"{sres.result['events']} != {ref['events']}")
    case.passed = not problems
    case.detail = "; ".join(problems)


def crash_injection_selftest(
        base_dir: str, *,
        kinds: Tuple[str, ...] = ("experiment", "chaos", "defense",
                                  "cluster"),
        kill_points: int = 3,
        hang: bool = True,
        gave_up: bool = True,
        seed: int = 990417,
        hang_timeout_s: float = 2.0,
        log=None) -> SelftestReport:
    """Run the full crash-injection matrix; returns the gated report.

    ``kinds`` picks which run kinds to exercise, ``kill_points`` how many
    seeded SIGKILL positions per kind.  ``hang`` adds one hang injection
    (against the first kind) and ``gave_up`` one kill-on-every-attempt
    case proving bounded retries.  ``log`` (e.g. ``print``) narrates.
    """
    say = log or (lambda _msg: None)
    report = SelftestReport()
    for kind in kinds:
        spec = selftest_spec(kind)
        say(f"reference run: {kind} ...")
        ref = reference_outcome(spec)
        report.references[kind] = ref
        say(f"  {ref['events']} events, digest {ref['digest'][:12]}...")
        for k in _seeded_kill_points(seed, kind, kill_points,
                                     ref["events"]):
            case = SelftestCase(name=f"{kind}/kill@{k}", kind=kind,
                                mode="kill", after_events=k)
            report.cases.append(case)
            sup = Supervisor(
                os.path.join(base_dir, f"{kind}-kill{k}"),
                max_attempts=2, backoff_base_s=0.01,
                heartbeat_every_events=100,
                checkpoint_every_events=max(200, ref["events"] // 4))
            sres = sup.run(spec, inject={
                "mode": "kill", "after_events": k, "on_attempt": 1})
            _check_recovery(case, sres, ref, "signal:SIGKILL")
            say(case.line())

    if hang and kinds:
        kind = kinds[0]
        ref = report.references[kind]
        k = max(1, ref["events"] // 2)
        case = SelftestCase(name=f"{kind}/hang@{k}", kind=kind,
                            mode="hang", after_events=k)
        report.cases.append(case)
        sup = Supervisor(
            os.path.join(base_dir, f"{kind}-hang{k}"),
            max_attempts=2, backoff_base_s=0.01,
            heartbeat_timeout_s=hang_timeout_s,
            heartbeat_every_events=100,
            checkpoint_every_events=max(200, ref["events"] // 4))
        sres = sup.run(selftest_spec(kind), inject={
            "mode": "hang", "after_events": k, "on_attempt": 1})
        _check_recovery(case, sres, ref, "hang")
        say(case.line())

    if gave_up and kinds:
        kind = kinds[0]
        ref = report.references[kind]
        k = max(1, ref["events"] // 3)
        case = SelftestCase(name=f"{kind}/kill-always@{k}", kind=kind,
                            mode="kill-always", after_events=k)
        report.cases.append(case)
        sup = Supervisor(
            os.path.join(base_dir, f"{kind}-killalways"),
            max_attempts=2, backoff_base_s=0.01,
            heartbeat_every_events=100,
            checkpoint_every_events=max(200, ref["events"] // 4))
        sres = sup.run(selftest_spec(kind), inject={
            "mode": "kill", "after_events": k, "on_attempt": 0})
        case.classifications = [a.classification for a in sres.attempts]
        verdict = supervision_verdict(sres)
        problems = []
        if sres.ok:
            problems.append("expected the retry budget to be exhausted")
        if len(sres.attempts) != 2:
            problems.append(f"expected 2 attempts, got {len(sres.attempts)}")
        if any(a.classification != "signal:SIGKILL" for a in sres.attempts):
            problems.append("expected every attempt to die by SIGKILL")
        if verdict["failures"] != ["supervision:signal:SIGKILL"]:
            problems.append(f"verdict fingerprint {verdict['failures']}")
        case.passed = not problems
        case.detail = "; ".join(problems)
        say(case.line())

    return report
