"""ObsSession: wire the telemetry layer into one replayable run.

The session is a *pure observer*.  It never schedules an event, never
charges a cycle, never touches a kernel table — it only reads counters
at points where the machine already stops to think: defense controller
scans, watchdog scans, driver milestones, and the kernel's existing
kill-listener callback.  That is the whole determinism contract: with a
session attached, ``sim.seq``, every event's order, and the full state
digest are byte-identical to a run without one.

Sampling points (all engine-tick-driven, none per-event):

* ``DefenseController._scan``  → per-scan defense series (EWMA baselines
  vs observed rates, rung states, half-open, token buckets) + monitor
  *signal* spans when a baseline is crossed;
* ``Watchdog._scan``           → sim/kernel series (queue health, CPU
  cycle split, scheduler picks, page pool, quota throttles);
* ``Watchdog._log``            → watchdog spans (detect/defend/escalate/
  rollback/recover), parent-linked to the rung or signal that armed them;
* ``kernel.kill_listeners``    → ``pathKill`` spans (every kill, any
  cause) with the kill report's cycles/pages/threads, parent-linked to
  the watchdog detection — plus per-family kill counters and histograms;
* ``RunDriver`` milestones     → whole-machine samples (workload
  outcomes, cluster dispatcher/health state) + an fsync of the sidecar.

Runs without a watchdog or controller (plain experiments) still get the
milestone samples and kill spans; runs with them get a dense series.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.recorder import SIDECAR_NAME, FlightRecorder
from repro.obs.spans import SpanLog
from repro.snapshot.digest import sha256_hex

__all__ = ["ObsSession", "attach_obs", "run_with_obs"]


def _family(name: str) -> str:
    return name.split("-", 1)[0]


class ObsSession:
    """One run's metrics registry + span log + flight recorder."""

    def __init__(self, obs_dir: Optional[str] = None, *,
                 append: bool = False):
        self.registry = MetricsRegistry()
        self.spans = SpanLog(sink=self._sink_span)
        self.obs_dir = obs_dir
        self.recorder: Optional[FlightRecorder] = None
        if obs_dir is not None:
            self.recorder = FlightRecorder(
                os.path.join(obs_dir, SIDECAR_NAME), append=append)
        self.driver = None
        self.bed = None
        self.sim = None
        self.kills = 0
        self.metrics_digest: Optional[str] = None

        self._wired: set = set()
        self._labels: Dict[int, Dict] = {}
        self._servers: List[Tuple[object, Dict]] = []
        # Causal-link state: signal/rung/detect/kill span ids.
        self._signal_span: Dict[Tuple, int] = {}
        self._detect_span: Dict[Tuple, int] = {}
        self._detect_family: Dict[Tuple, int] = {}
        self._kill_span: Dict[Tuple, int] = {}
        self._last_signal_id: Optional[int] = None
        self._last_rung_id: Optional[int] = None
        self._last_recorded: Dict[str, float] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, driver) -> "ObsSession":
        """Attach to a built :class:`~repro.snapshot.driver.RunDriver`."""
        driver.obs = self
        self.driver = driver
        self.bed = driver.run.bed
        self.sim = self.bed.sim
        if self.recorder is not None:
            self.recorder.record({"kind": "obs-meta",
                                  "spec": driver.run.spec()})
            self.recorder.sync()
        self._wire()
        return self

    def _wire(self) -> None:
        """Discover servers/controllers/watchdogs; safe to call again.

        Controllers and watchdogs can be created as late as the boot
        milestone (policies apply at build or boot depending on the run
        kind), so every milestone re-scans for new attachment points.
        """
        bed = self.bed
        replicas = getattr(bed, "replicas", None)
        if replicas:
            for index, replica in enumerate(replicas):
                self._wire_server(replica.server, {"replica": index})
        else:
            server = getattr(bed, "server", None)
            if server is not None:
                self._wire_server(server, {})

    def _wire_server(self, server, labels: Dict) -> None:
        if id(server) not in self._wired:
            self._wired.add(id(server))
            self._labels[id(server)] = labels
            self._servers.append((server, labels))
            server.kernel.kill_listeners.append(
                lambda owner, report, _l=labels, _k=server.kernel:
                    self._on_kill(_k, owner, report, _l))
        labels = self._labels[id(server)]
        watchdog = getattr(server.kernel, "watchdog", None)
        if watchdog is not None and getattr(watchdog, "obs", None) is not self:
            watchdog.obs = self
            self._labels[id(watchdog)] = labels
        controller = getattr(server, "defense", None)
        if controller is not None \
                and getattr(controller, "obs", None) is not self:
            controller.obs = self
            self._labels[id(controller)] = labels

    def _lbl(self, obj) -> Dict:
        return self._labels.get(id(obj), {})

    @staticmethod
    def _lkey(labels: Dict) -> Tuple:
        return tuple(sorted(labels.items()))

    # ------------------------------------------------------------------
    # Notification points (called by the instrumented subsystems)
    # ------------------------------------------------------------------
    def on_defense_scan(self, controller, sig) -> None:
        """One controller scan: defense series + monitor signal spans."""
        labels = self._lbl(controller)
        reg = self.registry

        def k(name, **extra):
            return metric_key("defense", name, **{**labels, **extra})

        reg.counter_abs(k("scans"), controller.scans)
        reg.counter_abs(k("absorbed"), controller.absorbed)
        reg.gauge(k("half_open"), sig.half_open)
        reg.gauge(k("free_pages"), sig.free_pages)
        reg.gauge(k("active_paths"), sig.active_paths)
        reg.gauge(k("trap_delta"), sig.trap_delta)
        reg.gauge(k("buckets"), len(controller.buckets))
        for rung, active in sorted(controller.rung_active.items()):
            reg.gauge(k("rung_active", rung=rung), int(active))
        baselines = controller.monitor.baselines
        for prefix in sorted(sig.syn_rates):
            reg.gauge(k("syn_rate", prefix=prefix),
                      round(sig.syn_rates[prefix], 3))
            reg.gauge(k("syn_score", prefix=prefix),
                      round(sig.syn_scores.get(prefix, 0.0), 3))
            base = baselines.get(prefix)
            if base is not None and base.mean is not None:
                reg.gauge(k("syn_baseline", prefix=prefix),
                          round(base.mean, 3))

        lk = self._lkey(labels)
        now = sig.at
        for prefix in sig.hot_prefixes(controller.SCORE_ON,
                                       controller.prefix_rate_floor):
            skey = (lk, "syn", prefix)
            if skey in self._signal_span:
                continue
            rate = sig.syn_rates.get(prefix, 0.0)
            score = sig.syn_scores.get(prefix, 0.0)
            base = baselines.get(prefix)
            mean = (base.mean or 0.0) if base is not None else 0.0
            span = self.spans.add(
                "signal", f"{prefix}.0/24",
                f"syn rate {rate:.0f}/s scored {score:.1f} MADs over "
                f"baseline {mean:.0f}/s", tick=now,
                rate=round(rate, 3), score=round(score, 3),
                baseline=round(mean, 3))
            self._signal_span[skey] = span.id
            self._last_signal_id = span.id
        if sig.half_open >= controller.HALFOPEN_ON:
            skey = (lk, "halfopen", "")
            if skey not in self._signal_span:
                span = self.spans.add(
                    "signal", "half-open",
                    f"{sig.half_open} half-open connections >= watermark "
                    f"{controller.HALFOPEN_ON}", tick=now,
                    half_open=sig.half_open,
                    watermark=controller.HALFOPEN_ON)
                self._signal_span[skey] = span.id
                self._last_signal_id = span.id
        if sig.trap_delta > 0:
            skey = (lk, "traps", "")
            if skey not in self._signal_span:
                span = self.spans.add(
                    "signal", "runaway-traps",
                    f"{sig.trap_delta} runaway trap(s) this window",
                    tick=now, trap_delta=sig.trap_delta)
                self._signal_span[skey] = span.id
                self._last_signal_id = span.id
        if sig.free_pages <= controller.PAGES_ON:
            skey = (lk, "pages", "")
            if skey not in self._signal_span:
                span = self.spans.add(
                    "signal", "page-pool",
                    f"{sig.free_pages} free pages <= watermark "
                    f"{controller.PAGES_ON}", tick=now,
                    free_pages=sig.free_pages,
                    watermark=controller.PAGES_ON)
                self._signal_span[skey] = span.id
                self._last_signal_id = span.id

        self._sample_server(controller.server, labels)
        reg.sample(now)
        self._record_sample(now)

    def on_defense_transition(self, controller, action) -> None:
        """One ladder transition: a rung span linked to its signal."""
        labels = self._lbl(controller)
        lk = self._lkey(labels)
        now = self.sim.now if self.sim is not None else 0
        self.registry.inc(metric_key(
            "defense", "transitions",
            **{**labels, "kind": action.kind, "rung": action.rung}))

        if action.kind == "absorb":
            # Non-lethal containment of a watchdog-flagged owner: link it
            # to the detection that flagged the owner, like a kill.
            subject = action.detail.split(" throttled", 1)[0]
            parent = (self._detect_span.get((lk, subject))
                      or self._detect_family.get((lk, _family(subject))))
            self.spans.add("absorb", subject, action.detail,
                           tick=now, parent=parent)
            return

        parent = None
        rung = action.rung
        if rung == "ratelimit":
            prefix = action.detail.split(".0/24", 1)[0]
            skey = (lk, "syn", prefix)
            parent = self._signal_span.get(skey)
            if action.kind == "deescalate":
                self._signal_span.pop(skey, None)
        elif rung == "syncookies":
            skey = (lk, "halfopen", "")
            parent = self._signal_span.get(skey)
            if action.kind == "deescalate":
                self._signal_span.pop(skey, None)
        elif rung == "quota":
            skey = (lk, "traps", "")
            parent = self._signal_span.get(skey)
            if action.kind == "deescalate":
                self._signal_span.pop(skey, None)
        elif rung == "degrade":
            parent = (self._signal_span.get((lk, "traps", ""))
                      or self._signal_span.get((lk, "pages", "")))
            if action.kind == "deescalate":
                self._signal_span.pop((lk, "pages", ""), None)
        span = self.spans.add("rung", rung,
                              f"{action.kind}: {action.detail}",
                              tick=now, parent=parent, action=action.kind)
        if action.kind == "escalate":
            self._last_rung_id = span.id

    def on_watchdog_scan(self, watchdog) -> None:
        """One watchdog scan: sim + kernel series."""
        labels = self._lbl(watchdog)
        reg = self.registry

        def k(name, **extra):
            return metric_key("watchdog", name, **{**labels, **extra})

        reg.counter_abs(k("scans"), watchdog.scans)
        reg.counter_abs(k("kills"), watchdog.kills)
        reg.counter_abs(k("escalations"), watchdog.escalations)
        reg.counter_abs(k("rollbacks"), watchdog.rollbacks)
        self._sample_kernel(watchdog.kernel, labels)
        self._sample_sim()
        now = self.sim.now if self.sim is not None else 0
        reg.sample(now)
        self._record_sample(now)

    def on_watchdog_action(self, watchdog, action) -> None:
        """One watchdog log entry becomes a parent-linked span."""
        labels = self._lbl(watchdog)
        lk = self._lkey(labels)
        kind = action.kind
        self.registry.inc(metric_key("watchdog", "actions",
                                     **{**labels, "kind": kind}))
        if kind == "kill":
            # The pathKill span comes from the kernel kill listener
            # (which sees every kill, not only watchdog-recorded ones).
            return
        now = self.sim.now if self.sim is not None else 0
        subject = action.subject
        if kind == "detect":
            parent = self._last_rung_id or self._last_signal_id
            span = self.spans.add("watchdog", subject,
                                  f"detect: {action.detail}", tick=now,
                                  parent=parent, action=kind)
            self._detect_span[(lk, subject)] = span.id
            self._detect_family[(lk, _family(subject))] = span.id
            return
        if kind in ("defend", "rollback", "escalate"):
            parent = (self._detect_span.get((lk, subject))
                      or self._detect_family.get((lk, _family(subject))))
        elif kind == "recover":
            parent = self._kill_span.get((lk, subject))
        else:  # shed-on | shed-off | fault
            parent = None
        self.spans.add("watchdog", subject,
                       f"{kind}: {action.detail}" if action.detail
                       else kind,
                       tick=now, parent=parent, action=kind)

    def _on_kill(self, kernel, owner, report, labels: Dict) -> None:
        """Kernel kill listener: the terminal link of every kill chain."""
        if not (kernel.kill_reports and kernel.kill_reports[-1] is report):
            # The final sweep of a graceful pathDestroy (record=False):
            # bookkeeping, not containment — count it, no span.
            self.registry.inc(metric_key("kernel", "reclaims", **labels))
            return
        lk = self._lkey(labels)
        now = self.sim.now if self.sim is not None else 0
        self.kills += 1
        family = _family(owner.name)
        reg = self.registry
        reg.inc(metric_key("kernel", "kills", **labels))
        reg.inc(metric_key("kernel", "kills_by_family",
                           **{**labels, "family": family}))
        reg.inc(metric_key("kernel", "killed_cycles",
                           **{**labels, "family": family}), report.cycles)
        reg.inc(metric_key("kernel", "killed_pages",
                           **{**labels, "family": family}), report.pages)
        reg.observe(metric_key("kernel", "kill_cycles", **labels),
                    report.cycles)
        reg.observe(metric_key("kernel", "kill_pages", **labels),
                    report.pages,
                    bounds=(1, 4, 16, 64, 256, 1024, 4096))
        parent = (self._detect_span.get((lk, owner.name))
                  or self._detect_family.get((lk, family))
                  or self._last_rung_id)
        span = self.spans.add(
            "pathKill", owner.name,
            f"reclaimed {report.pages} pages, {report.threads} threads, "
            f"{report.events} events (cost {report.cycles} cycles)",
            tick=now, parent=parent, cycles=report.cycles,
            pages=report.pages, threads=report.threads,
            events=report.events)
        self._kill_span[(lk, owner.name)] = span.id

    def on_milestone(self, driver, name: str) -> None:
        """Driver milestone: whole-machine sample + durable sidecar."""
        self._wire()
        now = self.sim.now if self.sim is not None else 0
        self.spans.add("milestone", name, tick=now)
        self.registry.inc(metric_key("run", "milestones"))
        self._sample_all()
        self.registry.sample(now)
        self._record_sample(now)
        if self.recorder is not None:
            self.recorder.sync()

    def note_attempt(self, attempt: int, resume_info: Dict) -> None:
        """Mark a supervised attempt boundary in the sidecar."""
        if self.recorder is not None:
            self.recorder.record({"kind": "obs-meta", "attempt": attempt,
                                  "resume": resume_info})
            self.recorder.sync()

    # ------------------------------------------------------------------
    # Samplers (pure reads)
    # ------------------------------------------------------------------
    def _sample_sim(self) -> None:
        if self.sim is None:
            return
        reg = self.registry
        for key, value in self.sim.queue_health().items():
            reg.gauge(metric_key("sim", key), value)

    def _sample_kernel(self, kernel, labels: Dict) -> None:
        reg = self.registry

        def k(name):
            return metric_key("kernel", name, **labels)

        reg.gauge(k("free_pages"), kernel.allocator.free_pages)
        reg.counter_abs(k("runaway_traps"), kernel.runaway_traps)
        reg.counter_abs(k("sheds"), kernel.sheds)
        reg.counter_abs(k("quota_throttles"), len(kernel.quotas.throttles))
        reg.counter_abs(k("quota_violations"),
                        len(kernel.quotas.violations))
        cpu = kernel.cpu
        reg.counter_abs(metric_key("cpu", "busy_cycles", **labels),
                        cpu.busy_cycles)
        reg.counter_abs(metric_key("cpu", "idle_cycles", **labels),
                        cpu.idle_cycles)
        reg.counter_abs(metric_key("cpu", "interrupt_cycles", **labels),
                        cpu.interrupt_cycles)
        reg.counter_abs(metric_key("cpu", "scheduler_picks", **labels),
                        cpu.picks)

    def _sample_server(self, server, labels: Dict) -> None:
        reg = self.registry
        tcp = server.tcp
        for reason in sorted(tcp.demux_drops):
            reg.counter_abs(
                metric_key("tcp", "demux_drops",
                           **{**labels, "reason": reason}),
                tcp.demux_drops[reason])
        reg.counter_abs(metric_key("tcp", "syncookies_sent", **labels),
                        tcp.syncookies_sent)
        reg.counter_abs(metric_key("tcp", "syncookies_accepted", **labels),
                        tcp.syncookies_accepted)
        reg.gauge(metric_key("tcp", "half_open", **labels),
                  tcp.half_open())
        http = server.http
        reg.counter_abs(metric_key("http", "requests_served", **labels),
                        http.requests_served)
        reg.counter_abs(metric_key("http", "cgi_shed", **labels),
                        http.cgi_shed)
        reg.gauge(metric_key("http", "degrade_level", **labels),
                  http.degrade_level)

    def _sample_cluster(self) -> None:
        bed = self.bed
        dispatcher = getattr(bed, "dispatcher", None)
        if dispatcher is None:
            return
        reg = self.registry
        for name in ("forwarded_in", "forwarded_out", "edge_shed",
                     "drops_no_replica", "drained_conns", "rst_sent"):
            reg.counter_abs(metric_key("cluster", name),
                            getattr(dispatcher, name))
        health = getattr(bed, "health", None)
        if health is not None:
            reg.counter_abs(metric_key("cluster", "failovers"),
                            sum(1 for _, _, kind in health.transitions
                                if kind == "down"))
            for h in health.replicas:
                reg.gauge(metric_key("cluster", "replica_up",
                                     replica=h.index), int(h.up))
                reg.gauge(metric_key("cluster", "probe_score",
                                     replica=h.index), round(h.score, 6))
                reg.counter_abs(metric_key("cluster", "probes_sent",
                                           replica=h.index), h.probes_sent)
                reg.counter_abs(metric_key("cluster", "probe_misses",
                                           replica=h.index), h.misses)

    def _sample_workload(self) -> None:
        stats = getattr(self.bed, "stats", None)
        if stats is None:
            return
        classes = set(stats._completions) | {c for c, _ in stats._outcomes}
        for cls in sorted(classes):
            self.registry.counter_abs(
                metric_key("workload", "completions", cls=cls),
                stats.total(cls))
            for outcome in stats.OUTCOMES:
                total = stats.outcome_total(cls, outcome)
                if total:
                    self.registry.counter_abs(
                        metric_key("workload", "outcomes",
                                   cls=cls, outcome=outcome), total)

    def _sample_all(self) -> None:
        self._sample_sim()
        for server, labels in self._servers:
            self._sample_kernel(server.kernel, labels)
            self._sample_server(server, labels)
        self._sample_cluster()
        self._sample_workload()

    # ------------------------------------------------------------------
    # Recorder plumbing
    # ------------------------------------------------------------------
    def _sink_span(self, record: Dict) -> None:
        if self.recorder is not None:
            self.recorder.record({"kind": "span", **record})

    def _record_sample(self, tick: int) -> None:
        """Stream only the metrics that changed since the last record."""
        if self.recorder is None:
            return
        changed = {}
        for table in (self.registry.counters, self.registry.gauges):
            for key, value in table.items():
                if self._last_recorded.get(key) != value:
                    changed[key] = value
                    self._last_recorded[key] = value
        if changed:
            self.recorder.record({
                "kind": "sample", "tick": tick,
                "metrics": {k: changed[k] for k in sorted(changed)}})

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def metrics_json_bytes(self) -> bytes:
        """The canonical metrics dump — the byte-identity artifact."""
        return (json.dumps(self.registry.dump(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode()

    def finish(self) -> Dict:
        """Final sample and final sidecar record; returns a summary."""
        if self._finished:
            return self._summary()
        self._finished = True
        now = self.sim.now if self.sim is not None else 0
        self._sample_all()
        self.registry.sample(now)
        self._record_sample(now)
        blob = self.metrics_json_bytes()
        self.metrics_digest = sha256_hex(blob)
        if self.recorder is not None:
            self.recorder.record({
                "kind": "obs-final",
                "samples": self.registry.samples_taken,
                "spans": len(self.spans),
                "kills": self.kills,
                "metrics_digest": self.metrics_digest,
            })
            self.recorder.close()
        return self._summary()

    def _summary(self) -> Dict:
        return {
            "obs_dir": self.obs_dir,
            "samples": self.registry.samples_taken,
            "series": len(self.registry.series),
            "spans": len(self.spans),
            "kills": self.kills,
            "metrics_digest": self.metrics_digest,
        }

    def describe(self) -> str:
        s = self._summary()
        line = (f"obs: {s['samples']} samples over {s['series']} series, "
                f"{s['spans']} spans, {s['kills']} kill(s)")
        if self.obs_dir:
            line += (f" -> {self.obs_dir}\n"
                     f"obs: query with `python -m repro obs summary "
                     f"--obs-dir {self.obs_dir}`")
        return line


def attach_obs(driver, obs_dir: Optional[str] = None) -> ObsSession:
    """Create a session (with a sidecar when ``obs_dir``) and attach it."""
    return ObsSession(obs_dir).attach(driver)


def run_with_obs(run, obs_dir: Optional[str] = None):
    """Drive ``run`` to completion with telemetry; returns
    ``(result, session)``."""
    from repro.snapshot.driver import RunDriver

    driver = RunDriver(run)
    session = attach_obs(driver, obs_dir)
    result = driver.run_all()
    session.finish()
    return result, session
