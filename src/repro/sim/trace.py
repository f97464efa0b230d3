"""Execution tracing for debugging simulations.

A :class:`Tracer` records structured events — packet classifications, path
lifecycle, kills, quota violations, cycle charges — into a bounded ring
buffer that can be filtered and dumped.  Instrumentation is wrapper-based:
``instrument_server`` decorates the hot entry points of a built server, so
the production code paths carry no tracing overhead unless a tracer is
attached.

Typical use::

    bed = Testbed.escort()
    tracer = Tracer(bed.sim, capacity=10_000)
    tracer.instrument_server(bed.server)
    bed.run(...)
    print(tracer.dump(kinds={"kill", "path-create"}))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Set

from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.engine import Simulator


@dataclass
class TraceEvent:
    """One recorded event."""

    tick: int
    kind: str
    subject: str
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.tick / TICKS_PER_SECOND

    def __str__(self) -> str:
        return f"[{self.seconds:10.6f}] {self.kind:12s} {self.subject} {self.detail}".rstrip()


class Tracer:
    """Bounded structured event recorder."""

    def __init__(self, sim: Simulator, capacity: int = 10_000,
                 span_log=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.enabled = True
        self.counts: Dict[str, int] = {}
        #: Optional :class:`~repro.obs.spans.SpanLog` — every recorded
        #: event is forwarded there too (parentless), so the flat ring
        #: buffer and the causal span view stay consistent without
        #: double instrumentation.
        self.span_log = span_log

    # ------------------------------------------------------------------
    def record(self, kind: str, subject: str, detail: str = "") -> None:
        if not self.enabled:
            return
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(self.sim.now, kind, subject, detail))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.span_log is not None:
            self.span_log.add(kind, subject, detail, tick=self.sim.now)

    def events(self, kinds: Optional[Set[str]] = None,
               subject_contains: str = "") -> List[TraceEvent]:
        out = []
        for event in self._events:
            if kinds is not None and event.kind not in kinds:
                continue
            if subject_contains and subject_contains not in event.subject:
                continue
            out.append(event)
        return out

    def dump(self, kinds: Optional[Set[str]] = None, limit: int = 200) -> str:
        lines = [str(e) for e in self.events(kinds=kinds)[-limit:]]
        if self.dropped:
            lines.append(f"... ring buffer dropped {self.dropped} events")
        return "\n".join(lines)

    def clear(self) -> None:
        self._events.clear()
        self.counts.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Engine health
    # ------------------------------------------------------------------
    def queue_health(self) -> Dict[str, int]:
        """The engine's queue-health counters at the current instant.

        Mirrors :meth:`repro.sim.engine.Simulator.queue_health` — events
        processed, scheduled, still pending, lazy-cancellation debt and
        compaction count — so perf runs can report
        event-queue behaviour alongside the trace (see
        :func:`queue_health_line` for a printable form).
        """
        return self.sim.queue_health()

    # ------------------------------------------------------------------
    # Server instrumentation
    # ------------------------------------------------------------------
    def instrument_server(self, server) -> None:
        """Wrap a built :class:`ScoutWebServer`'s hot entry points.

        Idempotent: each wrapper is marked, and an already-instrumented
        entry point is left alone — calling this twice (or from two
        cooperating tools) must not stack wrappers, which would record
        every event twice and double the per-call overhead.
        """
        self._wrap_demux(server)
        self._wrap_paths(server)
        self._wrap_kills(server)

    @staticmethod
    def _already_wrapped(fn) -> bool:
        return getattr(fn, "_escort_traced", False)

    def _wrap_demux(self, server) -> None:
        demux = server.eth.demultiplexer
        original = demux.classify
        if self._already_wrapped(original):
            return

        def traced_classify(first_module, packet):
            result = original(first_module, packet)
            if result.kind == "path":
                self.record("demux", result.path.name,
                            f"{result.modules_consulted} modules")
            else:
                self.record("demux-drop", result.reason,
                            f"{result.modules_consulted} modules")
            return result

        traced_classify._escort_traced = True
        demux.classify = traced_classify

    def _wrap_paths(self, server) -> None:
        manager = server.path_manager
        original_create = manager.path_create
        if self._already_wrapped(original_create):
            return
        tracer = self

        def traced_create(attrs, start_module, **kwargs):
            path = yield from original_create(attrs, start_module, **kwargs)
            tracer.record("path-create", path.name,
                          "-".join(s.module.name for s in path.stages))
            return path

        traced_create._escort_traced = True
        manager.path_create = traced_create

    def _wrap_kills(self, server) -> None:
        kernel = server.kernel
        original = kernel.kill_owner
        if self._already_wrapped(original):
            return

        def traced_kill(owner, charge=True, record=True):
            report = original(owner, charge=charge, record=record)
            self.record("kill", report.owner_name,
                        f"{report.cycles} cycles, "
                        f"{report.domains_visited} domains")
            return report

        traced_kill._escort_traced = True
        kernel.kill_owner = traced_kill


def queue_health_line(sim: Simulator) -> str:
    """One-line engine-health summary for perf reports and benchmarks."""
    h = sim.queue_health()
    return (f"events={h['events_processed']} scheduled={h['scheduled']} "
            f"pending={h['pending']} cancelled={h['cancelled_pending']} "
            f"removed={h['cancelled_removed']} "
            f"compactions={h['compactions']}")
