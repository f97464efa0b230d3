"""Parent-linked causal spans.

A :class:`SpanLog` is the program's one trace API.  Each span is a point
event that may name a parent, so a ``pathKill`` links back through the
watchdog detection and the defense rung that armed it to the monitor
signal that started the episode.  ``repro obs explain --kill <path>``
walks exactly this chain.

Span ids are a per-log counter starting at 1 — fully deterministic, so
two runs of the same seed emit identical span streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.clock import TICKS_PER_SECOND

__all__ = ["Span", "SpanLog"]


@dataclass
class Span:
    """One causal point-event: what happened, when, and because of what."""

    id: int
    parent: Optional[int]
    tick: int
    kind: str        # signal | rung | watchdog | pathKill | absorb | ...
    subject: str
    detail: str = ""
    values: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.tick / TICKS_PER_SECOND

    def to_record(self) -> Dict:
        return {"id": self.id, "parent": self.parent, "tick": self.tick,
                "span": self.kind, "subject": self.subject,
                "detail": self.detail, "values": self.values}

    @classmethod
    def from_record(cls, record: Dict) -> "Span":
        return cls(id=record["id"], parent=record.get("parent"),
                   tick=record["tick"], kind=record["span"],
                   subject=record.get("subject", ""),
                   detail=record.get("detail", ""),
                   values=record.get("values", {}))

    def __str__(self) -> str:
        head = (f"[{self.seconds:10.6f}s] #{self.id:<4d} "
                f"{self.kind:8s} {self.subject}")
        if self.detail:
            head += f" — {self.detail}"
        return head


class SpanLog:
    """Append-only span store with deterministic ids and chain walking."""

    def __init__(self, sink: Optional[Callable[[Dict], None]] = None):
        self.spans: List[Span] = []
        self.by_id: Dict[int, Span] = {}
        self._next = 1
        #: Optional callable invoked with each new span's record (the
        #: flight recorder streams spans to disk through this).
        self.sink = sink

    def add(self, kind: str, subject: str, detail: str = "", *,
            tick: int, parent: Optional[int] = None, **values) -> Span:
        span = Span(id=self._next, parent=parent, tick=tick, kind=kind,
                    subject=subject, detail=detail, values=values)
        self._next += 1
        self.spans.append(span)
        self.by_id[span.id] = span
        if self.sink is not None:
            self.sink(span.to_record())
        return span

    def load(self, record: Dict) -> Span:
        """Rebuild a span from a decoded record (query-side use)."""
        span = Span.from_record(record)
        self.spans.append(span)
        self.by_id[span.id] = span
        self._next = max(self._next, span.id + 1)
        return span

    # -- queries -------------------------------------------------------
    def find(self, kind: Optional[str] = None,
             subject_contains: str = "") -> List[Span]:
        out = []
        for span in self.spans:
            if kind is not None and span.kind != kind:
                continue
            if subject_contains and subject_contains not in span.subject:
                continue
            out.append(span)
        return out

    def chain(self, span: Span) -> List[Span]:
        """``span`` and its ancestors, root first."""
        out = [span]
        seen = {span.id}
        while span.parent is not None:
            parent = self.by_id.get(span.parent)
            if parent is None or parent.id in seen:
                break
            out.append(parent)
            seen.add(parent.id)
            span = parent
        out.reverse()
        return out

    def __len__(self) -> int:
        return len(self.spans)
