"""Deterministic replay with divergence pinpointing.

:func:`record` executes a run one event at a time, journaling a cheap
six-counter fingerprint (:func:`~repro.snapshot.digest.light_state`) after
*every* event plus a full state digest every ``every_events`` events and at
the end.  :func:`replay` re-executes the same spec in lockstep against the
recording and stops at the **first** event whose fingerprint differs,
reporting its event index, tick and server-cycle number plus which counters
moved wrong — the rr-style bisection primitive the chaos suite uses to
localize nondeterminism.

The fingerprint sees the clock, the scheduler sequence counter, the three
CPU cycle accumulators and the free-page count, which between them move on
virtually every kind of event; state drift invisible to all six (e.g. two
owners swapping equal charges) is caught by the periodic full digests and
localized to that journal window with a field-level diff.
"""

from __future__ import annotations

import base64
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.clock import ticks_to_server_cycles
from repro.snapshot.digest import light_state, summary_diff
from repro.snapshot.driver import RunDriver
from repro.snapshot.journal import JournalError, load_record, write_journal
from repro.snapshot.runs import ReplayableRun, run_from_spec

__all__ = ["Recording", "Divergence", "ReplayReport", "record", "replay"]

#: Names of the :func:`light_state` fields, for divergence reports.
LIGHT_FIELDS = ("tick", "seq", "busy_cycles", "idle_cycles",
                "interrupt_cycles", "free_pages")
LIGHT_WIDTH = len(LIGHT_FIELDS)


def _count(value, low: int = 0) -> bool:
    """``value`` is an int (not a bool) of at least ``low``."""
    return type(value) is int and value >= low


def _is_object(value) -> bool:
    return type(value) is dict


def _is_entry(row) -> bool:
    return (type(row) is list and len(row) == 3 and _count(row[0])
            and _count(row[1]) and type(row[2]) is str)


def _int64_count(text) -> Optional[int]:
    """How many int64 values base64 ``text`` holds (None if it is not
    base64 of whole int64 values)."""
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):
        return None
    return None if len(data) % 8 else len(data) // 8


class Recording:
    """Everything :func:`replay` needs to verify a re-execution."""

    def __init__(self, spec: Dict, every_events: int):
        self.spec = spec
        self.every_events = every_events
        #: ``[events, tick, digest]`` rows at journal boundaries.
        self.entries: List[List] = []
        #: Full summaries matching ``entries`` rows (for window diffs).
        self.summaries: List[Dict] = []
        #: Flat int64 array, LIGHT_WIDTH values per executed event.
        self.light = array("q")
        self.final_digest = ""
        self.final_summary: Dict = {}
        self.events_total = 0
        self.end_tick = 0

    # ------------------------------------------------------------------
    def light_at(self, index: int) -> List[int]:
        """Fingerprint recorded after event ``index`` (0-based)."""
        base = index * LIGHT_WIDTH
        return list(self.light[base:base + LIGHT_WIDTH])

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write a one-record journal file (atomic, CRC-framed)."""
        write_journal(path, [{
            "kind": "recording",
            "spec": self.spec,
            "every_events": self.every_events,
            "entries": self.entries,
            "summaries": self.summaries,
            "light": base64.b64encode(self.light.tobytes()).decode("ascii"),
            "final_digest": self.final_digest,
            "final_summary": self.final_summary,
            "events_total": self.events_total,
            "end_tick": self.end_tick,
        }])

    @classmethod
    def load(cls, path: str) -> "Recording":
        """Read a file :meth:`save` wrote.

        Every field :func:`replay` reads is checked first: a record that
        passed its CRC but holds a missing or ill-typed field, or a
        ``light`` array of the wrong length, raises :class:`JournalError`
        naming the file and the field.
        """
        payload = load_record(path, "recording")

        def field(key, ok, want):
            if key not in payload:
                raise JournalError(
                    f"{path}: recording field {key!r} is missing")
            value = payload[key]
            if not ok(value):
                raise JournalError(f"{path}: recording field {key!r} must "
                                   f"be {want}, got {value!r:.60}")
            return value

        rec = cls(field("spec", _is_object, "an object"),
                  field("every_events", lambda v: _count(v, 1),
                        "an int >= 1"))
        rec.entries = field(
            "entries", lambda v: type(v) is list and all(map(_is_entry, v)),
            "a list of [events, tick, digest] rows (int >= 0, int >= 0, "
            "string)")
        rec.summaries = field(
            "summaries", lambda v: type(v) is list
            and len(v) == len(rec.entries) and all(map(_is_object, v)),
            f"a list of {len(rec.entries)} objects, one per entry")
        rec.events_total = field("events_total", _count, "an int >= 0")
        rec.end_tick = field("end_tick", _count, "an int >= 0")
        values = rec.events_total * LIGHT_WIDTH
        light = field("light", lambda v: _int64_count(v) == values,
                      f"base64 of events_total x {LIGHT_WIDTH} = {values} "
                      f"int64 values")
        rec.light.frombytes(base64.b64decode(light))
        rec.final_digest = field("final_digest", lambda v: type(v) is str,
                                 "a string")
        rec.final_summary = field("final_summary", _is_object, "an object")
        return rec


@dataclass
class Divergence:
    """The first point where a replay left the recorded trajectory."""

    kind: str              # "event" | "digest" | "tail" | "final"
    events: int            # 1-based index of the first divergent event
    tick: int
    details: List[str] = field(default_factory=list)

    @property
    def cycle(self) -> int:
        """Server-cycle number of the divergence (the paper's clock unit)."""
        return ticks_to_server_cycles(self.tick)

    def describe(self) -> str:
        head = (f"first divergence at event #{self.events}, "
                f"tick {self.tick} (server cycle {self.cycle}), "
                f"kind={self.kind}")
        return head + "".join(f"\n  {d}" for d in self.details[:25])


@dataclass
class ReplayReport:
    ok: bool
    events_replayed: int
    divergence: Optional[Divergence] = None
    result: object = None


# ----------------------------------------------------------------------
def record(run: ReplayableRun, *, every_events: int = 2000):
    """Execute ``run`` to completion, journaling as it goes.

    Returns ``(result, recording)``.  ``every_events`` trades journal size
    against digest-window width for divergences the light fingerprint
    cannot see; 1 gives full digests at every event (short runs only).
    Anything but an int >= 1 raises ``ValueError`` before the run starts.
    """
    if not _count(every_events, 1):
        raise ValueError(f"every_events must be an int >= 1, "
                         f"got {every_events!r}")
    driver = RunDriver(run)
    rec = Recording(run.spec(), every_events)
    kernel = getattr(run.bed.server, "kernel", None)
    while True:
        kind = driver.step()
        if kind is None:
            break
        if kind != "event":
            continue
        rec.light.extend(light_state(driver.sim, kernel))
        n = driver.sim.events_processed
        if n % every_events == 0:
            rec.entries.append([n, driver.sim.now, run.digest()])
            rec.summaries.append(run.summary())
    rec.events_total = driver.sim.events_processed
    rec.end_tick = driver.sim.now
    rec.final_digest = run.digest()
    rec.final_summary = run.summary()
    return run.result(), rec


def replay(recording: Recording) -> ReplayReport:
    """Re-execute a recording's spec in lockstep and compare."""
    run = run_from_spec(recording.spec)
    driver = RunDriver(run)
    kernel = getattr(run.bed.server, "kernel", None)
    entry_idx = 0
    n = 0
    while True:
        kind = driver.step()
        if kind is None:
            break
        if kind != "event":
            continue
        n += 1
        actual = light_state(driver.sim, kernel)
        if n > recording.events_total:
            return ReplayReport(False, n, Divergence(
                "tail", n, actual[0],
                [f"replay executed extra events beyond the recorded "
                 f"{recording.events_total}"]))
        expected = recording.light_at(n - 1)
        if actual != expected:
            details = [
                f"{name}: expected {e} != actual {a}"
                for name, e, a in zip(LIGHT_FIELDS, expected, actual)
                if e != a]
            return ReplayReport(False, n, Divergence(
                "event", n, actual[0], details))
        if (entry_idx < len(recording.entries)
                and n == recording.entries[entry_idx][0]):
            ev_n, tick, digest = recording.entries[entry_idx]
            if run.digest() != digest:
                lo = (recording.entries[entry_idx - 1][0]
                      if entry_idx else 0)
                details = ([f"state digest mismatch in event window "
                            f"({lo}, {ev_n}] — counters agreed but "
                            f"distribution of state differs:"]
                           + summary_diff(recording.summaries[entry_idx],
                                          run.summary()))
                return ReplayReport(False, n, Divergence(
                    "digest", ev_n, tick, details))
            entry_idx += 1
    if n < recording.events_total:
        return ReplayReport(False, n, Divergence(
            "tail", n + 1, driver.sim.now,
            [f"replay ended after {n} events; recording has "
             f"{recording.events_total}"]))
    if run.digest() != recording.final_digest:
        return ReplayReport(False, n, Divergence(
            "final", n, driver.sim.now,
            ["final state digest mismatch:"]
            + summary_diff(recording.final_summary, run.summary())))
    return ReplayReport(True, n, None, run.result())
