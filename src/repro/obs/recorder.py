"""The flight recorder: CRC-framed telemetry that survives SIGKILL.

Telemetry streams into a journal *sidecar* (``obs.jrnl``) in the ESCJRNL
format of :mod:`repro.snapshot.journal`, through its one reader and its
one open-for-append: the first torn or corrupt line ends the trustworthy
prefix, and a resumed writer cuts the file back to that prefix before
appending.  Record kinds::

    obs-meta       run spec + attempt marker (one per writer attach)
    sample         {"tick": T, "metrics": {key: value, ...}}
    span           a parent-linked span record (see repro.obs.spans)
    obs-final      sample/span totals + sha256 of the final metrics dump

Durability policy differs from the run journal on purpose: the run
journal fsyncs every record because resume *correctness* depends on it;
the recorder only ``flush``\\ es per record (the OS page cache survives a
SIGKILLed process) and fsyncs at milestones via :meth:`FlightRecorder.
sync` — telemetry is evidence, not ground truth, so it buys back the
per-record fsync cost.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.snapshot.journal import (JournalError, encode_record,
                                    open_for_append, read_records)

#: Default sidecar filename inside an obs directory.
SIDECAR_NAME = "obs.jrnl"

__all__ = ["FlightRecorder", "ObsScan", "SIDECAR_NAME", "scan_obs"]


@dataclass
class ObsScan:
    """Everything a reader recovered from a telemetry sidecar."""

    meta: List[Dict] = field(default_factory=list)
    samples: List[Dict] = field(default_factory=list)
    span_records: List[Dict] = field(default_factory=list)
    finals: List[Dict] = field(default_factory=list)
    torn_tail: bool = False
    records: int = 0

    @property
    def complete(self) -> bool:
        """True when the run wrote its final record (no crash mid-run)."""
        return bool(self.finals) and not self.torn_tail

    def final_metrics(self) -> Dict[str, float]:
        """Last-seen value of every metric, from the sample stream.

        Works on a torn (crashed) sidecar too — that is the point of the
        flight recorder: the evidence up to the last flushed record.
        """
        out: Dict[str, float] = {}
        for sample in self.samples:
            out.update(sample["metrics"])
        return out

    def series(self, key: str) -> List:
        """Tick-stamped values of one metric across the sample stream."""
        points = []
        last = None
        for sample in self.samples:
            metrics = sample["metrics"]
            if key in metrics and metrics[key] != last:
                last = metrics[key]
                points.append((sample["tick"], last))
        return points


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


#: Per record kind: ``(field, requirement, test, required)`` for every
#: field a reader of that kind uses.
_RECORD_FIELDS = {
    "sample": (
        ("tick", "an int >= 0", _count, True),
        ("metrics", "an object mapping strings to finite numbers",
         lambda v: type(v) is dict and all(map(_number, v.values())),
         True)),
    "span": (
        ("id", "an int", lambda v: type(v) is int, True),
        ("tick", "an int >= 0", _count, True),
        ("span", "a string", lambda v: type(v) is str, True),
        ("parent", "an int or null",
         lambda v: v is None or type(v) is int, False),
        ("subject", "a string", lambda v: type(v) is str, False),
        ("detail", "a string", lambda v: type(v) is str, False),
        ("values", "an object", lambda v: type(v) is dict, False)),
    "obs-final": (
        ("samples", "an int >= 0", _count, True),
        ("spans", "an int >= 0", _count, True),
        ("kills", "an int >= 0", _count, True),
        ("metrics_digest", "a string", lambda v: type(v) is str, True)),
    "obs-meta": (
        ("spec", "an object", lambda v: type(v) is dict, False),
        ("attempt", "an int", lambda v: type(v) is int, False)),
}


def _record_problem(kind: str, record: Dict) -> Optional[str]:
    """What is wrong with a sidecar record of ``kind``, if anything."""
    for key, want, ok, required in _RECORD_FIELDS[kind]:
        if key not in record:
            if required:
                return f"field {key!r} is missing"
        elif not ok(record[key]):
            return f"field {key!r} must be {want}, got {record[key]!r:.60}"
    return None


def scan_obs(path: str) -> ObsScan:
    """Read the trustworthy prefix of a telemetry sidecar.

    A record that passed its CRC but does not hold the fields the
    ``obs`` readers use (:data:`_RECORD_FIELDS`) raises
    :class:`~repro.snapshot.journal.JournalError` naming the file, the
    record and the field.
    """
    records, _, torn = read_records(path, "telemetry sidecar")
    scan = ObsScan(torn_tail=torn, records=len(records))
    lists = {"obs-meta": scan.meta, "sample": scan.samples,
             "span": scan.span_records, "obs-final": scan.finals}
    for number, record in enumerate(records, 1):
        kind = record.get("kind")
        if type(kind) is not str or kind not in lists:
            continue
        problem = _record_problem(kind, record)
        if problem is not None:
            raise JournalError(f"{path}: record {number} ({kind}) {problem}")
        lists[kind].append(record)
    return scan


class FlightRecorder:
    """Append-only CRC-framed telemetry writer.

    ``append=False`` (the default) truncates and starts a fresh sidecar;
    ``append=True`` extends an existing one after its readable prefix (a
    supervised child resuming after SIGKILL keeps the pre-crash
    telemetry and marks the new attempt with its own ``obs-meta``
    record).
    """

    def __init__(self, path: str, append: bool = False):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh, _ = open_for_append(path, what="telemetry sidecar",
                                      fresh=not append)
        self._fh.flush()
        self.records_written = 0

    def record(self, record: Dict) -> None:
        """Frame and write one record; flushed so SIGKILL cannot eat it."""
        self._fh.write(encode_record(record))
        self._fh.flush()
        self.records_written += 1

    def sync(self) -> None:
        """fsync — called at milestones, not per record (see module doc)."""
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
