"""The durable run record (format ``ESCJRNL 1``).

Every file the snapshot layer writes is one of these — the write-ahead
run journal, a checkpoint file, a replay recording, a sweep's cell cache
— and so is the telemetry sidecar of :mod:`repro.obs.recorder`.  A run
journal holds the run spec, then one fsync'd *milestone* record each time
the run crosses a milestone (boot, start load, open/close the
measurement window, a chaos action) and, on a coarser cadence,
*checkpoint* records.  Both pin where execution stood (tick, scheduler
sequence, events executed, milestones done) and what the machine hashed
to; a checkpoint record also carries the canonical summary behind that
digest, for field-level diffs.  Generator frames cannot be pickled, so a
restore always re-executes from t=0; a record is a point where that
re-execution is checked bit for bit.

File layout — line-oriented, human-greppable::

    ESCJRNL 1\\n
    <crc32 hex8> {"kind":"spec","spec":{...}}\\n
    <crc32 hex8> {"kind":"milestone","tick":...,"seq":...,...}\\n
    ...

Each record line carries the CRC-32 of its own JSON text.  The scan is
crash-only: the first line that is incomplete, fails its CRC or fails to
parse ends the readable prefix — everything before it is trusted,
everything after it is ignored, and an append first cuts the file back
to that prefix.  Appends are flushed and fsync'd before the writer moves
on, so a milestone is either durably journaled or it never happened;
whole files are replaced atomically by :func:`write_journal`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

JOURNAL_MAGIC = b"ESCJRNL"
JOURNAL_VERSION = 1
JOURNAL_HEADER_LINE = JOURNAL_MAGIC + b" " + str(JOURNAL_VERSION).encode() \
    + b"\n"

__all__ = ["JournalError", "JournalScan", "RunJournal", "scan_journal",
           "JOURNAL_HEADER_LINE", "encode_record", "decode_record",
           "read_records", "open_for_append", "write_journal",
           "load_record"]


class JournalError(Exception):
    """The file exists but cannot be used (wrong magic or version, or
    not the record it was expected to hold)."""


@dataclass
class JournalScan:
    """Everything a reader recovered from a run journal."""

    #: The run spec recorded in the header record (None if absent).
    spec: Optional[Dict] = None
    #: Milestone and checkpoint records, in append order.
    positions: List[Dict] = field(default_factory=list)
    #: True when the file ends in an unreadable record (torn write).
    torn_tail: bool = False
    #: Total records successfully read (spec record included).
    records: int = 0

    @property
    def milestones(self) -> List[Dict]:
        """The milestone records alone, in append order."""
        return [r for r in self.positions if r["kind"] == "milestone"]

    @property
    def last(self) -> Optional[Dict]:
        """The furthest durably recorded position, if any."""
        return self.positions[-1] if self.positions else None


def encode_record(record: Dict) -> bytes:
    """One dict -> CRC-framed record line (``<crc32 hex8> <json>\\n``)."""
    body = json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode()
    return format(zlib.crc32(body), "08x").encode() + b" " + body + b"\n"


def decode_record(line: bytes) -> Optional[Dict]:
    """One record line -> dict, or None if torn/corrupt."""
    if not line.endswith(b"\n") or line.find(b" ") != 8:
        return None  # torn: the writer died mid-write
    body = line[9:-1]
    try:
        if int(line[:8], 16) != zlib.crc32(body):
            return None
        record = json.loads(body)
    except (ValueError, TypeError, RecursionError):
        return None
    return record if isinstance(record, dict) else None


def read_records(path: str, what: str = "run journal"
                 ) -> Tuple[List[Dict], int, bool]:
    """The one reader of the format: ``(records, prefix_bytes, torn)``.

    ``records`` are the readable prefix's records in file order,
    ``prefix_bytes`` is that prefix's length (header included) and
    ``torn`` says whether anything unreadable follows it.  A missing or
    empty file, or one cut inside its header line, is normal crash
    residue and reads as empty; :class:`JournalError` is raised only for
    a file that is some other format or another version of this one.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return [], 0, False
    if not data.startswith(JOURNAL_HEADER_LINE):
        if JOURNAL_HEADER_LINE.startswith(data):
            return [], 0, bool(data)
        header = data.split(b"\n", 1)[0]
        if header.startswith(JOURNAL_MAGIC + b" "):
            version = header[len(JOURNAL_MAGIC) + 1:][:16]
            raise JournalError(
                f"{path}: {what} format version "
                f"{version.decode('ascii', 'replace')} is not supported "
                f"(expected {JOURNAL_VERSION})")
        raise JournalError(
            f"{path}: not a {what} (bad header {header[:24]!r})")
    records: List[Dict] = []
    pos = len(JOURNAL_HEADER_LINE)
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        record = decode_record(data[pos:end])
        if record is None:
            return records, pos, True
        records.append(record)
        pos = end
    return records, pos, False


def _position_problem(record: Dict) -> Optional[str]:
    """What is wrong with a milestone or checkpoint record, if anything."""
    counters = ("tick", "seq", "events", "milestones_done")
    for key in (*counters, "digest"):
        if key not in record:
            return f"field {key!r} is missing"
    for key in counters:
        value = record[key]
        if type(value) is not int or value < 0:
            return f"field {key!r} must be an int >= 0, got {value!r:.60}"
    if type(record["digest"]) is not str:
        return f"field 'digest' must be a string, got " \
               f"{record['digest']!r:.60}"
    if type(record.get("summary", {})) is not dict:
        return f"field 'summary' must be an object, got " \
               f"{record['summary']!r:.60}"
    return None


def scan_journal(path: str) -> JournalScan:
    """Read the trustworthy prefix of a run journal.

    A position record that passed its CRC but does not hold the fields a
    restore reads (:func:`_position_problem`) raises
    :class:`JournalError` naming the file, the record and the field.
    """
    records, _, torn = read_records(path)
    scan = JournalScan(torn_tail=torn, records=len(records))
    for number, record in enumerate(records, 1):
        kind = record.get("kind")
        if kind == "spec" and scan.spec is None:
            scan.spec = record.get("spec")
        elif kind in ("milestone", "checkpoint"):
            problem = _position_problem(record)
            if problem is not None:
                raise JournalError(
                    f"{path}: record {number} ({kind}) {problem}")
            scan.positions.append(record)
    return scan


def _fsync_dir(path: str) -> None:
    """fsync the directory holding ``path`` (makes a create or rename
    durable)."""
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - exotic filesystems
        pass


def open_for_append(path: str, head: Iterable[Dict] = (), *,
                    what: str = "run journal", fresh: bool = False):
    """The one open-for-append: returns ``(file, started_fresh)``.

    Cuts the file back to its readable prefix first — a record torn by a
    crashed writer would otherwise swallow the first record appended
    after it — and starts the file over (header line plus ``head``
    records) when that prefix holds no record or ``fresh`` is set.
    """
    records, end = [], 0
    if not fresh:
        records, end, _ = read_records(path, what)
    if not records:
        end = 0
    fh = open(path, "ab")
    fh.truncate(end)
    if not end:
        fh.write(JOURNAL_HEADER_LINE + b"".join(map(encode_record, head)))
    return fh, not end


def write_journal(path: str, records: Iterable[Dict]) -> None:
    """Atomically replace ``path`` with a journal holding ``records``.

    Crash-only: the bytes land in a temp file that is flushed, fsync'd
    and renamed over ``path``, and the directory is fsync'd so the rename
    survives a power cut.  A writer killed at any instant leaves either
    the old file or the new one; the same records always write the same
    bytes.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(JOURNAL_HEADER_LINE + b"".join(map(encode_record, records)))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def load_record(path: str, kind: str) -> Dict:
    """The one ``kind`` record of a file :func:`write_journal` wrote."""
    records, _, torn = read_records(path, f"{kind} file")
    if torn or len(records) != 1 or records[0].get("kind") != kind:
        raise JournalError(
            f"{path}: not a {kind} file (want one complete {kind!r} "
            f"record, found {len(records)} record(s)"
            f"{' and a torn tail' if torn else ''})")
    return records[0]


class RunJournal:
    """Append-only writer; every append is durable before it returns."""

    def __init__(self, path: str, spec: Optional[Dict] = None):
        self.path = path
        head = [{"kind": "spec", "spec": spec}] if spec is not None else []
        self._fh, fresh = open_for_append(path, head)
        self._sync()
        if fresh:
            _fsync_dir(path)

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: Dict) -> None:
        """Durably append one record (write + flush + fsync)."""
        self._fh.write(encode_record(record))
        self._sync()

    def milestone(self, driver) -> None:
        """Journal a :class:`~repro.snapshot.driver.RunDriver` position.

        Called by the driver immediately after performing a milestone;
        the digest makes the record self-verifying at resume time.
        """
        self.append(driver.position())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
