"""RunDriver: milestone-by-milestone execution, checkpointing, restore.

The driver owns the equivalence that makes lightweight checkpoints sound::

    sim.run(until=T1); sim.run(until=T2)   ==   sim.run(until=T2)

so executing a run in any number of slices — including stopping to write a
checkpoint after each slice, or stepping one event at a time for replay —
produces the same machine as one uninterrupted run.  A position record
(:mod:`repro.snapshot.journal`) is the run's place on that trajectory
(tick, events, milestones done) plus the state digest; *restore* rebuilds
the machine from the spec in a fresh process, re-executes from t=0 to the
recorded position (:meth:`RunDriver.fast_forward`), and refuses to
continue unless the digest matches bit for bit
(:class:`RestoreMismatchError` carries the field-level diff when a
checkpoint record's summary allows one).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks
from repro.snapshot.digest import summary_diff, summary_digest
from repro.snapshot.journal import (JournalError, RunJournal, scan_journal,
                                    write_journal)
from repro.snapshot.runs import ReplayableRun, reset_ids, run_from_spec

__all__ = ["RunDriver", "RestoreMismatchError", "checkpoint_ticks"]


def checkpoint_ticks(every_s: float) -> int:
    """A checkpoint cadence of ``every_s`` simulated seconds, in ticks.

    Raises ``ValueError`` unless ``every_s`` is finite and rounds to at
    least one tick: a cadence below that would journal a record per tick
    (hundreds of millions per simulated second), and zero or a negative
    cadence means nothing.
    """
    ticks = seconds_to_ticks(every_s) if math.isfinite(every_s) else 0
    if ticks < 1:
        raise ValueError(f"checkpoint interval must be a finite number of "
                         f"seconds of at least one tick, got {every_s!r}")
    return ticks


class RestoreMismatchError(Exception):
    """Re-execution did not reproduce a recorded state.

    Raised when the rebuilt machine's position or digest at a recorded
    tick differs from the record — meaning the code, the spec handling,
    or the determinism guarantee changed since the record was written —
    or when a journal belongs to a different run spec.  ``diffs`` lists
    the divergent fields.
    """

    def __init__(self, message: str, diffs: Optional[List[str]] = None):
        self.diffs = diffs or []
        detail = "".join(f"\n  {d}" for d in self.diffs[:20])
        super().__init__(message + detail)


class RunDriver:
    """Executes a :class:`ReplayableRun` against the simulated clock."""

    def __init__(self, run: ReplayableRun, *, build: bool = True):
        self.run = run
        #: Optional write-ahead journal (:class:`~repro.snapshot.journal.
        #: RunJournal`); when attached, every performed milestone appends
        #: one durable position+digest record before execution continues.
        self.journal = None
        #: Optional :class:`~repro.obs.session.ObsSession` — a pure
        #: observer notified after each performed milestone.  It never
        #: schedules events or charges cycles, so attaching one leaves
        #: event order, ``sim.seq`` and every digest untouched.
        self.obs = None
        if build:
            reset_ids()
            run.build()
        self._milestones: List[Tuple[int, str]] = list(run.milestones())
        self._ms_done = 0

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.run.bed.sim

    @property
    def end_tick(self) -> int:
        """Tick of the final milestone (the run's natural end)."""
        return self._milestones[-1][0] if self._milestones else 0

    @property
    def milestones_done(self) -> int:
        return self._ms_done

    @property
    def done(self) -> bool:
        return self._ms_done >= len(self._milestones)

    # ------------------------------------------------------------------
    # Coarse execution
    # ------------------------------------------------------------------
    def run_to(self, tick: int) -> None:
        """Advance the machine to exactly ``tick``.

        Performs every milestone due at or before ``tick``, interleaved
        with event execution, exactly as an unsliced run would.
        """
        while (self._ms_done < len(self._milestones)
               and self._milestones[self._ms_done][0] <= tick):
            due, name = self._milestones[self._ms_done]
            self.sim.run(until=due)
            self.run.perform(name)
            self._ms_done += 1
            if self.journal is not None:
                self.journal.milestone(self)
            if self.obs is not None:
                self.obs.on_milestone(self, name)
        self.sim.run(until=tick)

    def run_all(self):
        """Run to the final milestone and return the run's result."""
        self.run_to(self.end_tick)
        return self.run.result()

    # ------------------------------------------------------------------
    # Fine-grained execution (replay)
    # ------------------------------------------------------------------
    def step(self) -> Optional[str]:
        """Execute exactly one unit of work: one event or one milestone.

        Returns ``"event"`` or ``"milestone"`` for what ran, or ``None``
        when the run is complete.  A step-loop is observationally identical
        to :meth:`run_all` — that is the property replay relies on to
        interpose a fingerprint check after every single event.
        """
        if self._ms_done < len(self._milestones):
            due, name = self._milestones[self._ms_done]
            if self.sim.step_until(due):
                return "event"
            self.sim.finish_until(due)
            self.run.perform(name)
            self._ms_done += 1
            if self.journal is not None:
                self.journal.milestone(self)
            if self.obs is not None:
                self.obs.on_milestone(self, name)
            return "milestone"
        return None

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def position(self, kind: str = "milestone") -> Dict:
        """The record pinning the current position and state digest.

        ``kind`` is ``"milestone"`` or ``"checkpoint"``; a checkpoint
        record also carries the canonical summary, for field-level diffs
        when a restore does not reproduce it.
        """
        record = {"kind": kind, "tick": self.sim.now, "seq": self.sim.seq,
                  "events": self.sim.events_processed,
                  "milestones_done": self._ms_done}
        if kind == "checkpoint":
            record["summary"] = self.run.summary()
            record["digest"] = summary_digest(record["summary"])
        else:
            record["digest"] = self.run.digest()
        return record

    def checkpoint(self, path: str) -> Dict:
        """Atomically replace ``path`` with a journal holding the spec and
        one checkpoint record of the current position; returns the record."""
        record = self.position("checkpoint")
        write_journal(path, [{"kind": "spec", "spec": self.run.spec()},
                             record])
        return record

    def run_with_checkpoints(self, every_s: float, directory: str,
                             stem: str = "run"):
        """Run to completion, journaling to ``<directory>/<stem>.jrnl``.

        The journal gets every milestone plus a checkpoint record every
        ``every_s`` simulated seconds; ``--resume`` takes it.  A driver
        that has not executed anything yet starts the file over, a
        resumed one appends to it.  Returns ``(result, journal_path)``.
        A bad ``every_s`` raises ``ValueError`` (:func:`checkpoint_ticks`)
        before the journal is touched.
        """
        every = checkpoint_ticks(every_s)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{stem}.jrnl")
        if not (self.sim.events_processed or self._ms_done) \
                and os.path.exists(path):
            os.unlink(path)
        outer, self.journal = self.journal, RunJournal(path, self.run.spec())
        try:
            tick = self.sim.now
            while not self.done:
                tick = min(tick + every, self.end_tick)
                self.run_to(tick)
                if not self.done:
                    self.journal.append(self.position("checkpoint"))
        finally:
            self.journal.close()
            self.journal = outer
        return self.run.result(), path

    def fast_forward(self, target: Dict, progress=None,
                     source: str = "journal") -> None:
        """Re-execute to the recorded position ``target`` and verify it.

        Steps by *counts*, not by clock: event and milestone order is
        deterministic, so matching both counters lands on the exact cut
        point even when a milestone sits on the recorded tick; the
        trailing ``finish_until`` restores the clock across any idle gap
        before the cut.  Then events, seq and the digest must match the
        record, or :class:`RestoreMismatchError` is raised.  So is a
        recorded tick past the run's end, before anything re-executes:
        no position of this run lies there, and the clock would run on
        to it.

        ``progress`` (optional, zero-argument) is invoked out-of-band
        every ~1000 re-executed events so a supervising parent can tell a
        long deterministic fast-forward from a hang; it must not touch
        simulated state.
        """
        sim = self.sim
        if target["tick"] > self.end_tick:
            raise RestoreMismatchError(
                f"{source}: recorded tick {target['tick']} lies past the "
                f"end of this run (tick {self.end_tick})")
        if progress is not None:
            sim.set_progress_hook(progress, every_events=1000)
        try:
            while (sim.events_processed < target["events"]
                   or self._ms_done < target["milestones_done"]):
                if sim.events_processed > target["events"]:
                    break  # diverged; let verification report it
                if self.step() is None:
                    break
            sim.finish_until(target["tick"])
        finally:
            if progress is not None:
                sim.clear_progress_hook()
        mismatches = [
            f"{name}: recorded {target[key]} != replayed {actual}"
            for name, key, actual in (
                ("events_processed", "events", sim.events_processed),
                ("seq", "seq", sim.seq))
            if target[key] != actual]
        digest = self.run.digest()
        if digest != target["digest"]:
            if "summary" in target:
                mismatches += summary_diff(target["summary"],
                                           self.run.summary())
            else:
                mismatches.append(f"digest: recorded {target['digest']} "
                                  f"!= replayed {digest}")
        if mismatches:
            raise RestoreMismatchError(
                f"{source}: machine rebuilt from this record does not "
                f"match the recorded state at tick {target['tick']} "
                f"(code drift or nondeterminism)", mismatches)

    @classmethod
    def resume(cls, path: str, progress=None) -> Tuple["RunDriver", Dict]:
        """Restore any journal file to its furthest record, digest-verified.

        Rebuilds the machine from the recorded spec and fast-forwards to
        the last readable milestone or checkpoint record; returns
        ``(driver, record)``.  Raises :class:`JournalError` when the file
        holds no spec or no position, and :class:`RestoreMismatchError`
        when re-execution diverged.
        """
        scan = scan_journal(path)
        if scan.spec is None or scan.last is None:
            raise JournalError(
                f"{path}: no run spec and position to resume from "
                f"({scan.records} readable record(s)"
                f"{', torn tail' if scan.torn_tail else ''})")
        driver = cls(run_from_spec(scan.spec))
        driver.fast_forward(scan.last, progress, path)
        return driver, scan.last
