"""The on-disk state of one supervised run, and SIGKILL-anywhere resume.

A supervised run owns one *state directory*; everything the parent and
the child exchange — and everything a resume needs — lives there as
crash-only files (atomic renames, fsync'd appends, self-verifying
formats)::

    state_dir/
      job.json       what to run (spec + options + per-attempt injection)
      run.journal    the run record (ESCJRNL, fsync'd): every milestone
                     plus a checkpoint record every N events
      result.json    final result, digest, fingerprint   (atomic)
      error.json     exception record when the run raised (atomic)
      attempt-N.log  child stdout/stderr per attempt

:func:`resume_driver` is the heart of the crash-only contract: given the
directory of a run killed at *any* instant, it rebuilds the machine from
the spec and fast-forwards deterministic re-execution to the journal's
furthest record (:meth:`~repro.snapshot.driver.RunDriver.fast_forward`),
refusing to continue unless that record's digest matches bit for bit.
A journal line cut mid-write is normal crash residue and silently
shortens the resume horizon by one record; *mismatching* digests mean
code drift or nondeterminism and raise loudly.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Tuple

JOB_FILE = "job.json"
JOURNAL_FILE = "run.journal"
RESULT_FILE = "result.json"
ERROR_FILE = "error.json"

__all__ = ["RunState", "resume_driver", "write_json_atomic", "read_json"]


def write_json_atomic(path: str, payload: Dict) -> None:
    """Crash-only JSON write: temp file + flush + fsync + atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_json(path: str) -> Optional[Dict]:
    """Read a JSON file; None when absent or unreadable (crash residue)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class RunState:
    """Path arithmetic plus typed accessors for one state directory."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- paths ----------------------------------------------------------
    @property
    def job_path(self) -> str:
        return os.path.join(self.directory, JOB_FILE)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILE)

    @property
    def result_path(self) -> str:
        return os.path.join(self.directory, RESULT_FILE)

    @property
    def error_path(self) -> str:
        return os.path.join(self.directory, ERROR_FILE)

    def attempt_log_path(self, attempt: int) -> str:
        return os.path.join(self.directory, f"attempt-{attempt}.log")

    # -- typed accessors ------------------------------------------------
    def ensure(self) -> "RunState":
        os.makedirs(self.directory, exist_ok=True)
        return self

    def write_job(self, job: Dict) -> None:
        write_json_atomic(self.job_path, job)

    def read_job(self) -> Optional[Dict]:
        return read_json(self.job_path)

    def read_result(self) -> Optional[Dict]:
        return read_json(self.result_path)

    def read_error(self) -> Optional[Dict]:
        return read_json(self.error_path)

    def write_result(self, payload: Dict) -> None:
        write_json_atomic(self.result_path, payload)

    def write_error(self, payload: Dict) -> None:
        write_json_atomic(self.error_path, payload)

    def clear_outcome(self) -> None:
        """Drop result/error markers before a (re-)attempt."""
        for path in (self.result_path, self.error_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
def resume_driver(state: RunState, spec: Dict,
                  progress=None) -> Tuple["object", Dict]:
    """Rebuild a run killed at any point; returns ``(driver, info)``.

    ``info`` records how far the resume reached: ``{"resumed_events":
    int, "resumed_milestones": int, "journal_records": int,
    "journal_torn_tail": bool}``.  With no usable journal record the
    driver starts fresh at t=0 (``resumed_events == 0``).

    Raises :class:`~repro.snapshot.driver.RestoreMismatchError` when the
    journal belongs to a different spec or deterministic re-execution
    fails to reproduce its furthest record — both mean the code or the
    spec handling changed under a live run, never a normal crash.
    """
    from repro.snapshot.driver import RestoreMismatchError, RunDriver
    from repro.snapshot.journal import scan_journal
    from repro.snapshot.runs import run_from_spec

    scan = scan_journal(state.journal_path)
    if scan.spec is not None and scan.spec != spec:
        raise RestoreMismatchError(
            f"{state.journal_path}: journal belongs to a different run "
            f"spec; refusing to graft histories")
    driver = RunDriver(run_from_spec(spec))
    if scan.last is not None:
        driver.fast_forward(scan.last, progress, state.journal_path)
    info = {
        "resumed_events": driver.sim.events_processed,
        "resumed_milestones": driver.milestones_done,
        "journal_records": scan.records,
        "journal_torn_tail": scan.torn_tail,
    }
    return driver, info
