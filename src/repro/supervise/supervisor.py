"""The parent-side supervisor: fork, watch heartbeats, classify, retry.

The supervisor turns any replayable run spec into a *crash-only service*:
it executes the run in a child process (:mod:`repro.supervise.child`),
watches a heartbeat pipe, and enforces the full failure lifecycle the
paper demands of Escort itself — detect, contain, recover, degrade:

* **detect** — the child heartbeats every N executed events; a gap
  longer than ``heartbeat_timeout_s`` on the wall clock means the child
  is alive but not making progress, and it is SIGKILLed and classified
  as ``hang``.  A dead child is detected the same instant through pipe
  EOF, then classified from its exit status: ``ok``, ``signal:<NAME>``,
  ``exception:<Type>`` (the child left an ``error.json``), or
  ``exit:<rc>``.
* **contain** — one run, one process, one state directory; a crashing or
  hanging run cannot take the campaign down with it.
* **recover** — every non-``ok`` classification is retried with
  exponential backoff plus deterministic jitter (seeded by the spec, so
  two supervisors never synchronize their retry storms); each retry
  *resumes* by fast-forwarding to the run journal's furthest record
  rather than starting over, so progress survives the kill.
* **degrade** — a run that exhausts ``max_attempts`` is *recorded* as
  failed (:func:`supervision_verdict` shapes it like an oracle verdict)
  and the caller's campaign continues.
"""

from __future__ import annotations

import math
import os
import select
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.supervise.child import HEARTBEAT_ENV, check_count
from repro.supervise.state import RunState

__all__ = ["AttemptReport", "SupervisedResult", "Supervisor",
           "supervision_verdict"]


@dataclass
class AttemptReport:
    """What one child attempt did and how it ended."""

    attempt: int
    classification: str          # ok | hang | signal:X | exception:T | exit:N
    returncode: Optional[int]
    heartbeats: int
    duration_s: float
    backoff_s: float = 0.0       # delay slept *after* this attempt, if any
    resumed_events: int = 0      # where the child picked up, per result.json

    def as_dict(self) -> Dict:
        return dict(self.__dict__)


@dataclass
class SupervisedResult:
    """The outcome of a supervised run, across all attempts."""

    ok: bool
    classification: str          # the final attempt's classification
    state_dir: str
    attempts: List[AttemptReport] = field(default_factory=list)
    result: Optional[Dict] = None   # result.json payload when ok
    error: Optional[Dict] = None    # error.json payload when it raised

    @property
    def gave_up(self) -> bool:
        return not self.ok

    @property
    def digest(self) -> str:
        return self.result["digest"] if self.result else ""

    @property
    def fingerprint(self) -> List[int]:
        return self.result["fingerprint"] if self.result else []

    def as_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "classification": self.classification,
            "state_dir": self.state_dir,
            "attempts": [a.as_dict() for a in self.attempts],
            "result": self.result,
            "error": self.error,
        }


def supervision_verdict(sres: SupervisedResult) -> Dict:
    """Shape a supervised outcome like a campaign-oracle verdict.

    A graded child already computed the real verdict; pass it through.
    An ungraded success synthesizes an ``ok`` verdict from the digest.
    A gave-up run becomes a ``supervision:<classification>`` failure —
    the fingerprint vocabulary campaigns bank and minimizers preserve.
    """
    if sres.result is not None and "verdict" in sres.result:
        return sres.result["verdict"]
    if sres.ok:
        return {"ok": True, "failures": [], "digest": sres.digest,
                "events": sres.result["events"],
                "detail": sres.result.get("result_repr", "")}
    detail = "; ".join(
        f"attempt {a.attempt}: {a.classification}" for a in sres.attempts)
    if sres.error is not None:
        detail += f" [{sres.error['type']}: {sres.error['message'][:200]}]"
    return {"ok": False,
            "failures": [f"supervision:{sres.classification}"],
            "digest": "", "events": 0, "detail": detail}


def _jitter(seed_text: str, attempt: int) -> float:
    """Deterministic jitter in [0, 1): same spec+attempt, same delay."""
    return (zlib.crc32(f"{seed_text}#{attempt}".encode()) % 1024) / 1024.0


def _signal_name(num: int) -> str:
    try:
        return signal.Signals(num).name
    except ValueError:
        return str(num)


class Supervisor:
    """Executes run specs in supervised, resumable child processes."""

    def __init__(self, state_dir: str, *,
                 max_attempts: int = 3,
                 heartbeat_timeout_s: float = 10.0,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 5.0,
                 heartbeat_every_events: int = 200,
                 checkpoint_every_events: int = 5000,
                 python: Optional[str] = None):
        if not 0 < heartbeat_timeout_s < math.inf:
            raise ValueError(f"heartbeat_timeout_s must be finite and "
                             f"above 0, not {heartbeat_timeout_s!r}")
        self.max_attempts = check_count("max_attempts", max_attempts)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.heartbeat_every_events = check_count(
            "heartbeat_every_events", heartbeat_every_events)
        self.checkpoint_every_events = check_count(
            "checkpoint_every_events", checkpoint_every_events)
        self.state = RunState(state_dir).ensure()
        self.python = python or sys.executable

    # ------------------------------------------------------------------
    def run(self, spec: Dict, *, grade: bool = False,
            inject: Optional[Dict] = None,
            obs_dir: Optional[str] = None) -> SupervisedResult:
        """Run ``spec`` to completion under supervision.

        ``inject`` seeds a deterministic fault for the selftest harness:
        ``{"mode": "kill"|"hang", "after_events": K, "on_attempt": N}``.
        Only the designated attempt injects, so the resumed retry runs
        clean — exactly the SIGKILL-anywhere scenario the journal exists
        for.

        ``obs_dir`` attaches the observability flight recorder inside
        the child: telemetry streams into ``<obs_dir>/obs.jrnl`` and —
        like the run journal — survives SIGKILL; a resumed attempt
        appends to it rather than truncating.
        """
        from repro.snapshot.digest import canonical_json

        seed = canonical_json(spec)
        attempts: List[AttemptReport] = []
        for attempt in range(1, self.max_attempts + 1):
            report = self._attempt(spec, attempt, grade, inject, obs_dir)
            attempts.append(report)
            if report.classification == "ok":
                result = self.state.read_result()
                if report.resumed_events == 0 and result is not None:
                    report.resumed_events = (
                        result.get("resume", {}).get("resumed_events", 0))
                return SupervisedResult(
                    ok=True, classification="ok",
                    state_dir=self.state.directory,
                    attempts=attempts, result=result)
            if attempt < self.max_attempts:
                delay = min(self.backoff_cap_s,
                            self.backoff_base_s * (2 ** (attempt - 1))
                            * (1.0 + _jitter(seed, attempt)))
                report.backoff_s = delay
                if delay > 0:
                    time.sleep(delay)
        return SupervisedResult(
            ok=False, classification=attempts[-1].classification,
            state_dir=self.state.directory, attempts=attempts,
            error=self.state.read_error())

    # ------------------------------------------------------------------
    def _attempt(self, spec: Dict, attempt: int, grade: bool,
                 inject: Optional[Dict],
                 obs_dir: Optional[str] = None) -> AttemptReport:
        self.state.clear_outcome()
        self.state.write_job({
            "spec": spec,
            "attempt": attempt,
            "grade": grade,
            "inject": inject,
            "obs_dir": obs_dir,
            "heartbeat_every_events": self.heartbeat_every_events,
            "checkpoint_every_events": self.checkpoint_every_events,
        })
        read_fd, write_fd = os.pipe()
        env = dict(os.environ)
        env[HEARTBEAT_ENV] = str(write_fd)
        env["PYTHONPATH"] = self._pythonpath(env.get("PYTHONPATH"))
        start = time.monotonic()
        heartbeats = 0
        hung = False
        log = open(self.state.attempt_log_path(attempt), "wb")
        try:
            proc = subprocess.Popen(
                [self.python, "-m", "repro.supervise.child",
                 self.state.directory],
                pass_fds=(write_fd,), env=env,
                stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        os.close(write_fd)  # the child holds the only write end now
        try:
            while True:
                ready, _, _ = select.select([read_fd], [], [],
                                            self.heartbeat_timeout_s)
                if not ready:
                    # Wall-clock silence: the child is alive (the pipe
                    # would have hit EOF otherwise) but stopped executing
                    # events.  Crash-only: kill, never plead.
                    hung = True
                    proc.kill()
                    proc.wait()
                    break
                data = os.read(read_fd, 65536)
                if not data:   # EOF — the child exited
                    proc.wait()
                    break
                heartbeats += len(data)
        finally:
            os.close(read_fd)
        duration = time.monotonic() - start
        return AttemptReport(
            attempt=attempt,
            classification=self._classify(hung, proc.returncode),
            returncode=proc.returncode,
            heartbeats=heartbeats,
            duration_s=round(duration, 3))

    # ------------------------------------------------------------------
    def _classify(self, hung: bool, rc: Optional[int]) -> str:
        if hung:
            return "hang"
        if rc is not None and rc < 0:
            return f"signal:{_signal_name(-rc)}"
        if rc == 0 and self.state.read_result() is not None:
            return "ok"
        error = self.state.read_error()
        if error is not None:
            return f"exception:{error['type']}"
        return f"exit:{rc}"

    def _pythonpath(self, existing: Optional[str]) -> str:
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        if not existing:
            return src
        if src in existing.split(os.pathsep):
            return existing
        return src + os.pathsep + existing
