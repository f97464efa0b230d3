"""The supervised child: execute one run slice-by-slice, crash-only.

This module is the process the :class:`~repro.supervise.supervisor.
Supervisor` forks (``python -m repro.supervise.child <state_dir>``).  It
never negotiates with its parent beyond two one-way channels: heartbeat
bytes written to an inherited pipe fd (``ESC_HEARTBEAT_FD``), and the
files of the state directory.  Every durable write is atomic or fsync'd,
so the child is indifferent to being SIGKILLed between any two machine
instructions — the next attempt resumes via
:func:`~repro.supervise.state.resume_driver` and reproduces the same
digest.

Execution shape:

1. read ``job.json`` (spec + cadences + optional fault injection);
2. resume: fast-forward to the journal's furthest record
   (digest-verified);
3. attach the write-ahead journal and an engine progress hook that —
   every ``heartbeat_every_events`` executed events — heartbeats the
   parent, honours the seeded crash/hang injection for the deterministic
   selftest, and appends a checkpoint record to ``run.journal`` on its
   own coarser ``checkpoint_every_events`` cadence;
4. run to the final milestone; grade with the campaign oracle's rules
   when the kind has a grader; write ``result.json`` atomically.

A raising run writes ``error.json`` and exits with status 3; the
supervisor turns that into an ``exception:<Type>`` classification.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback
from typing import Dict, Optional

from repro.supervise.state import RunState, resume_driver

#: Exit status when the run raised (error.json has the details).
EXIT_RUN_EXCEPTION = 3
#: Exit status when the state directory itself is unusable (no job.json).
EXIT_BAD_JOB = 4

HEARTBEAT_ENV = "ESC_HEARTBEAT_FD"

DEFAULT_HEARTBEAT_EVERY = 200
DEFAULT_CHECKPOINT_EVERY = 5000

__all__ = ["execute_job", "main", "check_count", "EXIT_RUN_EXCEPTION",
           "EXIT_BAD_JOB", "HEARTBEAT_ENV"]


def check_count(name: str, value) -> int:
    """``value`` if it is an integer >= 1, else a ``ValueError`` naming
    ``name`` (event cadences, attempt numbers and budgets)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
    return value


class _Heartbeat:
    """Best-effort pulse to the parent; silent when unsupervised."""

    def __init__(self, fd: Optional[int]):
        self.fd = fd

    def pulse(self) -> None:
        if self.fd is None:
            return
        try:
            os.write(self.fd, b".")
        except OSError:
            self.fd = None  # parent is gone; keep executing regardless


def _inject_due(inject: Optional[Dict], attempt: int, events: int) -> bool:
    if inject is None or events < int(inject["after_events"]):
        return False
    on_attempt = int(inject.get("on_attempt", 1))
    return on_attempt == 0 or attempt == on_attempt  # 0 = every attempt


def _perform_injection(inject: Dict) -> None:
    if inject.get("mode") == "hang":
        # A hang is a process that stays alive but stops making progress:
        # heartbeats cease, the machine does not advance.
        while True:  # pragma: no cover - the supervisor SIGKILLs us
            time.sleep(0.05)
    os.kill(os.getpid(), signal.SIGKILL)  # the paper-grade crash


def _jsonable_measurement(result):
    """Project a run result into plain JSON (drop what cannot encode)."""
    import dataclasses
    import json

    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        fields = dataclasses.asdict(result)
    elif hasattr(result, "__dict__"):
        fields = dict(result.__dict__)
    else:
        fields = None
    if isinstance(fields, dict):
        out = {}
        for key, value in fields.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                continue
            out[key] = value
        return out
    try:
        json.dumps(result)
        return result
    except (TypeError, ValueError):
        return None


def _final_payload(driver, resume_info: Dict, grade: bool) -> Dict:
    from repro.snapshot.digest import light_state

    run = driver.run
    server = getattr(run.bed, "server", None)
    kernel = getattr(server, "kernel", None) if server is not None else None
    result = run.result()
    payload = {
        "ok": True,
        "digest": run.digest(),
        "fingerprint": light_state(driver.sim, kernel),
        "tick": driver.sim.now,
        "seq": driver.sim.seq,
        "events": driver.sim.events_processed,
        "milestones_done": driver.milestones_done,
        "resume": resume_info,
        "result_repr": repr(result)[:500],
        "measurement": _jsonable_measurement(result),
    }
    if grade:
        from repro.resilience.oracle import grade_run

        failures, detail = grade_run(run, result)
        payload["verdict"] = {
            "ok": not failures, "failures": failures,
            "digest": payload["digest"], "events": payload["events"],
            "detail": detail,
        }
    return payload


def execute_job(state_dir: str, heartbeat_fd: Optional[int] = None) -> int:
    """Run the job described by ``<state_dir>/job.json``; returns exit rc."""
    from repro.snapshot.journal import RunJournal

    state = RunState(state_dir)
    job = state.read_job()
    if job is None or "spec" not in job:
        print(f"{state.job_path}: missing or unreadable", file=sys.stderr)
        return EXIT_BAD_JOB

    spec = job["spec"]
    inject = job.get("inject")
    try:
        attempt = check_count("attempt", job.get("attempt", 1))
        hb_every = check_count(
            "heartbeat_every_events",
            job.get("heartbeat_every_events", DEFAULT_HEARTBEAT_EVERY))
        ckpt_every = check_count(
            "checkpoint_every_events",
            job.get("checkpoint_every_events", DEFAULT_CHECKPOINT_EVERY))
    except ValueError as exc:
        print(f"{state.job_path}: field {exc}", file=sys.stderr)
        return EXIT_BAD_JOB
    heartbeat = _Heartbeat(heartbeat_fd)
    heartbeat.pulse()  # announce liveness before the (possibly long) resume

    try:
        driver, resume_info = resume_driver(state, spec,
                                            progress=heartbeat.pulse)
        heartbeat.pulse()
        driver.journal = RunJournal(state.journal_path, spec=spec)

        obs = None
        obs_dir = job.get("obs_dir")
        if obs_dir:
            # The flight recorder appends across attempts: pre-crash
            # telemetry is evidence, and the new attempt marks itself
            # with its own obs-meta record.
            from repro.obs import ObsSession
            obs = ObsSession(obs_dir, append=attempt > 1)
            obs.note_attempt(attempt, resume_info)
            obs.attach(driver)

        ckpt_at = [driver.sim.events_processed + ckpt_every]

        def on_progress():
            heartbeat.pulse()
            events = driver.sim.events_processed
            if _inject_due(inject, attempt, events):
                _perform_injection(inject)
            if events >= ckpt_at[0]:
                driver.journal.append(driver.position("checkpoint"))
                ckpt_at[0] = events + ckpt_every

        driver.sim.set_progress_hook(on_progress, every_events=hb_every)
        try:
            driver.run_to(driver.end_tick)
        finally:
            driver.sim.clear_progress_hook()
        # Injection can be seeded past the run's natural end (a kill point
        # the run never reaches); the events-based check covers the final
        # partial stride too.
        if _inject_due(inject, attempt, driver.sim.events_processed):
            _perform_injection(inject)

        if obs is not None:
            obs.finish()
        payload = _final_payload(driver, resume_info, bool(job.get("grade")))
        state.write_result(payload)
        heartbeat.pulse()
        return 0
    except Exception as exc:
        state.write_error({
            "type": type(exc).__name__,
            "message": str(exc)[:1000],
            "attempt": attempt,
            "traceback": traceback.format_exc()[-4000:],
        })
        return EXIT_RUN_EXCEPTION


def main(argv=None) -> int:
    """CLI entry: ``python -m repro.supervise.child <state_dir>``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.supervise.child <state_dir>",
              file=sys.stderr)
        return 2
    fd_text = os.environ.get(HEARTBEAT_ENV)
    fd = int(fd_text) if fd_text else None
    return execute_job(argv[0], heartbeat_fd=fd)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
