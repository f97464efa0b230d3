"""Crash-only execution: supervised run processes that survive SIGKILL.

Escort's thesis is that a service under attack must degrade and recover
rather than die; this package applies the same philosophy to the harness
that *runs* the simulations.  Any replayable run kind (chaos / defense /
cluster / experiment / a resilience-campaign cell) can be executed in a
supervised child process that:

* heartbeats over a pipe as it executes events, so a hung child is
  detected by missed heartbeats within a wall-clock timeout, SIGKILLed,
  and classified as ``hang``;
* write-ahead-journals every milestone plus a periodic checkpoint
  record into one run journal (:mod:`repro.snapshot.journal`), so a
  child killed at *any* instant — SIGKILL included — resumes by
  fast-forwarding to the journal's furthest record and still produces
  the byte-identical final digest;
* classifies every exit (ok / signal / exception / hang / oracle
  fingerprint) and retries transient failures with exponential backoff
  plus deterministic jitter, bounded by a retry budget;
* degrades gracefully: a run that exhausts its budget is *recorded* as
  failed and the campaign around it continues instead of aborting.

The deterministic crash-injection harness (:mod:`repro.supervise.
harness`) proves the contract: seeded SIGKILL points and hang injections
against reference runs, hard-gating on digest and replay-fingerprint
identity after resume.  ``python -m repro supervise`` is the CLI;
``--supervised`` on figure9 and resilience campaigns routes their cells
through the same machinery.
"""

from repro.supervise.state import RunState, resume_driver
from repro.supervise.supervisor import (AttemptReport, SupervisedResult,
                                        Supervisor, supervision_verdict)
from repro.supervise.harness import (SelftestCase, SelftestReport,
                                     crash_injection_selftest)

__all__ = [
    "RunState", "resume_driver",
    "AttemptReport", "SupervisedResult", "Supervisor",
    "supervision_verdict",
    "SelftestCase", "SelftestReport", "crash_injection_selftest",
]
