"""Whole-machine checkpoint/restore, deterministic replay, rollback.

The subsystem in one paragraph: a machine state is *named* by its run spec
plus its position on the virtual clock, *summarized* canonically
(:mod:`~repro.snapshot.digest`), *persisted* as records of the one
durable run format, the ESCJRNL journal (:mod:`~repro.snapshot.journal`),
*restored* by digest-verified deterministic re-execution from t=0 to the
furthest record (:mod:`~repro.snapshot.driver`), *verified* at per-event
granularity by lockstep replay (:mod:`~repro.snapshot.replay`), and
*partially rewound* at domain granularity for the chaos watchdog
(:mod:`~repro.snapshot.rollback`).
"""

from repro.snapshot.digest import (canonical_json, light_state,
                                   machine_summary, summary_diff)
from repro.snapshot.driver import RestoreMismatchError, RunDriver
from repro.snapshot.journal import (JournalError, JournalScan, RunJournal,
                                    scan_journal)
from repro.snapshot.replay import (Divergence, Recording, ReplayReport,
                                   record, replay)
from repro.snapshot.rollback import (DomainSnapshot, DomainSnapshotter,
                                     RollbackReport)
from repro.snapshot.runs import (ExperimentRun, ReplayableRun, reset_ids,
                                 run_from_spec)

__all__ = [
    "canonical_json", "light_state", "machine_summary", "summary_diff",
    "RestoreMismatchError", "RunDriver",
    "JournalError", "JournalScan", "RunJournal", "scan_journal",
    "Divergence", "Recording", "ReplayReport", "record", "replay",
    "DomainSnapshot", "DomainSnapshotter", "RollbackReport",
    "ExperimentRun", "ReplayableRun", "reset_ids", "run_from_spec",
]
