"""The exact scheduling ledger across crash-recovery boundaries.

``seq == events_processed + pending() + cancelled_removed`` is the
engine's conservation law: every scheduled event is executed, stored,
or cancelled-and-discarded.  :meth:`Simulator.check_invariant` asserts
it cheaply.  These tests pin the law across the crash-only recovery
paths — checkpoint/restore and write-ahead-journal fast-forward.
"""

from __future__ import annotations

from repro.snapshot import RunDriver, RunJournal
from repro.snapshot.runs import run_from_spec
from repro.supervise import RunState, resume_driver

SPEC = {
    "run": "experiment", "config": "accounting", "clients": 2,
    "document": "/doc-1k", "syn_rate": 200, "untrusted_cap": 16,
    "cgi_attackers": 0, "cgi_script": "loop", "qos": False,
    "warmup_s": 0.1, "measure_s": 0.3,
}


def ledger(sim):
    return {"seq": sim.seq, "processed": sim.events_processed,
            "pending": sim.pending(),
            "cancelled_removed": sim.cancelled_removed()}


def assert_ledger_exact(sim):
    sim.check_invariant()
    entry = ledger(sim)
    assert entry["seq"] == (entry["processed"] + entry["pending"] +
                            entry["cancelled_removed"]), entry


def test_ledger_holds_at_every_milestone():
    driver = RunDriver(run_from_spec(SPEC))
    seen = 0
    while driver.milestones_done < len(driver.run.milestones()):
        driver.step()
        assert_ledger_exact(driver.sim)
        seen += 1
    assert seen >= 4
    # The run really exercised all three ledger entries.
    assert driver.sim.events_processed > 0
    assert driver.sim.cancelled_removed() > 0


def test_ledger_survives_checkpoint_restore(tmp_path):
    path = str(tmp_path / "run.ckpt")
    driver = RunDriver(run_from_spec(SPEC))
    while driver.milestones_done < 2:
        driver.step()
    assert_ledger_exact(driver.sim)
    before = ledger(driver.sim)
    driver.checkpoint(path)

    restored, _ = RunDriver.resume(path)
    assert_ledger_exact(restored.sim)
    # Deterministic re-execution restores the *same* ledger, not merely
    # a consistent one.
    assert ledger(restored.sim) == before

    for d in (driver, restored):
        d.run_to(d.end_tick)
        assert_ledger_exact(d.sim)
    assert ledger(restored.sim) == ledger(driver.sim)
    assert restored.run.digest() == driver.run.digest()


def test_ledger_survives_journal_fast_forward(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SPEC))
    with RunJournal(state.journal_path, spec=SPEC) as journal:
        driver.journal = journal
        while driver.milestones_done < 3:
            driver.step()
    driver.journal = None  # closed with the `with` block
    assert_ledger_exact(driver.sim)

    resumed, info = resume_driver(state, SPEC)
    assert info["resumed_events"] == driver.sim.events_processed
    assert_ledger_exact(resumed.sim)
    assert ledger(resumed.sim) == ledger(driver.sim)

    resumed.run_to(resumed.end_tick)
    driver.run_to(driver.end_tick)
    assert_ledger_exact(resumed.sim)
    assert ledger(resumed.sim) == ledger(driver.sim)
    assert resumed.run.digest() == driver.run.digest()


def test_ledger_survives_checkpoint_then_journal_tail(tmp_path):
    """The supervised child's actual recovery path: a checkpoint mid-run
    plus journal records past it, fast-forwarded on resume."""
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SPEC))
    with RunJournal(state.journal_path, spec=SPEC) as journal:
        driver.journal = journal
        while driver.milestones_done < 2:
            driver.step()
        driver.checkpoint(state.checkpoint_path)
        while driver.milestones_done < 3:
            driver.step()
    resumed, info = resume_driver(state, SPEC)
    assert info["from_checkpoint"]
    assert_ledger_exact(resumed.sim)
    assert ledger(resumed.sim) == ledger(driver.sim)
