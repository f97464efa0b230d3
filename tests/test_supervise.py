"""Supervised execution: SIGKILL-anywhere resume, hang detection, degrade.

The crash-only acceptance story, test-sized: a supervised child killed at
a seeded event index resumes by fast-forwarding to its run journal's
furthest record and produces the byte-identical digest and replay fingerprint of an
uninterrupted in-process run; a hung child is detected by missed
heartbeats within the wall-clock timeout; a run that dies on every
attempt exhausts its bounded retry budget and is *recorded* as failed.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.snapshot import (RestoreMismatchError, RunDriver, RunJournal,
                            scan_journal)
from repro.snapshot.runs import run_from_spec
from repro.supervise import (RunState, Supervisor, SupervisedResult,
                             crash_injection_selftest, resume_driver,
                             supervision_verdict)
from repro.supervise.child import EXIT_BAD_JOB, execute_job
from repro.supervise.harness import reference_outcome, selftest_spec
from repro.supervise.state import read_json, write_json_atomic

SMALL_SPEC = {
    "run": "experiment", "config": "accounting", "clients": 2,
    "document": "/doc-1k", "syn_rate": 200, "untrusted_cap": 16,
    "cgi_attackers": 0, "cgi_script": "loop", "qos": False,
    "warmup_s": 0.1, "measure_s": 0.3,
}


def small_supervisor(tmp_path, name="s", **kwargs):
    kwargs.setdefault("max_attempts", 2)
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("heartbeat_every_events", 100)
    kwargs.setdefault("checkpoint_every_events", 1500)
    return Supervisor(str(tmp_path / name), **kwargs)


# ----------------------------------------------------------------------
# State directory + resume (in-process, no subprocesses)
# ----------------------------------------------------------------------
def test_write_json_atomic_round_trip_and_no_residue(tmp_path):
    path = str(tmp_path / "x.json")
    write_json_atomic(path, {"b": 2, "a": [1, 2]})
    assert read_json(path) == {"b": 2, "a": [1, 2]}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert read_json(str(tmp_path / "absent.json")) is None
    Path(path).write_text("{not json")
    assert read_json(path) is None


@pytest.mark.parametrize("kwargs", [
    {"max_attempts": 0}, {"checkpoint_every_events": -1},
    {"heartbeat_every_events": 0}, {"heartbeat_timeout_s": -1.0},
    {"heartbeat_timeout_s": float("nan")},
    {"heartbeat_timeout_s": float("inf")},
], ids=["max-attempts-zero", "checkpoint-every-negative",
        "heartbeat-every-zero", "timeout-negative", "timeout-nan",
        "timeout-inf"])
def test_supervisor_rejects_bad_numbers_before_its_state_dir(tmp_path,
                                                             kwargs):
    (name, _), = kwargs.items()
    with pytest.raises(ValueError, match=name):
        Supervisor(str(tmp_path / "s"), **kwargs)
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("field", ["checkpoint_every_events",
                                   "heartbeat_every_events", "attempt"])
def test_child_rejects_a_job_whose_count_is_below_one(tmp_path, capsys,
                                                      field):
    state = RunState(str(tmp_path / "s")).ensure()
    state.write_job({"spec": SMALL_SPEC, "attempt": 1, field: 0})
    assert execute_job(state.directory) == EXIT_BAD_JOB
    assert f"field {field} must be an integer >= 1" in capsys.readouterr().err
    assert not os.path.exists(state.journal_path)


def test_resume_driver_fresh_directory_starts_at_zero(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    driver, info = resume_driver(state, SMALL_SPEC)
    assert info["resumed_events"] == 0
    assert info["journal_records"] == 0
    assert driver.sim.now == 0


def test_resume_driver_fast_forwards_from_journal_alone(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SMALL_SPEC))
    with RunJournal(state.journal_path, spec=SMALL_SPEC) as journal:
        driver.journal = journal
        while driver.milestones_done < 3:
            driver.step()
    resumed, info = resume_driver(state, SMALL_SPEC)
    assert info["resumed_events"] == driver.sim.events_processed
    assert info["resumed_milestones"] == 3
    assert resumed.run.digest() == driver.run.digest()


def checkpoint_mid_window(journal, driver) -> int:
    """Step past milestone 2 and 500 more events, then journal a
    checkpoint record there (the supervised child's periodic append)."""
    while driver.milestones_done < 2:
        driver.step()
    target = driver.sim.events_processed + 500
    while driver.sim.events_processed < target:
        driver.step()
    journal.append(driver.position("checkpoint"))
    return driver.sim.events_processed


def test_resume_driver_prefers_checkpoint_then_journal(tmp_path):
    # Resume reaches the furthest record, whichever kind it is: first a
    # checkpoint record, then a milestone journaled after it.
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SMALL_SPEC))
    with RunJournal(state.journal_path, spec=SMALL_SPEC) as journal:
        driver.journal = journal
        ckpt_events = checkpoint_mid_window(journal, driver)
        resumed, info = resume_driver(state, SMALL_SPEC)
        assert info["resumed_events"] == ckpt_events
        assert resumed.run.digest() == driver.run.digest()
        while driver.milestones_done < 3:
            driver.step()
    resumed, info = resume_driver(state, SMALL_SPEC)
    assert info["resumed_events"] == driver.sim.events_processed > ckpt_events
    assert info["resumed_milestones"] == 3
    assert resumed.run.digest() == driver.run.digest()


def test_resume_driver_survives_a_torn_checkpoint(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SMALL_SPEC))
    with RunJournal(state.journal_path, spec=SMALL_SPEC) as journal:
        driver.journal = journal
        while driver.milestones_done < 2:
            driver.step()
        ms_events = driver.sim.events_processed
        checkpoint_mid_window(journal, driver)
    data = Path(state.journal_path).read_bytes()
    cut = data.rindex(b"\n", 0, len(data) - 1) + 1  # start of the record
    Path(state.journal_path).write_bytes(data[:(cut + len(data)) // 2])
    resumed, info = resume_driver(state, SMALL_SPEC)
    assert info["journal_torn_tail"]  # fell back to milestone 2
    assert info["resumed_events"] == ms_events
    assert info["resumed_milestones"] == 2


def test_resume_driver_rejects_foreign_journal(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    with RunJournal(state.journal_path, spec={"run": "experiment",
                                              "clients": 99}):
        pass
    with pytest.raises(RestoreMismatchError, match="different run"):
        resume_driver(state, SMALL_SPEC)


def test_resume_driver_rejects_doctored_digest(tmp_path):
    state = RunState(str(tmp_path / "s")).ensure()
    driver = RunDriver(run_from_spec(SMALL_SPEC))
    with RunJournal(state.journal_path, spec=SMALL_SPEC) as journal:
        driver.journal = journal
        while driver.milestones_done < 2:
            driver.step()
        journal.append({"kind": "milestone", "tick": driver.sim.now,
                        "seq": driver.sim.seq,
                        "events": driver.sim.events_processed,
                        "milestones_done": driver.milestones_done,
                        "digest": "0" * 64})
    with pytest.raises(RestoreMismatchError, match="digest"):
        resume_driver(state, SMALL_SPEC)


# ----------------------------------------------------------------------
# Verdict shaping (no subprocesses)
# ----------------------------------------------------------------------
def test_supervision_verdict_for_a_gave_up_run():
    sres = SupervisedResult(ok=False, classification="hang",
                            state_dir="/x")
    verdict = supervision_verdict(sres)
    assert verdict["ok"] is False
    assert verdict["failures"] == ["supervision:hang"]
    assert verdict["digest"] == ""


def test_supervision_verdict_passes_through_a_graded_result():
    inner = {"ok": True, "failures": [], "digest": "d", "events": 5,
             "detail": "x"}
    sres = SupervisedResult(ok=True, classification="ok", state_dir="/x",
                            result={"digest": "d", "events": 5,
                                    "verdict": inner})
    assert supervision_verdict(sres) == inner


# ----------------------------------------------------------------------
# Supervised children (subprocess-spawning; marked)
# ----------------------------------------------------------------------
@pytest.mark.supervise
def test_supervised_run_matches_in_process_reference(tmp_path):
    ref = reference_outcome(SMALL_SPEC)
    sres = small_supervisor(tmp_path).run(SMALL_SPEC)
    assert sres.ok and sres.classification == "ok"
    assert [a.classification for a in sres.attempts] == ["ok"]
    assert sres.digest == ref["digest"]
    assert sres.fingerprint == ref["fingerprint"]
    assert sres.result["events"] == ref["events"]
    assert sres.attempts[0].heartbeats > 0


@pytest.mark.supervise
def test_sigkill_at_seeded_point_resumes_byte_identical(tmp_path):
    ref = reference_outcome(SMALL_SPEC)
    kill_at = ref["events"] * 2 // 3
    sup = small_supervisor(tmp_path)
    sres = sup.run(SMALL_SPEC, inject={"mode": "kill",
                                       "after_events": kill_at,
                                       "on_attempt": 1})
    assert [a.classification for a in sres.attempts] == \
        ["signal:SIGKILL", "ok"]
    assert sres.ok
    assert sres.digest == ref["digest"]
    assert sres.fingerprint == ref["fingerprint"]
    # The retry genuinely resumed — it did not silently start over.
    assert sres.result["resume"]["resumed_events"] > 0
    assert sres.attempts[0].backoff_s > 0
    # One run record: checkpoint records live in run.journal.
    assert not os.path.exists(os.path.join(sres.state_dir, "run.ckpt"))
    kinds = [r["kind"] for r in scan_journal(
        RunState(sres.state_dir).journal_path).positions]
    assert "checkpoint" in kinds and kinds.count("milestone") == 4


@pytest.mark.supervise
def test_hang_is_detected_within_heartbeat_timeout_and_recovered(tmp_path):
    ref = reference_outcome(SMALL_SPEC)
    sup = small_supervisor(tmp_path, heartbeat_timeout_s=1.5)
    sres = sup.run(SMALL_SPEC, inject={"mode": "hang",
                                       "after_events": ref["events"] // 2,
                                       "on_attempt": 1})
    assert [a.classification for a in sres.attempts] == ["hang", "ok"]
    assert sres.attempts[0].returncode < 0  # we SIGKILLed it
    assert sres.ok and sres.digest == ref["digest"]


@pytest.mark.supervise
def test_retry_budget_bounds_a_run_that_always_dies(tmp_path):
    sres = small_supervisor(tmp_path).run(
        SMALL_SPEC, inject={"mode": "kill", "after_events": 500,
                            "on_attempt": 0})
    assert sres.gave_up
    assert [a.classification for a in sres.attempts] == \
        ["signal:SIGKILL", "signal:SIGKILL"]
    assert supervision_verdict(sres)["failures"] == \
        ["supervision:signal:SIGKILL"]


@pytest.mark.supervise
def test_raising_run_is_classified_as_exception(tmp_path):
    bad_spec = {"run": "chaos", "scenario": "no-such-scenario", "seed": 1,
                "rollback": False}
    sres = small_supervisor(tmp_path, max_attempts=1).run(bad_spec)
    assert sres.gave_up
    assert sres.classification == "exception:ValueError"
    assert sres.error["type"] == "ValueError"
    assert supervision_verdict(sres)["failures"] == \
        ["supervision:exception:ValueError"]


@pytest.mark.supervise
def test_graded_child_carries_an_oracle_verdict(tmp_path):
    spec = selftest_spec("chaos")
    sres = small_supervisor(tmp_path).run(spec, grade=True)
    assert sres.ok
    verdict = sres.result["verdict"]
    assert set(verdict) == {"ok", "failures", "digest", "events", "detail"}
    assert verdict["digest"] == sres.digest
    assert supervision_verdict(sres) == verdict


@pytest.mark.supervise
def test_selftest_harness_end_to_end(tmp_path):
    report = crash_injection_selftest(
        str(tmp_path), kinds=("experiment",), kill_points=1,
        hang=False, gave_up=False)
    assert report.ok
    assert len(report.cases) == 1
    assert "1/1 cases passed" in report.summary()


@pytest.mark.supervise
def test_figure9_supervised_matches_serial(tmp_path):
    from repro.experiments.figure9 import run_figure9

    kw = dict(client_counts=[2], configs=["accounting"], syn_rate=300,
              untrusted_cap=16, warmup_s=0.1, measure_s=0.2)
    serial = run_figure9(**kw)
    supervised = run_figure9(checkpoint_dir=str(tmp_path / "ckpt"),
                             supervised=True, **kw)
    assert supervised.series == serial.series
    assert supervised.syn_stats == serial.syn_stats
    # The supervised sweep persisted its cells into the same cache the
    # unsupervised path resumes from.
    import os.path
    assert os.path.exists(tmp_path / "ckpt" / "figure9-cells.jrnl")


@pytest.mark.supervise
def test_campaign_supervised_matches_oracle_verdicts(tmp_path):
    from repro.resilience.campaign import explore

    kw = dict(target="chaos", seed=5, budget=2, minimize=False)
    plain = explore(**kw)
    supervised = explore(supervised=True,
                         cache_dir=str(tmp_path / "cache"), **kw)
    assert supervised.verdicts == plain.verdicts


@pytest.mark.supervise
def test_supervised_sweeps_without_a_directory_leave_no_state(
        tmp_path, monkeypatch):
    from repro.experiments.figure9 import run_figure9
    from repro.resilience.campaign import explore

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_figure9(client_counts=[2], configs=["accounting"], syn_rate=300,
                warmup_s=0.1, measure_s=0.2, supervised=True)
    explore("chaos", seed=5, budget=1, minimize=False, supervised=True)
    assert os.listdir(tmp_path) == []


@pytest.mark.supervise
def test_a_supervised_cell_that_gave_up_keeps_and_names_its_state(
        tmp_path, monkeypatch):
    from repro.perf.pool import CellFailure, SweepCell, run_cells

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    bad_spec = {"run": "chaos", "scenario": "no-such-scenario", "seed": 1,
                "rollback": False}
    failure = run_cells([SweepCell("bad", "run", {"spec": bad_spec})],
                        supervised=True)["bad"]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "supervision:exception:ValueError"
    [root] = os.listdir(tmp_path)
    state = failure.error.rsplit("state kept in ", 1)[1].rstrip(")")
    assert Path(state).parent == tmp_path / root
    assert (Path(state) / "error.json").exists()


@pytest.mark.parametrize("ok", [True, False], ids=["passed", "failed"])
def test_selftest_removes_its_temp_state_only_when_every_case_passed(
        tmp_path, monkeypatch, capsys, ok):
    import repro.supervise
    from repro.__main__ import main

    def fake_selftest(base, **kwargs):
        (Path(base) / "experiment-kill-1").mkdir()
        return SimpleNamespace(ok=ok, summary=lambda: "fake summary")

    monkeypatch.setattr(repro.supervise, "crash_injection_selftest",
                        fake_selftest)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["supervise", "--selftest", "--quick"]) == (0 if ok else 1)
    out = capsys.readouterr().out
    if ok:
        assert os.listdir(tmp_path) == []
        assert "state dir" not in out
    else:
        [kept] = os.listdir(tmp_path)
        assert kept.startswith("supervise-selftest-")
        assert out.endswith(f"fake summary\nstate dir: {tmp_path / kept}\n")


@pytest.mark.supervise
def test_state_dir_survives_stale_outcome_files(tmp_path):
    # A result.json left by a previous (different) attempt must not leak
    # into a fresh supervised run's outcome.
    sup = small_supervisor(tmp_path)
    sup.state.write_result({"ok": True, "digest": "stale", "events": 0,
                            "fingerprint": []})
    ref = reference_outcome(SMALL_SPEC)
    sres = sup.run(SMALL_SPEC)
    assert sres.ok and sres.digest == ref["digest"]
