"""The write-ahead run journal: durability, torn tails, fast-forward.

The journal's contract is crash-only: every record line is either fully
durable (CRC-verified) or invisible; a torn tail never poisons the
trustworthy prefix; and a driver with a journal attached pins every
performed milestone before execution continues.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snapshot import (ExperimentRun, JournalError,
                            RestoreMismatchError, RunDriver, RunJournal,
                            scan_journal)
from repro.snapshot.journal import write_journal
from tests.test_snapshot_runs import JSON


def small_experiment() -> ExperimentRun:
    return ExperimentRun("accounting", clients=2, syn_rate=200,
                         untrusted_cap=16, warmup_s=0.1, measure_s=0.3)


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def test_round_trip_spec_and_milestones(tmp_path):
    path = str(tmp_path / "run.journal")
    spec = {"run": "experiment", "clients": 2}
    with RunJournal(path, spec=spec) as journal:
        journal.append({"kind": "milestone", "tick": 10, "seq": 3,
                        "events": 2, "milestones_done": 1, "digest": "d1"})
        journal.append({"kind": "milestone", "tick": 20, "seq": 9,
                        "events": 7, "milestones_done": 2, "digest": "d2"})
    scan = scan_journal(path)
    assert scan.spec == spec
    assert [m["tick"] for m in scan.milestones] == [10, 20]
    assert scan.last["digest"] == "d2"
    assert scan.records == 3  # spec record + 2 milestones
    assert not scan.torn_tail


def test_missing_file_scans_empty(tmp_path):
    scan = scan_journal(str(tmp_path / "nope.journal"))
    assert scan.spec is None and scan.last is None and scan.records == 0


def test_alien_file_is_a_loud_error(tmp_path):
    path = str(tmp_path / "x.journal")
    Path(path).write_bytes(b"not a journal at all\n")
    with pytest.raises(JournalError, match="not a run journal"):
        scan_journal(path)


def test_torn_tail_is_ignored_not_fatal(tmp_path):
    path = str(tmp_path / "run.journal")
    with RunJournal(path, spec={"run": "x"}) as journal:
        journal.append({"kind": "milestone", "tick": 10, "seq": 1,
                        "events": 1, "milestones_done": 1, "digest": "d1"})
        journal.append({"kind": "milestone", "tick": 20, "seq": 2,
                        "events": 2, "milestones_done": 2, "digest": "d2"})
    data = Path(path).read_bytes()
    # SIGKILL mid-append: the last record line is cut mid-byte.
    Path(path).write_bytes(data[:-9])
    scan = scan_journal(path)
    assert scan.torn_tail
    assert scan.last["digest"] == "d1"  # the durable prefix survives


@pytest.mark.parametrize("keep_fraction", [0.2, 0.5, 0.8, 0.98])
def test_any_byte_cut_leaves_a_readable_prefix(tmp_path, keep_fraction):
    path = str(tmp_path / "run.journal")
    with RunJournal(path, spec={"run": "x"}) as journal:
        for i in range(10):
            journal.append({"kind": "milestone", "tick": i, "seq": i,
                            "events": i, "milestones_done": i,
                            "digest": f"d{i}"})
    data = Path(path).read_bytes()
    cut = max(len(b"ESCJRNL 1\n"), int(len(data) * keep_fraction))
    Path(path).write_bytes(data[:cut])
    scan = scan_journal(path)  # must not raise, whatever the cut
    for i, record in enumerate(scan.milestones):
        assert record["digest"] == f"d{i}"  # prefix order is intact


def test_corrupt_record_ends_the_trustworthy_prefix(tmp_path):
    path = str(tmp_path / "run.journal")
    with RunJournal(path, spec={"run": "x"}) as journal:
        for i in range(3):
            journal.append({"kind": "milestone", "tick": i, "seq": i,
                            "events": i, "milestones_done": i,
                            "digest": f"d{i}"})
    lines = Path(path).read_bytes().splitlines(keepends=True)
    # Flip a payload byte inside record 2 (header + spec + record0 before it).
    bad = bytearray(lines[3])
    bad[20] ^= 0xFF
    lines[3] = bytes(bad)
    Path(path).write_bytes(b"".join(lines))
    scan = scan_journal(path)
    assert scan.torn_tail
    assert [m["digest"] for m in scan.milestones] == ["d0"]


def test_reopen_after_a_torn_tail_appends_after_the_readable_prefix(tmp_path):
    # A crash tore the last record; the reopened writer must cut it off,
    # or the first record it appends joins the torn bytes, fails its CRC
    # and hides every record written after it.
    path = str(tmp_path / "run.journal")
    with RunJournal(path, spec={"run": "x"}) as journal:
        for i in range(3):
            journal.append({"kind": "milestone", "tick": i, "seq": i,
                            "events": i, "milestones_done": i,
                            "digest": f"d{i}"})
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-9])  # SIGKILL inside d2's append
    with RunJournal(path, spec={"run": "x"}) as journal:
        journal.append({"kind": "milestone", "tick": 3, "seq": 3,
                        "events": 3, "milestones_done": 3, "digest": "d3"})
    scan = scan_journal(path)
    assert [m["digest"] for m in scan.milestones] == ["d0", "d1", "d3"]
    assert not scan.torn_tail
    assert scan.spec == {"run": "x"}


def test_reopen_appends_without_rewriting_header(tmp_path):
    path = str(tmp_path / "run.journal")
    with RunJournal(path, spec={"run": "x"}) as journal:
        journal.append({"kind": "milestone", "tick": 1, "seq": 1,
                        "events": 1, "milestones_done": 1, "digest": "a"})
    with RunJournal(path, spec={"run": "x"}) as journal:
        journal.append({"kind": "milestone", "tick": 2, "seq": 2,
                        "events": 2, "milestones_done": 2, "digest": "b"})
    scan = scan_journal(path)
    assert Path(path).read_bytes().count(b"ESCJRNL") == 1
    assert [m["digest"] for m in scan.milestones] == ["a", "b"]
    assert scan.spec == {"run": "x"}


# ----------------------------------------------------------------------
# Driver integration: write-ahead semantics
# ----------------------------------------------------------------------
def test_driver_journals_every_milestone(tmp_path):
    path = str(tmp_path / "run.journal")
    run = small_experiment()
    driver = RunDriver(run)
    with RunJournal(path, spec=run.spec()) as journal:
        driver.journal = journal
        driver.run_all()
    scan = scan_journal(path)
    assert scan.spec == run.spec()
    assert len(scan.milestones) == 4  # boot, start_load, begin/end window
    assert scan.last["digest"] == run.digest()
    assert scan.last["events"] == driver.sim.events_processed
    assert scan.last["milestones_done"] == 4
    ticks = [m["tick"] for m in scan.milestones]
    assert ticks == sorted(ticks)


def test_journal_fast_forward_reproduces_digest(tmp_path):
    # Execute with a journal, kill the imaginary process after milestone 3,
    # then rebuild from spec + journal alone (no checkpoint) and verify the
    # fast-forward target digest-matches deterministic re-execution.
    from repro.snapshot.runs import run_from_spec

    path = str(tmp_path / "run.journal")
    run = small_experiment()
    driver = RunDriver(run)
    with RunJournal(path, spec=run.spec()) as journal:
        driver.journal = journal
        while driver.milestones_done < 3:
            driver.step()
    scan = scan_journal(path)
    assert len(scan.milestones) == 3

    last = scan.last
    fresh = RunDriver(run_from_spec(scan.spec))
    while (fresh.sim.events_processed < last["events"]
           or fresh.milestones_done < last["milestones_done"]):
        assert fresh.step() is not None
    fresh.sim.finish_until(last["tick"])
    assert fresh.sim.seq == last["seq"]
    assert fresh.run.digest() == last["digest"]


# ----------------------------------------------------------------------
# Position records are validated where the format is read
# ----------------------------------------------------------------------
#: A run short enough to re-execute once per fuzzed record.
TINY = ExperimentRun("accounting", clients=1, warmup_s=0.0,
                     measure_s=0.02).spec()
POSITION = {"kind": "milestone", "tick": 0, "seq": 2, "events": 0,
            "milestones_done": 1, "digest": "0" * 64}


@pytest.mark.parametrize("record,field", [
    ({"kind": "milestone", "tick": 0}, "'seq' is missing"),
    ({**POSITION, "events": "x"}, "'events' must be an int >= 0"),
    ({**POSITION, "tick": None}, "'tick' must be an int >= 0"),
    ({**POSITION, "seq": -1}, "'seq' must be an int >= 0"),
    ({**POSITION, "milestones_done": True},
     "'milestones_done' must be an int >= 0"),
    ({**POSITION, "digest": 7}, "'digest' must be a string"),
    ({**POSITION, "kind": "checkpoint", "summary": []},
     "'summary' must be an object"),
], ids=["missing-seq", "events-str", "tick-null", "seq-negative",
        "milestones-bool", "digest-int", "summary-list"])
def test_malformed_position_is_a_journal_error(tmp_path, capsys, record,
                                               field):
    path = str(tmp_path / "bad.jrnl")
    write_journal(path, [{"kind": "spec", "spec": TINY}, record])
    with pytest.raises(JournalError, match=f"record 2 .* field {field}"):
        scan_journal(path)
    from repro.__main__ import main
    assert main(["experiment", "--resume", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: record 2 ") and field in err


def test_resume_refuses_a_tick_past_the_runs_end(tmp_path):
    path = str(tmp_path / "far.jrnl")
    write_journal(path, [{"kind": "spec", "spec": TINY},
                         {**POSITION, "tick": 10 ** 15}])
    with pytest.raises(RestoreMismatchError, match="past the end"):
        RunDriver.resume(path)


@st.composite
def position_records(draw):
    """A well-formed position with up to two fields deleted or given
    any JSON value."""
    record = draw(st.fixed_dictionaries(
        {"kind": st.sampled_from(("milestone", "checkpoint")),
         "tick": st.integers(0, 40_000_000), "seq": st.integers(0, 10 ** 6),
         "events": st.integers(0, 10 ** 6),
         "milestones_done": st.integers(0, 6),
         "digest": st.text(max_size=64)},
        optional={"summary": st.dictionaries(st.text(max_size=6), JSON,
                                             max_size=3)}))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(JSON | st.integers())
    return record


@settings(max_examples=150, deadline=None)
@given(position_records())
def test_fuzzed_position_resumes_or_raises_a_typed_error(tmp_path_factory,
                                                         record):
    path = str(tmp_path_factory.mktemp("fuzz") / "run.jrnl")
    write_journal(path, [{"kind": "spec", "spec": TINY}, record])
    try:
        RunDriver.resume(path)
    except (JournalError, ValueError, RestoreMismatchError):
        pass
