"""Checkpoint round-trips: the tentpole's acceptance property.

Checkpoint at cycle T, restore into a fresh machine (and, once, a fresh
*process*), run both to T+N: traces and digests must match bit for bit.
Plus the file format contract — a checkpoint file is a small run journal
(the spec and one checkpoint record), written atomically and
byte-reproducibly, and a cut, corrupt or version-skewed file fails loudly
with :class:`JournalError`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosRun
from repro.snapshot import (ExperimentRun, JournalError, RestoreMismatchError,
                            RunDriver, RunJournal, scan_journal)
from repro.snapshot.digest import summary_digest
from repro.snapshot.journal import JOURNAL_HEADER_LINE, write_journal

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def small_experiment() -> ExperimentRun:
    return ExperimentRun("accounting", clients=2, syn_rate=200,
                         untrusted_cap=16, warmup_s=0.1, measure_s=0.3)


def checkpointed(tmp_path, milestones: int = 2):
    """A checkpoint file of ``small_experiment`` after ``milestones``."""
    path = str(tmp_path / "x.ckpt")
    driver = RunDriver(small_experiment())
    while driver.milestones_done < milestones:
        driver.step()
    return path, driver, driver.checkpoint(path)


def record_ends(path: str):
    """Byte offset just past each record line (spec record included)."""
    data = Path(path).read_bytes()
    ends, pos = [], len(JOURNAL_HEADER_LINE)
    while pos < len(data):
        pos = data.index(b"\n", pos) + 1
        ends.append(pos)
    return data, ends


def cut_after_checkpoint(path: str, index: int, dest: str) -> str:
    """Copy ``path`` up to and including its ``index``-th checkpoint
    record, the file a crash right after that append would leave."""
    data, ends = record_ends(path)
    records = scan_journal(path)
    kinds = ["spec"] + [r["kind"] for r in records.positions]
    cuts = [end for end, kind in zip(ends, kinds) if kind == "checkpoint"]
    Path(dest).write_bytes(data[:cuts[index]])
    return dest


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def test_save_load_round_trip(tmp_path):
    path, driver, record = checkpointed(tmp_path)
    scan = scan_journal(path)
    assert scan.spec == driver.run.spec() and not scan.torn_tail
    [loaded] = scan.positions
    assert loaded == json.loads(json.dumps(record))
    assert loaded["kind"] == "checkpoint"
    # The stored summary is the one the stored digest was taken of.
    assert loaded["digest"] == driver.run.digest() \
        == summary_digest(loaded["summary"])
    assert (loaded["events"], loaded["milestones_done"]) == \
        (driver.sim.events_processed, 2)


def test_same_payload_writes_identical_bytes(tmp_path):
    # Two machines built from one spec and stopped at the same place
    # write the same file, byte for byte.
    a, b = (tmp_path / "a", tmp_path / "b")
    for directory in (a, b):
        directory.mkdir()
    assert Path(checkpointed(a)[0]).read_bytes() == \
        Path(checkpointed(b)[0]).read_bytes()


def test_version_mismatch_is_a_clear_error(tmp_path):
    path, _, _ = checkpointed(tmp_path)
    data = Path(path).read_bytes()
    Path(path).write_bytes(data.replace(b"ESCJRNL 1\n", b"ESCJRNL 99\n", 1))
    with pytest.raises(JournalError, match="version 99 is not supported"):
        RunDriver.resume(path)


def test_not_a_checkpoint_file(tmp_path):
    path = str(tmp_path / "x.ckpt")
    Path(path).write_bytes(b"definitely not a checkpoint\n")
    with pytest.raises(JournalError, match="not a run journal"):
        RunDriver.resume(path)


def test_truncated_trailer_is_rejected(tmp_path):
    # The newline that ends the checkpoint record is its last byte; a
    # file missing it holds a torn record and no position.
    path, _, _ = checkpointed(tmp_path)
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-1])
    with pytest.raises(JournalError, match="torn tail"):
        RunDriver.resume(path)


@pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9, 0.999])
def test_chopped_file_is_rejected_at_any_cut(tmp_path, keep_fraction):
    # A write cut short must never leave a file resume() accepts: no
    # proper byte prefix of a checkpoint file holds its position.
    path, _, _ = checkpointed(tmp_path)
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:int(len(data) * keep_fraction)])
    with pytest.raises(JournalError):
        RunDriver.resume(path)


def test_flipped_payload_byte_fails_the_crc(tmp_path):
    path, _, _ = checkpointed(tmp_path)
    data = bytearray(Path(path).read_bytes())
    data[len(data) // 2] ^= 0xFF  # corrupt one byte of the record
    Path(path).write_bytes(bytes(data))
    assert scan_journal(path).torn_tail
    with pytest.raises(JournalError):
        RunDriver.resume(path)


def test_save_leaves_no_temp_file(tmp_path):
    checkpointed(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt"]


def test_every_byte_prefix_resumes_to_its_furthest_record(tmp_path):
    # A journal with many records: the four milestones plus a position
    # record every 1000 events.  Whatever byte a crash cuts it at, resume
    # lands on the last record that is complete before the cut.
    path = str(tmp_path / "run.jrnl")
    driver = RunDriver(small_experiment())
    with RunJournal(path, spec=driver.run.spec()) as journal:
        driver.journal = journal
        while (kind := driver.step()) is not None:
            if kind == "event" and driver.sim.events_processed % 1000 == 0:
                journal.append(driver.position())
    positions = scan_journal(path).positions
    data, ends = record_ends(path)
    ends = ends[1:]  # past the spec record
    assert len(ends) == len(positions) >= 10

    prefix = str(tmp_path / "prefix.jrnl")
    resumed = set()
    for cut in range(len(data) + 1):
        Path(prefix).write_bytes(data[:cut])
        complete = sum(1 for end in ends if end <= cut)
        if not complete:
            with pytest.raises(JournalError):
                RunDriver.resume(prefix)
        elif complete in resumed:
            assert scan_journal(prefix).last == positions[complete - 1]
        else:
            restored, record = RunDriver.resume(prefix)
            assert record == positions[complete - 1]
            assert restored.sim.events_processed == record["events"]
            assert restored.run.digest() == record["digest"]
            resumed.add(complete)
    assert resumed == set(range(1, len(positions) + 1))


# ----------------------------------------------------------------------
# Round-trip: checkpoint at T, restore, run both to the end
# ----------------------------------------------------------------------
def test_experiment_checkpoint_restore_round_trip(tmp_path):
    run = small_experiment()
    driver = RunDriver(run)
    result, path = driver.run_with_checkpoints(0.1, str(tmp_path), "exp")
    assert path == str(tmp_path / "exp.jrnl")
    checkpoints = [r for r in scan_journal(path).positions
                   if r["kind"] == "checkpoint"]
    assert checkpoints, "no mid-run checkpoints were cut"

    for i, expected in enumerate(checkpoints):
        cut = cut_after_checkpoint(path, i, str(tmp_path / f"cut{i}.jrnl"))
        resumed, record = RunDriver.resume(cut)
        assert record == expected
        assert resumed.sim.now == record["tick"]
        res2 = resumed.run_all()
        assert resumed.run.digest() == run.digest()
        assert res2.connections_per_second == result.connections_per_second
        assert res2.syn_dropped_at_demux == result.syn_dropped_at_demux


@pytest.mark.parametrize("every_s", [-1.0, 0.0, 1e-12, float("nan"),
                                     float("inf")])
def test_checkpoint_cadence_below_one_tick_is_refused(tmp_path, every_s):
    # Clamped to one tick, such a cadence would journal a record per
    # tick: hundreds of millions per simulated second.
    driver = RunDriver(small_experiment())
    with pytest.raises(ValueError, match="checkpoint interval"):
        driver.run_with_checkpoints(every_s, str(tmp_path / "j"), "exp")
    assert not os.path.exists(tmp_path / "j")
    assert driver.sim.events_processed == 0


@pytest.mark.chaos
@pytest.mark.parametrize("name", ["lossy-syn-flood", "oom-cgi",
                                  "domain-crash"])
def test_chaos_checkpoint_restore_round_trip(name, tmp_path):
    run = ChaosRun(name, 2)
    report, path = RunDriver(run).run_with_checkpoints(
        0.5, str(tmp_path), name)
    cut = cut_after_checkpoint(path, -1, str(tmp_path / "cut.jrnl"))
    resumed, record = RunDriver.resume(cut)
    assert record["kind"] == "checkpoint"
    report2 = resumed.run_all()
    assert resumed.run.digest() == run.digest()
    assert report2.faults_injected == report.faults_injected
    assert [str(a) for a in report2.watchdog_log] == \
        [str(a) for a in report.watchdog_log]
    assert report2.ok == report.ok


def test_restore_in_fresh_process(tmp_path):
    # The tentpole's headline: a checkpoint written here restores in a
    # brand-new interpreter and reaches the same final digest.
    run = small_experiment()
    driver = RunDriver(run)
    _, path = driver.run_with_checkpoints(0.15, str(tmp_path), "exp")
    cut = cut_after_checkpoint(path, 0, str(tmp_path / "cut.jrnl"))
    final_digest = run.digest()

    script = (
        "from repro.snapshot import RunDriver\n"
        f"driver, record = RunDriver.resume({cut!r})\n"
        "driver.run_all()\n"
        "print(driver.run.digest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == final_digest


def test_tampered_digest_refuses_to_resume(tmp_path):
    path, driver, record = checkpointed(tmp_path)
    record["digest"] = "0" * 64
    record["summary"]["sim"]["events_processed"] += 1
    write_journal(path, [{"kind": "spec", "spec": driver.run.spec()},
                         record])
    with pytest.raises(RestoreMismatchError, match="does not match") as exc:
        RunDriver.resume(path)
    assert any("events_processed" in d for d in exc.value.diffs)


def test_resume_rejects_non_checkpoint_kind(tmp_path):
    path = str(tmp_path / "x.ckpt")
    write_journal(path, [{"kind": "recording"}])
    with pytest.raises(JournalError, match="no run spec"):
        RunDriver.resume(path)


# ----------------------------------------------------------------------
# The CLI writes one journal per run and resumes from it
# ----------------------------------------------------------------------
def _repro(tmp_path, *args):
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_cli_checkpoint_resume_and_record_replay(tmp_path):
    first = _repro(tmp_path, "experiment", "--clients", "2", "--syn-rate",
                   "200", "--warmup", "0.1", "--measure", "0.3",
                   "--checkpoint-every", "0.1", "--checkpoint-dir", "D")
    assert sorted(os.listdir(tmp_path / "D")) == ["experiment.jrnl"]
    kinds = [r["kind"] for r in
             scan_journal(str(tmp_path / "D" / "experiment.jrnl")).positions]
    assert kinds.count("milestone") == 4 and "checkpoint" in kinds
    resumed = _repro(tmp_path, "experiment", "--resume",
                     "D/experiment.jrnl")
    result = [line for line in first if "conn/s" in line]
    assert result and result == [line for line in resumed
                                 if "conn/s" in line]

    _repro(tmp_path, "record", "-s", "domain-crash", "-o", "F")
    assert "replay OK" in _repro(tmp_path, "replay", "F")[-1]


# ----------------------------------------------------------------------
# Figure-9 cell cache (satellite: figure runners survive crashes)
# ----------------------------------------------------------------------
def test_figure9_resumes_from_cell_cache(tmp_path, monkeypatch):
    from repro.experiments.figure9 import run_figure9

    kwargs = dict(client_counts=[2], configs=["accounting"],
                  document="/doc-1k", syn_rate=200, untrusted_cap=16,
                  warmup_s=0.1, measure_s=0.2,
                  checkpoint_dir=str(tmp_path))
    first = run_figure9(**kwargs)
    assert os.path.exists(tmp_path / "figure9-cells.jrnl")

    # Every cell is cached: a re-run must not execute a single machine.
    def boom(self):  # pragma: no cover - must not run
        raise AssertionError("cell re-executed despite cache")

    monkeypatch.setattr(RunDriver, "run_all", boom)
    second = run_figure9(**kwargs)
    assert second.series == first.series
    assert second.syn_stats == first.syn_stats


def test_figure9_cache_of_another_grid_runs_the_new_grids_cells(tmp_path):
    from repro.experiments.figure9 import run_figure9

    kwargs = dict(client_counts=[2], configs=["accounting"], syn_rate=200,
                  warmup_s=0.1, measure_s=0.2)
    other = run_figure9(document="/doc-1k", checkpoint_dir=str(tmp_path),
                        **kwargs)
    fresh = run_figure9(document="/doc-1", **kwargs)
    assert fresh.series != other.series
    reused = run_figure9(document="/doc-1", checkpoint_dir=str(tmp_path),
                         **kwargs)
    assert reused.series == fresh.series
    assert reused.syn_stats == fresh.syn_stats


@pytest.mark.parametrize("argv,name,kind", [
    (["figure9", "--clients", "2", "--configs", "accounting",
      "--checkpoint-dir"], "figure9-cells.jrnl", "figure9-runs"),
    (["resilience", "explore", "--budget", "1", "--cache-dir"],
     "resilience-cells.jrnl", "resilience-cells"),
], ids=["figure9", "explore"])
def test_a_cache_file_of_an_old_kind_exits_2(tmp_path, capsys, argv, name,
                                             kind):
    from repro.__main__ import main

    path = tmp_path / name
    write_journal(str(path), [{"kind": kind, "cells": {}}])
    assert main(argv + [str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a sweep-cells file")


def test_figure9_cache_of_another_value_shape_errors(tmp_path):
    from repro.experiments.figure9 import run_figure9

    # The cache before its cells became whole RunResults: a projection
    # under another record kind.
    path = tmp_path / "figure9-cells.jrnl"
    write_journal(str(path), [{"kind": "figure9-cells", "cells": {
        "accounting/2/base": {"cps": 1.0, "syn_sent": 0,
                              "syn_dropped": 0}}}])
    with pytest.raises(JournalError, match="figure9-cells.jrnl"):
        run_figure9(client_counts=[2], configs=["accounting"],
                    warmup_s=0.1, measure_s=0.2,
                    checkpoint_dir=str(tmp_path))


def test_figure9_version_skewed_cache_errors(tmp_path):
    from repro.experiments.figure9 import run_figure9

    path = tmp_path / "figure9-cells.jrnl"
    write_journal(str(path), [{"kind": "figure9-cells", "cells": {}}])
    data = path.read_bytes()
    path.write_bytes(data.replace(b"ESCJRNL 1\n", b"ESCJRNL 99\n", 1))
    with pytest.raises(JournalError, match="version 99"):
        run_figure9(client_counts=[2], configs=["accounting"],
                    warmup_s=0.1, measure_s=0.2,
                    checkpoint_dir=str(tmp_path))
