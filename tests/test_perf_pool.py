"""The parallel sweep runner: determinism, caching, and merge semantics."""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.perf.cells import CELL_RUNNERS, run_cell
from repro.perf.pool import (CACHE_KIND, CellFailure, SweepCell, SweepError,
                             cached_keys, parse_workers, run_cells)
from repro.snapshot.journal import JournalError, load_record, write_journal
from repro.snapshot.runs import ExperimentRun

TINY = dict(document="/doc-1", warmup_s=0.05, measure_s=0.1)


def _tiny_cells():
    return [
        SweepCell(key=f"accounting/{n}", runner="run",
                  params={"spec": ExperimentRun(clients=n, **TINY).spec()})
        for n in (1, 2, 3)
    ]


def test_serial_and_parallel_results_are_byte_identical():
    cells = _tiny_cells()
    serial = run_cells(cells, workers=0)
    parallel = run_cells(cells, workers=2)
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))


def test_merge_order_follows_cell_list_not_completion():
    cells = _tiny_cells()
    merged = run_cells(cells, workers=2)
    assert list(merged) == [c.key for c in cells]


def _cached(path):
    """The results a sweep cache file holds, by cell identity."""
    return load_record(str(path), CACHE_KIND)["cells"]


def test_cache_short_circuits_finished_cells(tmp_path, monkeypatch):
    cells = _tiny_cells()
    path = tmp_path / "cells.jrnl"
    first = run_cells(cells[1:2], cache_path=str(path))
    real = CELL_RUNNERS["run"]
    ran = []

    def counting(spec):
        ran.append(spec["clients"])
        return real(spec)

    monkeypatch.setitem(CELL_RUNNERS, "run", counting)
    merged = run_cells(cells, workers=0, cache_path=str(path))
    # The cached cell is returned from the file and never re-run...
    assert merged[cells[1].key] == json.loads(json.dumps(first[cells[1].key]))
    assert ran == [1, 3]
    # ...and the file now holds the cells actually computed as well.
    assert cached_keys(cells, str(path)) == [c.key for c in cells]
    assert (sorted(json.dumps(v, sort_keys=True)
                   for v in _cached(path).values())
            == sorted(json.dumps(v, sort_keys=True)
                      for v in merged.values()))


def test_fully_cached_sweep_runs_nothing(tmp_path, monkeypatch):
    cells = _tiny_cells()
    path = tmp_path / "cells.jrnl"
    first = run_cells(cells, workers=0, cache_path=str(path))
    written = path.read_bytes()

    def refuse(spec):  # pragma: no cover - must not run
        raise AssertionError("cell re-executed despite cache")

    monkeypatch.setitem(CELL_RUNNERS, "run", refuse)
    merged = run_cells(cells, workers=4, cache_path=str(path))
    assert list(merged) == [c.key for c in cells]
    assert (json.dumps(merged, sort_keys=True)
            == json.dumps(first, sort_keys=True))
    assert path.read_bytes() == written


def test_cache_answers_by_what_a_cell_computes_not_its_key(tmp_path):
    path = str(tmp_path / "cells.jrnl")
    run_cells([_ok_cell("a", 1)], cache_path=path)
    # Another cell under the same key is not a hit; the same cell under
    # another key is.
    assert run_cells([_ok_cell("a", 2)], cache_path=path) == {
        "a": {"value": 2}}
    assert cached_keys([_ok_cell("b", 1), _ok_cell("c", 3)], path) == ["b"]
    assert cached_keys([_ok_cell("b", 1)], str(tmp_path / "none")) is None


@pytest.mark.parametrize("kind", ["figure9-runs", "resilience-cells"])
def test_a_cache_of_another_kind_is_refused(tmp_path, kind):
    path = tmp_path / "cells.jrnl"
    write_journal(str(path), [{"kind": kind, "cells": {"a": {"value": 1}}}])
    with pytest.raises(JournalError, match="cells.jrnl"):
        run_cells([_ok_cell("a", 1)], cache_path=str(path))


def test_only_run_and_resilience_cells_can_be_supervised(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ValueError, match="crash-injection"):
        run_cells([_ok_cell("a", 1)], supervised=True)
    assert os.listdir(tmp_path) == []


def test_duplicate_keys_are_rejected():
    cells = [SweepCell(key="same", runner="run", params={}),
             SweepCell(key="same", runner="run", params={})]
    with pytest.raises(ValueError, match="same"):
        run_cells(cells)


def test_unknown_runner_raises():
    with pytest.raises(KeyError):
        run_cell("no-such-runner", {})


def test_registry_covers_every_experiment_family():
    for name in ("run", "ablation-domains", "ablation-crossing",
                 "ablation-early-drop", "chaos", "resilience"):
        assert name in CELL_RUNNERS
    # Figure cells are ExperimentRun specs run by the ``run`` runner.
    assert not [name for name in CELL_RUNNERS if name.startswith("figure")]


def test_parse_workers():
    assert parse_workers("0") == 0
    assert parse_workers("4") == 4
    with pytest.raises(ValueError):
        parse_workers("-1")


# ----------------------------------------------------------------------
# Failure containment: a dying worker costs its cell, not the sweep
# ----------------------------------------------------------------------
def _ok_cell(key, value):
    return SweepCell(key=key, runner="crash-injection",
                     params=dict(mode="ok", value=value))


def test_killed_worker_cell_is_requeued_and_succeeds(tmp_path):
    marker = str(tmp_path / "died-once")
    cells = [
        _ok_cell("a", 1),
        SweepCell(key="killer", runner="crash-injection",
                  params=dict(mode="kill-once", marker_path=marker,
                              value=42)),
        _ok_cell("b", 2),
    ]
    path = tmp_path / "cells.jrnl"
    merged = run_cells(cells, workers=2, cache_path=str(path))
    # Everybody recovered: the killer died once (marker exists), was
    # requeued into a fresh pool, and produced its real result; the
    # innocent cells either finished first or were requeued too.
    assert merged == {"a": {"value": 1}, "killer": {"value": 42},
                      "b": {"value": 2}}
    assert sorted(v["value"] for v in _cached(path).values()) == [1, 2, 42]


def test_repeat_killer_is_abandoned_but_innocents_survive(tmp_path):
    cells = [
        _ok_cell("a", 1),
        SweepCell(key="killer", runner="crash-injection",
                  params=dict(mode="kill-always")),
        _ok_cell("b", 2),
    ]
    path = tmp_path / "cells.jrnl"
    merged = run_cells(cells, workers=2, cache_path=str(path))
    assert merged["a"] == {"value": 1}
    assert merged["b"] == {"value": 2}
    failure = merged["killer"]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "worker-crash"
    assert failure.requeued
    # Failures are never written to the cache.
    assert sorted(v["value"] for v in _cached(path).values()) == [1, 2]


def test_raising_cell_is_surfaced_not_raised():
    cells = [_ok_cell("a", 1),
             SweepCell(key="boom", runner="crash-injection",
                       params=dict(mode="raise"))]
    merged = run_cells(cells, workers=2)
    assert merged["a"] == {"value": 1}
    failure = merged["boom"]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "exception"
    assert "RuntimeError" in failure.error


@pytest.fixture
def failing_run_runner(monkeypatch):
    """Make every ``run`` cell raise; forked workers inherit the patch."""
    def boom(spec):
        raise RuntimeError(f"injected failure in a {spec['run']} cell")

    monkeypatch.setitem(CELL_RUNNERS, "run", boom)


def test_failed_parallel_cells_are_reported_by_name(failing_run_runner):
    from repro.experiments.defense import run_defense
    from repro.experiments.figure8 import run_figure8

    with pytest.raises(SweepError) as figure8:
        run_figure8(client_counts=(1, 2), configs=("accounting",),
                    docs={"1B": "/doc-1"}, warmup_s=0.05, measure_s=0.1,
                    workers=2)
    message = str(figure8.value)
    assert message.startswith("2 of 2 sweep cell(s) failed")
    for key in ("1B/accounting/1", "1B/accounting/2"):
        assert f"{key} (run, exception): RuntimeError" in message

    with pytest.raises(SweepError) as defense:
        run_defense(attacks=("synflood",), clients=2, warmup_s=0.05,
                    measure_s=0.1, workers=2)
    for key in ("synflood/none/1", "synflood/static/1",
                "synflood/adaptive/1"):
        assert f"{key} (run, exception)" in str(defense.value)
    assert "injected failure in a defense cell" in str(defense.value)


def test_cli_reports_failed_cells_and_exits_1(failing_run_runner, capsys):
    from repro.__main__ import main

    assert main(["figure8", "--clients", "1,2", "--configs", "accounting",
                 "--docs", "1B", "--warmup", "0.05", "--measure", "0.1",
                 "-j", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 2 of 2 sweep cell(s) failed")


def test_figure9_parallel_sweep_matches_serial_and_resumes(tmp_path):
    from repro.experiments.figure9 import run_figure9

    kw = dict(client_counts=(2, 3), configs=("accounting",),
              syn_rate=400, warmup_s=0.05, measure_s=0.1)
    serial = run_figure9(**kw)
    parallel = run_figure9(workers=2, **kw)
    assert serial.series == parallel.series
    assert serial.syn_stats == parallel.syn_stats

    # Resume: a sweep that already checkpointed every cell re-runs nothing,
    # even in parallel, and reproduces the same result.
    ckpt = tmp_path / "fig9"
    first = run_figure9(checkpoint_dir=str(ckpt), **kw)
    resumed = run_figure9(checkpoint_dir=str(ckpt), workers=2, **kw)
    assert first.series == resumed.series
    assert first.syn_stats == resumed.syn_stats
    assert serial.series == first.series
