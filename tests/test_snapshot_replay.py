"""Deterministic replay: clean runs verify; injected nondeterminism is
localized to its first divergent event with an exact cycle number."""

from __future__ import annotations

import base64
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.sim.clock import seconds_to_ticks, ticks_to_server_cycles
from repro.snapshot import (ExperimentRun, JournalError, Recording,
                            RunDriver, record, replay)
from repro.snapshot.journal import (JOURNAL_HEADER_LINE, encode_record,
                                    load_record, write_journal)
from repro.snapshot.replay import LIGHT_WIDTH
from tests.test_snapshot_runs import JSON


def small_experiment(cls=ExperimentRun):
    return cls("accounting", clients=2, syn_rate=200, untrusted_cap=16,
               warmup_s=0.1, measure_s=0.3)


class NondeterministicRun(ExperimentRun):
    """An ExperimentRun that smuggles in one extra scheduled event.

    Its spec still says ``run: experiment``, so a replay rebuilds the
    *clean* run — exactly what a real nondeterminism bug looks like: the
    recording and the re-execution disagree about one scheduling decision.
    """

    def ms_begin_window(self):
        super().ms_begin_window()
        self.bed.sim.schedule(seconds_to_ticks(0.01), lambda: None)


def test_clean_record_replay_verifies():
    result, recording = record(small_experiment(), every_events=1500)
    assert recording.events_total > 0
    assert len(recording.entries) > 1
    report = replay(recording)
    assert report.ok, report.divergence and report.divergence.describe()
    assert report.events_replayed == recording.events_total
    assert report.result.connections_per_second == \
        result.connections_per_second


def test_recording_survives_disk_round_trip(tmp_path):
    _, recording = record(small_experiment(), every_events=2000)
    path = str(tmp_path / "run.rec")
    recording.save(path)
    loaded = Recording.load(path)
    assert loaded.events_total == recording.events_total
    assert loaded.entries == recording.entries
    assert loaded.light == recording.light
    assert loaded.final_digest == recording.final_digest
    assert replay(loaded).ok


def test_injected_nondeterminism_is_pinpointed():
    # Record the tampered run; replay rebuilds the clean one from the
    # spec, so the first event after the smuggled schedule() must flag.
    _, recording = record(small_experiment(NondeterministicRun),
                          every_events=2000)
    report = replay(recording)
    assert not report.ok
    div = report.divergence
    assert div is not None
    assert div.kind == "event"
    # Localization is exact: at or after the extra event's schedule tick
    # (the begin_window milestone), never before.
    window_tick = seconds_to_ticks(0.01) + seconds_to_ticks(0.1)
    assert div.tick >= window_tick
    assert div.events <= recording.events_total
    assert div.cycle == ticks_to_server_cycles(div.tick)
    # The scheduler sequence counter is what the phantom event perturbs.
    assert any(d.startswith("seq:") for d in div.details), div.details
    assert f"event #{div.events}" in div.describe()
    assert "server cycle" in div.describe()


def test_replay_detects_missing_tail():
    _, recording = record(small_experiment(), every_events=2000)
    recording.events_total += 5  # pretend the recording ran longer
    report = replay(recording)
    assert not report.ok
    assert report.divergence.kind == "tail"


@pytest.mark.chaos
def test_chaos_run_record_replay_verifies():
    from repro.chaos import ChaosRun

    _, recording = record(ChaosRun("lossy-syn-flood", 4), every_events=8000)
    report = replay(recording)
    assert report.ok, report.divergence and report.divergence.describe()


def test_step_loop_equals_run_all():
    # The decomposition replay relies on: stepping one event at a time is
    # observationally identical to an unsliced run.
    r1, r2 = small_experiment(), small_experiment()
    d1 = RunDriver(r1)
    d1.run_all()
    d2 = RunDriver(r2)
    while d2.step() is not None:
        pass
    assert r1.digest() == r2.digest()
    assert d1.sim.events_processed == d2.sim.events_processed


# ----------------------------------------------------------------------
# A recording file is checked field by field before anything replays
# ----------------------------------------------------------------------
TINY_SPEC = ExperimentRun("accounting", clients=1, warmup_s=0.0,
                          measure_s=0.02).spec()
TINY_LIGHT = array("q", range(5 * LIGHT_WIDTH))

#: A well-formed five-event ``recording`` record as ``Recording.save``
#: writes it, built without running anything.
TINY = {
    "kind": "recording", "spec": TINY_SPEC, "every_events": 2,
    "entries": [[2, 40, "d2"], [4, 90, "d4"]],
    "summaries": [{"tick": 40}, {"tick": 90}],
    "light": base64.b64encode(TINY_LIGHT.tobytes()).decode("ascii"),
    "final_digest": "d5", "final_summary": {"tick": 99},
    "events_total": 5, "end_tick": 99}


def test_saved_recording_loads_field_for_field(tmp_path):
    rec = Recording(TINY_SPEC, 2)
    rec.entries, rec.summaries = TINY["entries"], TINY["summaries"]
    rec.light = array("q", TINY_LIGHT)
    rec.events_total, rec.end_tick = 5, 99
    rec.final_digest, rec.final_summary = "d5", {"tick": 99}
    path = str(tmp_path / "tiny.rec")
    rec.save(path)
    assert load_record(path, "recording") == TINY
    assert vars(Recording.load(path)) == vars(rec)


@pytest.mark.parametrize("key,value,message", [
    ("every_events", None, "field 'every_events' is missing"),
    ("every_events", 0, "field 'every_events' must be an int >= 1"),
    ("spec", [], "field 'spec' must be an object"),
    ("entries", [[2, 40]], "field 'entries' must be a list of"),
    ("summaries", [{}], "field 'summaries' must be a list of 2 objects"),
    ("light", "not base64!", "field 'light' must be base64"),
    ("light", "AAAAAAAAAAA=", "field 'light' must be base64"),
    ("events_total", 6, "field 'light' must be base64 of events_total x 6 "
                        "= 36 int64 values"),
    ("final_summary", "d5", "field 'final_summary' must be an object"),
    ("end_tick", -1, "field 'end_tick' must be an int >= 0"),
], ids=["no-every-events", "every-events-zero", "spec-list", "short-entry",
        "summaries-short", "light-not-base64", "light-not-int64",
        "light-short", "final-summary-string", "end-tick-negative"])
def test_replay_rejects_a_malformed_recording_file(tmp_path, capsys, key,
                                                   value, message):
    payload = dict(TINY)
    if value is None:
        del payload[key]
    else:
        payload[key] = value
    path = str(tmp_path / "bad.rec")
    write_journal(path, [payload])
    assert main(["replay", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: recording field ") \
        and message in err


@st.composite
def recording_files(draw):
    """Arbitrary bytes, a CRC-framed arbitrary JSON object, or the tiny
    recording with one key deleted or given any JSON value."""
    shape = draw(st.sampled_from(("bytes", "object", "edit")))
    if shape == "bytes":
        return draw(st.binary(max_size=200))
    if shape == "object":
        record = draw(st.dictionaries(
            st.sampled_from(sorted(TINY)) | st.text(max_size=6), JSON,
            max_size=len(TINY)))
        if draw(st.booleans()):
            record["kind"] = "recording"
    else:
        record = dict(TINY)
        key = draw(st.sampled_from(sorted(TINY)))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(JSON)
    return JOURNAL_HEADER_LINE + encode_record(record)


@settings(max_examples=200, deadline=None)
@given(recording_files())
@example(JOURNAL_HEADER_LINE + encode_record(TINY))
def test_fuzzed_recording_file_loads_or_raises_a_journal_error(
        tmp_path_factory, content):
    path = tmp_path_factory.mktemp("rec") / "run.rec"
    path.write_bytes(content)
    try:
        rec = Recording.load(str(path))
    except JournalError:
        return
    assert type(rec.spec) is dict and rec.every_events >= 1
    assert len(rec.summaries) == len(rec.entries)
    assert len(rec.light) == rec.events_total * LIGHT_WIDTH
