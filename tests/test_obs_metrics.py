"""Unit tests for the obs building blocks: registry, spans, recorder.
The end-to-end determinism tests live in test_obs_session.py."""

import json
from pathlib import Path

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, metric_key
from repro.obs.recorder import SIDECAR_NAME, FlightRecorder, scan_obs
from repro.obs.spans import Span, SpanLog
from repro.snapshot.journal import JournalError


# ----------------------------------------------------------------------
# metric_key / registry
# ----------------------------------------------------------------------
def test_metric_key_sorts_labels():
    assert metric_key("tcp", "drops") == "tcp.drops"
    a = metric_key("tcp", "drops", reason="flood", replica=1)
    b = metric_key("tcp", "drops", replica=1, reason="flood")
    assert a == b == "tcp.drops{reason=flood,replica=1}"


def test_counter_gauge_and_value():
    reg = MetricsRegistry()
    reg.inc("kernel.kills")
    reg.inc("kernel.kills", 2)
    reg.counter_abs("cpu.busy_cycles", 500)
    reg.gauge("kernel.free_pages", 8192)
    assert reg.value("kernel.kills") == 3
    assert reg.value("cpu.busy_cycles") == 500
    assert reg.value("kernel.free_pages") == 8192
    assert reg.value("nope") is None
    assert "kernel.kills" in reg.keys()


def test_series_dedupes_consecutive_identical_values():
    reg = MetricsRegistry()
    reg.gauge("sim.pending", 5)
    reg.sample(100)
    reg.sample(200)          # unchanged -> no new point
    reg.gauge("sim.pending", 7)
    reg.sample(300)
    assert reg.series["sim.pending"] == [(100, 5), (300, 7)]
    assert reg.samples_taken == 3
    assert reg.last_sample_tick == 300


def test_histogram_buckets_and_snapshot():
    h = Histogram(bounds=(10, 100))
    for v in (1, 10, 11, 1000):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == {"le_10": 2, "le_100": 1, "le_inf": 1}
    assert snap["sum"] == 1022 and snap["count"] == 4


def test_dump_is_canonical_and_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.inc("b.two")
        reg.inc("a.one")
        reg.gauge("c.three", 1.5)
        reg.observe("d.hist", 42, bounds=(10, 100))
        reg.sample(10)
        reg.inc("a.one")
        reg.sample(20)
        return json.dumps(reg.dump(), sort_keys=True)

    assert build() == build()
    dump = MetricsRegistry()
    dump.inc("z.last")
    dump.sample(1)
    blob = dump.dump()
    assert blob["series"]["z.last"] == [[1, 1]]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_chain_walks_to_root():
    log = SpanLog()
    sig = log.add("signal", "10.9.0.0/24", tick=100)
    rung = log.add("rung", "ratelimit", tick=200, parent=sig.id)
    kill = log.add("pathKill", "conn-7", tick=300, parent=rung.id)
    chain = log.chain(kill)
    assert [s.kind for s in chain] == ["signal", "rung", "pathKill"]
    assert chain[0] is sig
    # Deterministic ids from 1.
    assert [s.id for s in log.spans] == [1, 2, 3]


def test_span_chain_cycle_guard():
    log = SpanLog()
    a = log.add("a", "x", tick=1)
    b = log.add("b", "y", tick=2, parent=a.id)
    a.parent = b.id  # corrupt: cycle
    chain = log.chain(b)
    assert len(chain) == 2  # terminates instead of looping


def test_span_record_roundtrip_and_sink():
    seen = []
    log = SpanLog(sink=seen.append)
    span = log.add("rung", "quota", "escalate", tick=50, parent=None,
                   pressure=3)
    assert seen == [span.to_record()]
    clone = Span.from_record(span.to_record())
    assert clone.values == {"pressure": 3}
    assert "quota" in str(clone)

    other = SpanLog()
    other.load(span.to_record())
    assert other.find("rung")[0].id == span.id


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def test_recorder_roundtrip(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "obs-meta", "spec": {"kind": "test"}})
        rec.record({"kind": "sample", "tick": 10, "metrics": {"a.b": 1}})
        rec.record({"kind": "span", "id": 1, "parent": None, "tick": 10,
                    "span": "signal", "subject": "x"})
        rec.record({"kind": "obs-final", "samples": 1, "spans": 1,
                    "kills": 0, "metrics_digest": "ab" * 32})
    scan = scan_obs(path)
    assert scan.complete and not scan.torn_tail
    assert scan.records == 4
    assert scan.meta[0]["spec"] == {"kind": "test"}
    assert scan.final_metrics() == {"a.b": 1}
    assert scan.span_records[0]["span"] == "signal"


def test_recorder_survives_torn_tail(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 1, "metrics": {"a": 1}})
        rec.record({"kind": "sample", "tick": 2, "metrics": {"a": 2}})
    with open(path, "ab") as fh:
        fh.write(b"deadbeef {\"kind\": torn-mid-wri")  # no newline, bad
    scan = scan_obs(path)
    assert scan.torn_tail and not scan.complete
    # The trustworthy prefix still folds.
    assert scan.final_metrics() == {"a": 2}
    assert scan.series("a") == [(1, 1), (2, 2)]


def test_recorder_append_mode_extends(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 1, "metrics": {"a": 1}})
    with FlightRecorder(path, append=True) as rec:
        rec.record({"kind": "obs-meta", "attempt": 2})
        rec.record({"kind": "sample", "tick": 5, "metrics": {"a": 9}})
    scan = scan_obs(path)
    assert len(scan.samples) == 2
    assert scan.meta[0]["attempt"] == 2
    assert scan.final_metrics() == {"a": 9}
    # Fresh mode truncates.
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 7, "metrics": {"a": 0}})
    assert len(scan_obs(path).samples) == 1


def test_recorder_append_after_torn_tail_keeps_the_new_attempt(tmp_path):
    # A SIGKILL tore the last sample; the resumed attempt's obs-meta and
    # samples must land after the readable prefix, not glued to the tear.
    path = str(tmp_path / SIDECAR_NAME)
    with FlightRecorder(path) as rec:
        rec.record({"kind": "sample", "tick": 1, "metrics": {"a": 1}})
        rec.record({"kind": "sample", "tick": 2, "metrics": {"a": 2}})
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-5])
    with FlightRecorder(path, append=True) as rec:
        rec.record({"kind": "obs-meta", "attempt": 2})
        rec.record({"kind": "sample", "tick": 5, "metrics": {"a": 9}})
    scan = scan_obs(path)
    assert not scan.torn_tail
    assert [m["attempt"] for m in scan.meta] == [2]
    assert scan.series("a") == [(1, 1), (5, 9)]


def test_recorder_rejects_alien_file(tmp_path):
    path = str(tmp_path / "alien.jrnl")
    with open(path, "w") as fh:
        fh.write("not a journal\n")
    with pytest.raises(JournalError):
        scan_obs(path)
    with pytest.raises(JournalError):
        FlightRecorder(path, append=True)


def test_scan_missing_and_empty(tmp_path):
    missing = scan_obs(str(tmp_path / "nope.jrnl"))
    assert missing.records == 0 and not missing.torn_tail
    empty = str(tmp_path / "empty.jrnl")
    open(empty, "w").close()
    assert scan_obs(empty).records == 0
