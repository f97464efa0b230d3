"""Tests for the execution tracer."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.trace import TraceEvent, Tracer
from repro.experiments.harness import Testbed
from repro.policy import RunawayPolicy


def test_record_and_filter():
    sim = Simulator()
    tracer = Tracer(sim, capacity=100)
    tracer.record("demux", "passive-0", "3 modules")
    sim.run(until=1000)
    tracer.record("kill", "conn-1", "18200 cycles")
    assert len(tracer) == 2
    kills = tracer.events(kinds={"kill"})
    assert len(kills) == 1
    assert kills[0].tick == 1000
    assert tracer.events(subject_contains="passive")[0].kind == "demux"


def test_ring_buffer_bounds():
    tracer = Tracer(Simulator(), capacity=5)
    for i in range(12):
        tracer.record("x", f"s{i}")
    assert len(tracer) == 5
    assert tracer.dropped == 7
    assert tracer.events()[0].subject == "s7"
    assert "dropped 7" in tracer.dump()


def test_counts_and_clear():
    tracer = Tracer(Simulator())
    tracer.record("a", "1")
    tracer.record("a", "2")
    tracer.record("b", "3")
    assert tracer.counts == {"a": 2, "b": 1}
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.counts == {}


def test_disable():
    tracer = Tracer(Simulator())
    tracer.enabled = False
    tracer.record("a", "1")
    assert len(tracer) == 0


def test_validation():
    with pytest.raises(ValueError):
        Tracer(Simulator(), capacity=0)


def test_event_str_format():
    event = TraceEvent(600_000_000, "kill", "conn-1", "fast")
    text = str(event)
    assert "1.000000" in text
    assert "kill" in text and "conn-1" in text and "fast" in text


def test_instrumented_server_records_everything():
    bed = Testbed.escort(policies=[RunawayPolicy(2.0)])
    tracer = Tracer(bed.sim, capacity=50_000)
    tracer.instrument_server(bed.server)
    bed.add_clients(2, document="/doc-1")
    bed.add_cgi_attackers(1)
    bed.run(warmup_s=0.3, measure_s=1.5)

    assert tracer.counts.get("demux", 0) > 50
    assert tracer.counts.get("path-create", 0) > 10
    assert tracer.counts.get("kill", 0) >= 1

    creates = tracer.events(kinds={"path-create"})
    # Stage chains are recorded for each created path.
    assert any("eth-ip-tcp-http-fs-scsi" in e.detail for e in creates)
    kills = tracer.events(kinds={"kill"})
    assert all("cycles" in e.detail for e in kills)
    # And the server still works with the wrappers installed.
    assert bed.server.http.requests_served > 0

def test_instrument_server_is_idempotent():
    """Re-instrumenting must not stack wrappers (double-recording)."""
    bed = Testbed.escort()
    tracer = Tracer(bed.sim, capacity=50_000)
    tracer.instrument_server(bed.server)
    classify_once = bed.server.eth.demultiplexer.classify
    kill_once = bed.server.kernel.kill_owner
    tracer.instrument_server(bed.server)
    assert bed.server.eth.demultiplexer.classify is classify_once
    assert bed.server.kernel.kill_owner is kill_once

    bed.add_clients(2, document="/doc-1")
    bed.run(warmup_s=0.2, measure_s=0.5)
    served = bed.server.http.requests_served
    # One demux record per classification, not two.
    assert tracer.counts.get("demux", 0) >= served
    creates = tracer.counts.get("path-create", 0)
    assert creates == len(tracer.events(kinds={"path-create"}))


def test_capacity_one_ring():
    tracer = Tracer(Simulator(), capacity=1)
    tracer.record("a", "first")
    assert tracer.dropped == 0
    tracer.record("b", "second")
    assert len(tracer) == 1
    assert tracer.dropped == 1
    assert tracer.events()[0].subject == "second"
    # The per-kind totals still count everything ever recorded.
    assert tracer.counts == {"a": 1, "b": 1}


def test_kinds_filter_combines_with_subject_filter():
    tracer = Tracer(Simulator())
    tracer.record("kill", "conn-1")
    tracer.record("kill", "pd-9")
    tracer.record("demux", "conn-1")
    hits = tracer.events(kinds={"kill"}, subject_contains="conn")
    assert [(e.kind, e.subject) for e in hits] == [("kill", "conn-1")]
    assert tracer.events(kinds={"kill", "demux"},
                         subject_contains="conn-1")[0].tick == 0


def test_span_log_forwarding():
    """A tracer built with span_log= mirrors its records as spans."""
    from repro.obs.spans import SpanLog

    sim = Simulator()
    log = SpanLog()
    tracer = Tracer(sim, capacity=10, span_log=log)
    tracer.record("demux", "conn-1", "3 modules")
    sim.run(until=500)
    tracer.record("kill", "conn-1", "18200 cycles")
    assert len(log) == 2
    spans = log.find("kill")
    assert spans[0].subject == "conn-1" and spans[0].tick == 500
    assert spans[0].parent is None
    # Disabled tracer forwards nothing.
    tracer.enabled = False
    tracer.record("demux", "conn-2")
    assert len(log) == 2


def test_queue_health_line_reports_the_ledger():
    from repro.sim.trace import queue_health_line

    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None).cancel()
    sim.schedule(0, lambda: sim.schedule(0, lambda: None))
    sim.run()
    assert queue_health_line(sim) == (
        "events=3 scheduled=4 pending=0 cancelled=0 removed=1 "
        "compactions=0")
