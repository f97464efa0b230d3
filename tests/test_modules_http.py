"""Module-level tests for HTTP: parsing, CGI registry, streaming."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.experiments.harness import Testbed
from repro.modules.http import HTTPRequest, ListenSpec
from repro.modules.tcp import HTTPData
from repro.net.addressing import Subnet


def test_http_request_repr_and_size():
    req = HTTPRequest("GET", "/index.html")
    assert req.method == "GET"
    assert req.size > len("/index.html")
    assert "GET" in repr(req)
    sized = HTTPRequest("GET", "/x", size=500)
    assert sized.size == 500


def test_listen_spec_defaults():
    spec = ListenSpec()
    assert spec.port == 80
    assert spec.subnet.contains("1.2.3.4")
    assert spec.syn_cap is None
    named = ListenSpec(subnet=Subnet("10.0.0.0/8"), syn_cap=5)
    assert "10.0.0.0/8" in named.name
    assert named.syn_cap == 5


def test_custom_listen_specs_create_matching_paths():
    specs = [ListenSpec(subnet=Subnet("10.1.0.0/16"), name="p-a"),
             ListenSpec(subnet=Subnet("0.0.0.0/0"), name="p-b",
                        syn_cap=9, tickets=3)]
    bed = Testbed.escort()
    bed.server.http.listen_specs = specs
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.05))
    paths = bed.server.http.passive_paths
    assert [p.name for p in paths] == ["p-a", "p-b"]
    assert paths[1].policy_state["syn_cap"] == 9
    assert paths[1].sched.tickets == 3


def test_stream_request_starts_pacer():
    bed = Testbed.escort()
    receiver = bed.add_qos_receiver()
    bed.run(warmup_s=0.5, measure_s=0.5)
    assert bed.server.http.streams_started == 1
    assert receiver.bytes_received > 0


def test_stream_respects_configured_rate():
    bed = Testbed.escort()
    bed.server.http.stream_rate_bps = 500_000   # half rate
    receiver = bed.add_qos_receiver()
    result = bed.run(warmup_s=1.0, measure_s=2.0)
    achieved = result.qos_bandwidth_bps
    assert achieved == pytest.approx(500_000, rel=0.05)


def test_cgi_registry_dispatch():
    calls = []

    def probe(stage):
        def body():
            calls.append(stage.path.name)
            yield from stage.module.respond_from_cgi(stage, 64)
        return body()

    bed = Testbed.escort()
    bed.server.http.cgi_scripts["probe"] = probe
    bed.add_clients(1, document="/cgi-bin/probe")
    result = bed.run(warmup_s=0.3, measure_s=0.6)
    assert calls
    assert result.client_completions > 0


def _answered_open_stage(server):
    """The HTTP stage of a live connection that has sent its response."""
    for path in server.tcp.conn_table.values():
        if not path.destroyed and path.has_module("http"):
            stage = path.stage_of("http")
            if stage.state.get("responded"):
                return stage
    return None


def test_second_request_on_same_connection_ignored():
    """HTTP/1.0: one request per connection; duplicates are dropped."""
    bed = Testbed.escort()
    bed.add_clients(1, document="/doc-1")
    server = bed.server
    server.boot()
    bed.sim.run(until=seconds_to_ticks(0.01))
    bed.start_load()
    # Step event by event until a connection has been answered but not
    # yet torn down (a few dozen events on this testbed).
    limit = seconds_to_ticks(0.5)
    stage = None
    while stage is None:
        assert bed.sim.now < limit, "no answered connection still open"
        assert bed.sim.step()
        stage = _answered_open_stage(server)
    served_before = server.http.requests_served

    def replay():
        yield from server.http.forward(
            stage, HTTPData(100, HTTPRequest("GET", "/doc-1")))

    thread = server.kernel.spawn_thread(server.kernel.kernel_owner, replay())
    while thread.alive:
        assert bed.sim.now < limit, "the replayed request never finished"
        assert bed.sim.step()
    assert server.http.requests_served == served_before


def test_bytes_served_counter():
    bed = Testbed.escort()
    bed.add_clients(1, document="/doc-1k")
    bed.run(warmup_s=0.3, measure_s=0.5)
    http = bed.server.http
    assert http.bytes_served == http.requests_served * 1024
