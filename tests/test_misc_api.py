"""Edge coverage for small public-API surfaces."""

import pytest

from repro.kernel.owner import Owner, OwnerType, ResourceUsage
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TCPSegment,
    flag_names,
)


def test_resource_usage_snapshot_is_a_copy():
    usage = ResourceUsage(kmem=10, cycles=100)
    snap = usage.snapshot()
    usage.kmem = 99
    assert snap.kmem == 10
    assert snap.cycles == 100


def test_owner_ids_are_unique_and_monotone():
    a = Owner(OwnerType.PATH)
    b = Owner(OwnerType.PATH)
    assert b.oid > a.oid
    assert a.name != b.name


def test_owner_tracked_object_count():
    owner = Owner(OwnerType.PATH)
    assert owner.tracked_object_count() == 0
    owner.page_list.add(object())
    owner.event_list.add(object())
    assert owner.tracked_object_count() == 2


def test_owner_destroy_callbacks_run_once():
    owner = Owner(OwnerType.PATH)
    calls = []
    owner.on_destroy(lambda o: calls.append(o))
    owner.run_destroy_callbacks()
    owner.run_destroy_callbacks()
    assert calls == [owner]


def test_flag_names():
    assert flag_names(FLAG_SYN) == "SYN"
    assert flag_names(FLAG_SYN | FLAG_ACK) == "SYN|ACK"
    assert flag_names(FLAG_FIN | FLAG_RST) == "FIN|RST"
    assert flag_names(0) == "-"


def test_segment_seq_span():
    assert TCPSegment(1, 2, 0, 0, FLAG_SYN).seq_span == 1
    assert TCPSegment(1, 2, 0, 0, FLAG_ACK, 100).seq_span == 100
    assert TCPSegment(1, 2, 0, 0, FLAG_FIN | FLAG_ACK, 50).seq_span == 51
    assert TCPSegment(1, 2, 0, 0, FLAG_SYN | FLAG_FIN).seq_span == 2


def test_segment_wire_size():
    assert TCPSegment(1, 2, 0, 0, FLAG_ACK).size == 20
    assert TCPSegment(1, 2, 0, 0, FLAG_ACK, 1000).size == 1020


def test_kernel_config_defaults(kernel, bare_kernel, pd_kernel):
    assert kernel.config.accounting
    assert not kernel.config.protection_domains
    assert not bare_kernel.config.accounting
    assert pd_kernel.config.protection_domains
    # Crossing costs only exist in the PD configuration.
    a = pd_kernel.create_domain("a")
    b = pd_kernel.create_domain("b")
    assert pd_kernel.crossing_cost(a, b) > 0
    assert pd_kernel.crossing_cost(a, a) == 0
    c = kernel.create_domain("c")
    d = kernel.create_domain("d")
    assert kernel.crossing_cost(c, d) == 0


def test_iobuffer_pages_helper():
    from repro.kernel.iobuffer import pages_for
    from repro.kernel.memory import PAGE_SIZE
    assert pages_for(1) == 1
    assert pages_for(PAGE_SIZE) == 1
    assert pages_for(PAGE_SIZE + 1) == 2
    assert pages_for(3 * PAGE_SIZE) == 3


def test_kill_report_fields(kernel):
    owner = Owner(OwnerType.PATH, name="victim")
    kernel.allocator.alloc(owner, count=2)
    report = kernel.kill_owner(owner, charge=False)
    assert report.owner_name == "victim"
    assert report.pages == 2
    assert report.cycles > 0


def test_run_result_window_cycles():
    from repro.experiments.harness import RunResult
    result = RunResult(window_start=0, window_end=600_000_000,
                       connections_per_second=0.0,
                       cgi_attacks_per_second=0.0,
                       client_completions=0, client_failures=0,
                       qos_bandwidth_bps=0.0, qos_windows=[],
                       syn_sent=0, syn_dropped_at_demux=0,
                       runaway_kills=0)
    assert result.window_cycles == 300_000_000  # one second at 300 MHz
