"""Targeted tests for code paths the broader suites do not reach."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.sim.cpu import Cycles
from repro.experiments.harness import Testbed
from repro.kernel.errors import InvalidOperationError
from repro.modules.base import Module


# ----------------------------------------------------------------------
# Module base defaults
# ----------------------------------------------------------------------
def test_module_default_handle_call_rejects(kernel):
    m = Module(kernel, "plain", kernel.privileged_domain)
    gen = m.handle_call(None, None)
    with pytest.raises(InvalidOperationError):
        next(gen)


def test_module_default_demux_rejects(kernel):
    m = Module(kernel, "plain", kernel.privileged_domain)
    result = m.demux(object())
    assert result.kind == "drop"


# ----------------------------------------------------------------------
# Lifecycle corners
# ----------------------------------------------------------------------
def test_destroy_of_already_destroyed_path_is_noop():
    from tests.test_core_lifecycle import create_path, make_server
    from repro.sim.engine import Simulator
    sim = Simulator()
    server = make_server(sim)
    path = create_path(sim, server)
    server.path_manager.path_kill(path)
    # path_destroy on a dead path returns without touching anything.
    server.path_manager.schedule_destroy(path)
    sim.run(until=sim.now + seconds_to_ticks(0.05))
    assert path.destroyed


def test_double_schedule_destroy_is_safe():
    from tests.test_core_lifecycle import create_path, make_server
    from repro.sim.engine import Simulator
    sim = Simulator()
    server = make_server(sim)
    path = create_path(sim, server)
    server.path_manager.schedule_destroy(path)
    server.path_manager.schedule_destroy(path)
    sim.run(until=sim.now + seconds_to_ticks(0.2))
    assert path.destroyed
    assert server.path_manager.paths_destroyed >= 1


def test_path_kill_of_destroyed_path_raises():
    from tests.test_core_lifecycle import create_path, make_server
    from repro.sim.engine import Simulator
    sim = Simulator()
    server = make_server(sim)
    path = create_path(sim, server)
    server.path_manager.path_kill(path)
    with pytest.raises(InvalidOperationError):
        server.path_manager.path_kill(path)


# ----------------------------------------------------------------------
# Linux backlog unit behaviour
# ----------------------------------------------------------------------
def test_linux_backlog_drops_when_full():
    from repro.net.packet import FLAG_SYN, TCPSegment, IPDatagram, \
        EthFrame, ETHERTYPE_IP, IPPROTO_TCP
    bed = Testbed.linux()
    server = bed.server
    server.boot()
    for i in range(server.LISTEN_BACKLOG + 25):
        seg = TCPSegment(1024 + i, 80, 0, 0, FLAG_SYN)
        frame = EthFrame(None, server.nic.mac, ETHERTYPE_IP,
                         IPDatagram(f"10.9.0.{i % 250 + 1}", server.ip,
                                    IPPROTO_TCP, seg))
        server.nic.deliver(frame)
    bed.sim.run(until=seconds_to_ticks(0.5))
    assert server.syns_dropped_backlog >= 25
    half_open = sum(1 for c in server._conns.values()
                    if c.engine.half_open)
    assert half_open <= server.LISTEN_BACKLOG


# ----------------------------------------------------------------------
# Harness QoS windows
# ----------------------------------------------------------------------
def test_run_result_includes_qos_windows():
    bed = Testbed.escort()
    bed.add_qos_receiver()
    result = bed.run(warmup_s=1.0, measure_s=1.0)
    # Windows are ten-second averages: a 1 s window yields none, but the
    # overall bandwidth is still reported.
    assert result.qos_windows == []
    assert result.qos_bandwidth_bps > 0.9e6


# ----------------------------------------------------------------------
# Softclock stop
# ----------------------------------------------------------------------
def test_softclock_stop_halts_ticks(sim, kernel):
    kernel.boot()
    sim.run(until=seconds_to_ticks(0.005))
    ticks = kernel.softclock.ticks
    kernel.softclock.stop()
    sim.run(until=seconds_to_ticks(0.05))
    assert kernel.softclock.ticks == ticks


# ----------------------------------------------------------------------
# Heap transfer between two paths
# ----------------------------------------------------------------------
def test_heap_transfer_between_paths(kernel):
    from repro.kernel.owner import Owner, OwnerType
    pd = kernel.create_domain("pd")
    pd.heap_grow(kernel.allocator, pages=1)
    a = Owner(OwnerType.PATH, name="a")
    b = Owner(OwnerType.PATH, name="b")
    for owner in (a, b):
        owner.domains_crossed = lambda: {pd}
    alloc = pd.heap_alloc(100, charge_to=a)
    pd.heap_transfer(alloc, b)
    assert a.usage.heap_bytes == 0
    assert b.usage.heap_bytes == 100
    assert alloc in b.heap_allocations
    # Idempotent self-transfer.
    pd.heap_transfer(alloc, b)
    assert b.usage.heap_bytes == 100
