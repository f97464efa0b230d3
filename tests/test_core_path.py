"""Unit tests for Path and Stage mechanics: crossings, queues, refcounts."""

import pytest

from repro.sim.clock import seconds_to_ticks
from repro.core.path import Q_NET_IN, FORWARD, PathWork
from repro.kernel.errors import InvalidOperationError, PermissionError_
from tests.test_core_lifecycle import active_attrs, create_path, make_server


def test_stage_navigation(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    tcp_stage = path.stage_of("tcp")
    assert tcp_stage.next_backward().module.name == "ip"
    assert tcp_stage.next_forward().module.name == "http"
    assert path.stages[0].next_backward() is None
    assert path.stages[-1].next_forward() is None


def test_stage_of_unknown_module_raises(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    with pytest.raises(KeyError):
        path.stage_of("nfs")
    modules = [s.module.name for s in path.stages]
    assert "tcp" in modules
    assert "nfs" not in modules


def test_domains_crossed_single_vs_pd(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    assert len(path.domains_crossed()) == 1  # everything privileged


def test_domains_crossed_pd(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    assert len(path.domains_crossed()) == 6  # one per module on the path


def test_cross_charges_cycles_only_with_pds(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    eth_pd = server.eth.pd
    ip_pd = server.ip_mod.pd
    before = path.usage.cycles
    crossings_before = path.crossings

    def body():
        yield from path.cross(eth_pd, ip_pd)

    server.kernel.spawn_thread(server.kernel.kernel_owner, body())
    sim.run(until=sim.now + seconds_to_ticks(0.01))
    assert path.usage.cycles - before == server.costs.pd_crossing
    assert path.crossings == crossings_before + 1


def test_cross_requires_allowed_crossing(sim):
    server = make_server(sim, pd=True)
    path = create_path(sim, server)
    eth_pd = server.eth.pd
    scsi_pd = server.scsi.pd  # not adjacent: crossing not allowed

    def body():
        yield from path.cross(eth_pd, scsi_pd)

    errors = []

    def wrapper():
        try:
            yield from body()
        except PermissionError_ as exc:
            errors.append(exc)

    server.kernel.spawn_thread(server.kernel.kernel_owner, wrapper())
    sim.run(until=sim.now + seconds_to_ticks(0.01))
    assert errors


def test_cross_same_domain_is_free(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    pd = server.kernel.privileged_domain
    gen = path.cross(pd, pd)
    with pytest.raises(StopIteration):
        next(gen)
    assert path.crossings == 0


def test_refcount_protocol(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    path.acquire()
    path.acquire()
    assert path.ref_cnt == 2
    path.release()
    path.release()
    with pytest.raises(InvalidOperationError):
        path.release()


def test_enqueue_to_destroyed_path_fails(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    stage = path.stages[0]
    server.path_manager.path_kill(path)
    assert not path.enqueue(PathWork(stage, FORWARD, "data"))


def test_enqueue_overflow_reports_false(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    stage = path.stages[0]
    queue = path.queues[Q_NET_IN]
    # Kill the pool threads so nothing drains the queue.
    for t in list(path.pool.threads):
        t.kill()
    for _ in range(queue.capacity):
        assert path.enqueue(PathWork(stage, FORWARD, "x"))
    assert not path.enqueue(PathWork(stage, FORWARD, "overflow"))
