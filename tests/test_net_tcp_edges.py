"""TCP engine edge cases beyond the happy paths."""

import pytest

from repro.sim.clock import millis_to_ticks
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_SYN,
    TCP_MSS,
    TCPSegment,
)
from repro.net.tcp import TCPEngine, TcpState
from tests.test_net_tcp import Endpoint, make_pair


def test_sws_avoidance_never_sends_runt_segments(sim):
    """With a full window, the sender waits for ACKs rather than topping
    up with a partial segment (the delayed-ACK interaction fix)."""
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    eng = server.engine
    eng.cwnd = 2 * TCP_MSS  # small fixed window
    eng.ssthresh = 2 * TCP_MSS
    actions = eng.send(5 * TCP_MSS)
    sizes = [s.payload_len for s in actions.segments]
    assert sizes == [TCP_MSS, TCP_MSS]  # exactly the window, no runt


def test_final_partial_segment_allowed(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    eng = server.engine
    eng.cwnd = 10 * TCP_MSS
    actions = eng.send(TCP_MSS + 100)  # one full + one small tail
    sizes = [s.payload_len for s in actions.segments]
    assert sizes == [TCP_MSS, 100]


def test_tiny_cwnd_with_empty_pipe_still_progresses(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    eng = server.engine
    eng.cwnd = 500  # pathological: smaller than one MSS
    actions = eng.send(2000)
    assert actions.segments
    assert actions.segments[0].payload_len == 500


def test_delack_cancelled_by_data_transmission(sim):
    """A pending delayed ACK rides on the next data segment for free."""
    client, server = make_pair(
        sim, server_kwargs={"delayed_ack_ticks": millis_to_ticks(50)})
    sim.run(until=millis_to_ticks(10))
    # Client sends one small segment: server arms its delack.
    client.apply(client.engine.send(100))
    sim.run(until=sim.now + millis_to_ticks(5))
    assert server.engine.delack_armed
    # Server responds with data before the timer: delack cancelled.
    server.apply(server.engine.send(200))
    assert not server.engine.delack_armed


def test_on_delack_with_nothing_pending_is_noop(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    actions = server.engine.on_delack()
    assert actions.segments == []


def test_on_rto_with_nothing_unacked_is_noop(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    actions = server.engine.on_rto()
    assert actions.segments == []
    assert not actions.closed


def test_abort_mid_transfer_stops_everything(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    server.apply(server.engine.send(50_000))
    sim.run(until=sim.now + millis_to_ticks(3))
    server.apply(server.engine.abort())
    sim.run(until=sim.now + millis_to_ticks(100))
    assert server.engine.state == TcpState.CLOSED
    assert client.engine.state == TcpState.CLOSED
    assert server.engine._queued_bytes == 0


def test_retries_reset_on_progress(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    server.drop_next = 1
    server.apply(server.engine.send(1000))
    sim.run(until=sim.now + millis_to_ticks(4000))
    assert server.engine.retries == 0      # reset once the ACK arrived
    assert server.engine.rto_current == TCPEngine.DEFAULT_RTO


def test_simultaneous_close(sim):
    """Both sides close at once (CLOSING state path)."""
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    # Fire both FINs before either peer sees the other's.
    client.apply(client.engine.close())
    server.apply(server.engine.close())
    sim.run(until=sim.now + millis_to_ticks(100))
    assert client.engine.state == TcpState.CLOSED
    assert server.engine.state == TcpState.CLOSED


def test_congestion_avoidance_growth_is_slow(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    eng = server.engine
    eng.cwnd = eng.ssthresh = 10 * TCP_MSS
    before = eng.cwnd
    # One data ACK in congestion avoidance grows cwnd by ~mss^2/cwnd.
    eng._unacked.append(
        __import__("repro.net.tcp", fromlist=["_SentSegment"])
        ._SentSegment(eng.snd_nxt, 1000, FLAG_ACK))
    eng.snd_nxt += 1000
    actions = eng.on_segment(TCPSegment(5000, 80, eng.rcv_nxt,
                                        eng.snd_nxt, FLAG_ACK))
    growth = eng.cwnd - before
    assert 0 < growth < TCP_MSS


def test_engine_rejects_invalid_inputs(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    with pytest.raises(ValueError):
        server.engine.send(-1)
    with pytest.raises(ValueError):
        TCPEngine.passive_open("10.0.0.1", 80,
                               TCPSegment(1, 2, 0, 0, FLAG_ACK),
                               "10.0.0.2")


def test_close_is_idempotent(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    a1 = server.engine.close()
    a2 = server.engine.close()
    fins = [s for s in a1.segments + a2.segments if s.flags & FLAG_FIN]
    assert len(fins) == 1


# ----------------------------------------------------------------------
# No TIME_WAIT: the active closer goes straight to CLOSED
# ----------------------------------------------------------------------
def test_time_wait_disabled_by_default(sim):
    client, server = make_pair(sim)
    sim.run(until=millis_to_ticks(10))
    client.apply(client.engine.close())
    server.apply(server.engine.close())
    sim.run(until=sim.now + millis_to_ticks(50))
    assert client.engine.state == TcpState.CLOSED
    assert server.engine.state == TcpState.CLOSED
