"""Unit tests for the ARP, IP, FS, and SCSI modules."""

import pytest

from repro.sim.clock import millis_to_ticks, seconds_to_ticks
from repro.net.addressing import BROADCAST, MacAddr, Subnet
from repro.net.packet import ArpPacket
from tests.test_core_lifecycle import create_path, make_server


# ----------------------------------------------------------------------
# ARP
# ----------------------------------------------------------------------
def test_arp_seed_and_lookup(sim):
    server = make_server(sim)
    mac = MacAddr("peer")
    server.arp.seed("10.1.0.5", mac)
    assert server.arp.lookup("10.1.0.5") is mac
    assert server.arp.lookup("10.1.0.6") is None


def test_arp_replies_to_requests_for_our_ip(sim):
    server = make_server(sim)
    asker = MacAddr("asker")
    sent = []
    server.nic.send = sent.append  # capture instead of wiring a network
    request = ArpPacket(ArpPacket.REQUEST, sender_ip="10.1.0.9",
                        sender_mac=asker, target_ip=server.ip)
    path = server.arp.arp_path
    from repro.core.path import FORWARD, PathWork
    path.enqueue(PathWork(path.stage_of("eth"), FORWARD,
                          _eth_frame(server, request)))
    sim.run(until=sim.now + seconds_to_ticks(0.01))
    assert server.arp.requests_answered == 1
    assert server.arp.lookup("10.1.0.9") is asker  # learned from request
    assert len(sent) == 1
    reply = sent[0].payload
    assert reply.op == ArpPacket.REPLY
    assert reply.target_ip == "10.1.0.9"


def test_arp_learns_from_replies(sim):
    server = make_server(sim)
    mac = MacAddr("responder")
    reply = ArpPacket(ArpPacket.REPLY, sender_ip="10.1.0.44",
                      sender_mac=mac, target_ip=server.ip)
    path = server.arp.arp_path
    from repro.core.path import FORWARD, PathWork
    path.enqueue(PathWork(path.stage_of("eth"), FORWARD,
                          _eth_frame(server, reply)))
    sim.run(until=sim.now + seconds_to_ticks(0.01))
    assert server.arp.replies_learned == 1
    assert server.arp.lookup("10.1.0.44") is mac


def _eth_frame(server, arp_pkt):
    from repro.net.packet import ETHERTYPE_ARP, EthFrame
    return EthFrame(arp_pkt.sender_mac, server.nic.mac, ETHERTYPE_ARP,
                    arp_pkt)


# ----------------------------------------------------------------------
# IP
# ----------------------------------------------------------------------
def test_ip_longest_prefix_routing(sim):
    server = make_server(sim)
    ip = server.ip_mod
    ip.add_route(Subnet("10.1.0.0/16"))
    ip.add_route(Subnet("10.1.2.0/24"))
    subnet, _ = ip.route("10.1.2.3")
    assert subnet.cidr == "10.1.2.0/24"
    subnet, _ = ip.route("10.1.9.9")
    assert subnet.cidr == "10.1.0.0/16"
    subnet, _ = ip.route("8.8.8.8")
    assert subnet.cidr == "0.0.0.0/0"


def test_ip_route_entries_charged_to_domain(sim):
    server = make_server(sim)
    before = server.ip_mod.pd.usage.heap_bytes
    server.ip_mod.add_route(Subnet("172.16.0.0/12"))
    assert server.ip_mod.pd.usage.heap_bytes > before


# ----------------------------------------------------------------------
# FS + SCSI
# ----------------------------------------------------------------------
def run_file_read(sim, server, path, uri):
    from repro.modules.fs import FileRead
    out = {}

    def body():
        stage = path.stage_of("http")
        result = yield from stage.call_forward(FileRead(uri))
        out["result"] = result

    server.kernel.spawn_thread(server.kernel.kernel_owner, body())
    sim.run(until=sim.now + seconds_to_ticks(0.2))
    return out.get("result")


def test_fs_serves_known_document(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    result = run_file_read(sim, server, path, "/doc-1k")
    assert result is not None
    size, buf = result
    assert size == 1024
    # The cached IOBuffer itself, associated with the requesting path.
    assert buf is server.fs.cache["/doc-1k"]
    assert buf.payload == "/doc-1k" and path in buf.locks
    assert server.fs.disk_reads == 1


def test_fs_missing_document_returns_none(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    assert run_file_read(sim, server, path, "/nope") is None


def test_fs_cache_hit_skips_disk(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    run_file_read(sim, server, path, "/doc-1k")
    reads_after_first = server.scsi.reads
    run_file_read(sim, server, path, "/doc-1k")
    assert server.scsi.reads == reads_after_first
    assert server.fs.cache_hits >= 1


def test_fs_associates_cached_buffer_with_path(sim):
    """The web-cache pattern: the path is fully charged for the buffer."""
    server = make_server(sim)
    path = create_path(sim, server)
    run_file_read(sim, server, path, "/doc-10k")
    buf = server.fs.cache["/doc-10k"]
    assert path in buf.locks
    assert path.usage.pages >= buf.pages  # full charge to second owner
    # Killing the path releases its lock; the FS keeps the cache copy.
    server.path_manager.path_kill(path)
    assert path not in buf.locks
    assert not buf.freed


def test_disk_read_takes_simulated_time(sim):
    server = make_server(sim)
    path = create_path(sim, server)
    t0 = sim.now
    run_file_read(sim, server, path, "/doc-10k")
    elapsed = sim.now  # run_file_read runs the sim until completion+window
    assert server.scsi.bytes_read == 10 * 1024
    assert server.scsi.reads == 1


def test_scsi_read_validation():
    from repro.modules.scsi import ScsiRead
    with pytest.raises(ValueError):
        ScsiRead(0)
