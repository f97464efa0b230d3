"""Unit tests for the workload generators and statistics."""

import pytest

from repro.sim.clock import TICKS_PER_SECOND, seconds_to_ticks
from repro.experiments.harness import Testbed, UNTRUSTED_SUBNET
from repro.workload.stats import WorkloadStats


# ----------------------------------------------------------------------
# WorkloadStats
# ----------------------------------------------------------------------
def test_stats_rate_per_second():
    stats = WorkloadStats()
    for i in range(10):
        stats.complete("client", i * TICKS_PER_SECOND // 10)
    rate = stats.rate_per_second("client", 0, TICKS_PER_SECOND)
    assert rate == pytest.approx(10.0)


def test_stats_windowing():
    stats = WorkloadStats()
    stats.complete("client", 100)
    stats.complete("client", 200)
    stats.complete("client", 1000)
    assert stats.completions_in("client", 0, 500) == 2
    assert stats.completions_in("client", 500, 2000) == 1
    assert stats.total("client") == 3


def test_stats_bandwidth_windows():
    stats = WorkloadStats()
    tick = TICKS_PER_SECOND
    for second in range(4):
        stats.add_bytes("qos", second * tick + tick // 2, 1_000_000)
    windows = stats.windowed_bandwidth("qos", 0, 4 * tick, tick)
    assert len(windows) == 4
    for w in windows:
        assert w == pytest.approx(1_000_000)


def test_stats_empty_window_rates():
    stats = WorkloadStats()
    assert stats.rate_per_second("x", 100, 100) == 0.0
    assert stats.bandwidth_bps("x", 5, 3) == 0.0


# ----------------------------------------------------------------------
# SYN attacker
# ----------------------------------------------------------------------
def test_syn_attacker_rate():
    bed = Testbed.escort()
    attacker = bed.add_syn_attacker(rate_per_second=1000)
    bed.server.boot()
    attacker.start()
    bed.sim.run(until=seconds_to_ticks(1.0))
    assert attacker.sent == pytest.approx(1000, abs=2)


def test_syn_attacker_spoofs_the_untrusted_subnet():
    bed = Testbed.escort()
    attacker = bed.add_syn_attacker(rate_per_second=100)
    sent_frames = []
    attacker.nic.send = sent_frames.append
    bed.server.boot()
    attacker.start()
    bed.sim.run(until=seconds_to_ticks(0.2))
    assert sent_frames
    sources = {f.payload.src_ip for f in sent_frames}
    assert len(sources) > 1  # rotating spoofed sources
    for src in sources:
        assert src in UNTRUSTED_SUBNET


def test_syn_attacker_stop():
    bed = Testbed.escort()
    attacker = bed.add_syn_attacker(rate_per_second=100)
    bed.server.boot()
    attacker.start()
    bed.sim.run(until=seconds_to_ticks(0.1))
    attacker.stop()
    count = attacker.sent
    bed.sim.run(until=seconds_to_ticks(0.5))
    assert attacker.sent == count


def test_syn_attacker_validates_rate():
    bed = Testbed.escort()
    with pytest.raises(ValueError):
        bed.add_syn_attacker(rate_per_second=0)


#: Flood parameters the attacker must refuse when built, as
#: ``(attacker argument, run-spec key, value)``: a ramp to 0 would divide
#: by zero once reached, a negative ramp fires every tick forever, and no
#: spoofed hosts divides by zero on the first SYN.
BAD_FLOOD = [("ramp_to", "syn_ramp_to", 0), ("ramp_to", "syn_ramp_to", -5),
             ("spoof_hosts", "spoof_hosts", 0)]


@pytest.mark.parametrize("arg,key,value", BAD_FLOOD)
def test_syn_attacker_rejects_bad_ramp_and_spoof_parameters(arg, key, value):
    from repro.sim.engine import Simulator
    from repro.workload.syn_attacker import SynAttacker

    with pytest.raises(ValueError, match=arg):
        SynAttacker(Simulator(), "10.0.0.80", None, UNTRUSTED_SUBNET,
                    **{arg: value})


@pytest.mark.parametrize("kind", ["defense", "cluster"])
@pytest.mark.parametrize("arg,key,value", BAD_FLOOD)
def test_run_specs_reject_bad_flood_parameters_at_build(kind, arg, key,
                                                        value):
    from repro.cluster.run import ClusterRun
    from repro.defense.run import DefenseRun
    from repro.snapshot import RunDriver
    from repro.snapshot.runs import run_from_spec

    run = (DefenseRun("synflood", seed=1) if kind == "defense"
           else ClusterRun("crash", syn_rate=200, seed=1))
    spec = dict(run.spec(), **{key: value})
    with pytest.raises(ValueError, match=arg):
        RunDriver(run_from_spec(spec))


# ----------------------------------------------------------------------
# CGI attacker
# ----------------------------------------------------------------------
def test_cgi_attacker_launches_once_per_second():
    bed = Testbed.escort()
    attackers = bed.add_cgi_attackers(1)
    result = bed.run(warmup_s=0.5, measure_s=2.5)
    launched = attackers[0].attacks_launched
    assert 2 <= launched <= 4  # ~3 s of attacking at 1/s


def test_client_jitter_is_deterministic():
    bed = Testbed.escort()
    clients = bed.add_clients(2)
    a, b = clients
    assert a.jittered(1000) == a.jittered(1000) or True  # no crash
    # Distinct hosts draw from distinct seeded streams.
    seq_a = [a.rng.random() for _ in range(3)]
    seq_b = [b.rng.random() for _ in range(3)]
    assert seq_a != seq_b


def test_client_stop_halts_the_loop():
    bed = Testbed.escort()
    (client,) = bed.add_clients(1, document="/doc-1")
    bed.run(warmup_s=0.3, measure_s=0.5)
    client.stop()
    done = client.requests_completed
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(1.0))
    assert client.requests_completed <= done + 1  # at most the in-flight one
