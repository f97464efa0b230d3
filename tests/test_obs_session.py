"""End-to-end observability determinism tests.

The contract under test: an attached :class:`ObsSession` is a pure
observer.  Obs-on and obs-off runs of the same seed produce identical
state digests; two obs-on runs produce byte-identical telemetry; and the
causal span chains connect monitor signals through defense rungs and
watchdog detections to path kills.
"""

import filecmp
import json
import os

import pytest

from repro.chaos import ChaosRun
from repro.defense.run import DefenseRun
from repro.obs import ObsSession, attach_obs, run_with_obs, scan_obs
from repro.obs.recorder import SIDECAR_NAME
from repro.snapshot.driver import RunDriver

pytestmark = pytest.mark.obs


def _small_defense(attack="synflood", **kw):
    params = dict(adaptive=True, seed=1, clients=6,
                  syn_rate=200, syn_ramp_to=3000, syn_ramp_s=1.0,
                  cgi_attackers=4, warmup_s=0.3, measure_s=1.0)
    params.update(kw)
    return DefenseRun(attack, **params)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_digest_identical_obs_on_vs_off(tmp_path):
    run_off = _small_defense()
    RunDriver(run_off).run_all()
    digest_off = run_off.digest()

    run_on = _small_defense()
    _, session = run_with_obs(run_on, str(tmp_path / "obs"))
    assert run_on.digest() == digest_off
    assert session.registry.samples_taken > 10
    assert len(session.registry.series) > 20


def test_telemetry_byte_identical_across_reruns(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    sessions = []
    for d in dirs:
        _, session = run_with_obs(_small_defense(), d)
        sessions.append(session)
    assert sessions[0].metrics_digest == sessions[1].metrics_digest
    assert filecmp.cmp(os.path.join(dirs[0], SIDECAR_NAME),
                       os.path.join(dirs[1], SIDECAR_NAME), shallow=False)
    # The sidecar is the run's one telemetry file.
    assert os.listdir(dirs[0]) == [SIDECAR_NAME]
    # And the recorder's final record carries the same digest the
    # in-memory registry hashed to.
    scan = scan_obs(os.path.join(dirs[0], SIDECAR_NAME))
    assert scan.complete
    assert scan.finals[-1]["metrics_digest"] == sessions[0].metrics_digest


def test_obs_without_dir_keeps_everything_in_memory():
    run = _small_defense(attack="runaway-cgi")
    result, session = run_with_obs(run, None)
    assert session.recorder is None
    assert session.obs_dir is None
    info = session.finish()  # idempotent, no files written
    assert info["samples"] > 0
    assert session.registry.value("defense.scans") > 0


# ----------------------------------------------------------------------
# Metrics content
# ----------------------------------------------------------------------
def test_defense_series_track_the_attack(tmp_path):
    _, session = run_with_obs(_small_defense(), str(tmp_path / "obs"))
    reg = session.registry
    # The flood shows up in per-prefix rate gauges with EWMA baselines.
    rate_keys = [k for k in reg.keys() if k.startswith("defense.syn_rate")]
    assert rate_keys
    base_keys = [k for k in reg.keys()
                 if k.startswith("defense.syn_baseline")]
    assert base_keys
    # The ladder engaged: transitions counted per kind/rung.
    trans = [k for k in reg.counters if k.startswith("defense.transitions")]
    assert any("escalate" in k for k in trans)
    # Rung-state gauges exist for every rung.
    for rung in ("ratelimit", "syncookies", "quota", "degrade"):
        assert reg.value(f"defense.rung_active{{rung={rung}}}") is not None
    # Kernel/CPU/sim samples rode along on milestones.
    assert reg.value("kernel.free_pages") is not None
    assert reg.value("cpu.scheduler_picks") > 0
    assert reg.value("sim.events_processed") > 0
    # Token buckets drop flood SYNs at the demux gate.
    drops = [k for k in reg.counters if k.startswith("tcp.demux_drops")]
    assert drops
    # Workload outcomes were mirrored.
    assert any(k.startswith("workload.completions") for k in reg.counters)


def test_kill_histograms_and_family_counters(tmp_path):
    _, session = run_with_obs(_small_defense(attack="runaway-cgi"),
                              str(tmp_path / "obs"))
    reg = session.registry
    assert session.kills >= 1
    assert reg.value("kernel.kills") == session.kills
    fams = [k for k in reg.counters
            if k.startswith("kernel.kills_by_family")]
    assert fams
    hist = reg.histograms["kernel.kill_cycles"]
    assert hist.count == session.kills


# ----------------------------------------------------------------------
# Causal chains
# ----------------------------------------------------------------------
def test_kill_chain_links_signal_rung_kill(tmp_path):
    _, session = run_with_obs(_small_defense(attack="runaway-cgi"),
                              str(tmp_path / "obs"))
    kills = session.spans.find("pathKill")
    assert kills
    chained = [session.spans.chain(k) for k in kills]
    # At least one kill traces back through a rung or signal span.
    deep = [c for c in chained if len(c) >= 2]
    assert deep, "no kill linked to its cause"
    root_kinds = {c[0].kind for c in deep}
    assert root_kinds & {"signal", "rung"}
    # Chains are root-first and end at the kill.
    for chain in deep:
        assert chain[-1].kind == "pathKill"
        assert all(s.tick <= chain[-1].tick for s in chain)


def test_watchdog_detect_parents_the_kill(tmp_path):
    run = ChaosRun("oom-cgi", 1)
    driver = RunDriver(run)
    session = attach_obs(driver, str(tmp_path / "obs"))
    report = driver.run_all()
    session.finish()
    assert report.ok
    kills = session.spans.find("pathKill")
    assert kills
    detect_backed = [
        k for k in kills
        if any(s.kind == "watchdog" and s.values.get("action") == "detect"
               for s in session.spans.chain(k))]
    assert detect_backed, "no pathKill parented by a watchdog detection"
    # Watchdog series were sampled too.
    assert session.registry.value("watchdog.scans") > 0
    assert session.registry.value("watchdog.kills") >= len(detect_backed)


def test_signal_spans_carry_values(tmp_path):
    _, session = run_with_obs(_small_defense(), str(tmp_path / "obs"))
    signals = session.spans.find("signal")
    assert signals
    syn = [s for s in signals if "/24" in s.subject]
    assert syn, "no per-prefix SYN signal span"
    for span in syn:
        assert span.values["rate"] > 0
        assert "baseline" in span.values


# ----------------------------------------------------------------------
# Cluster wiring
# ----------------------------------------------------------------------
def test_cluster_run_labels_replicas(tmp_path):
    from repro.cluster.run import ClusterRun

    run = ClusterRun("crash", replicas=2, seed=1, clients=6,
                     syn_rate=200, syn_ramp_to=2000, syn_ramp_s=1.0,
                     warmup_s=0.3, measure_s=1.5)
    _, session = run_with_obs(run, str(tmp_path / "obs"))
    reg = session.registry
    # Per-replica kernel series exist for both replicas.
    for i in (0, 1):
        assert reg.value(f"kernel.free_pages{{replica={i}}}") is not None
    # Dispatcher and health-probe counters were mirrored.
    assert reg.value("cluster.forwarded_in") > 0
    assert reg.value("cluster.probes_sent{replica=0}") > 0
    # The mid-window crash shows as a failover and a down replica gauge
    # somewhere in the series.
    assert reg.value("cluster.failovers") >= 1
    ups = reg.series.get("cluster.replica_up{replica=0}", [])
    assert any(v == 0 for _, v in ups), "crash never visible in series"


# ----------------------------------------------------------------------
# Pure-observer guarantees
# ----------------------------------------------------------------------
def test_session_never_schedules_events(tmp_path):
    """sim.seq obs-on equals sim.seq obs-off — the observer scheduled
    nothing."""
    run_off = _small_defense(attack="runaway-cgi")
    driver_off = RunDriver(run_off)
    driver_off.run_all()
    seq_off = driver_off.sim.seq

    run_on = _small_defense(attack="runaway-cgi")
    driver_on = RunDriver(run_on)
    session = attach_obs(driver_on, str(tmp_path / "obs"))
    driver_on.run_all()
    session.finish()
    assert driver_on.sim.seq == seq_off


# ----------------------------------------------------------------------
# Supervised child: telemetry survives SIGKILL
# ----------------------------------------------------------------------
@pytest.mark.supervise
def test_flight_recorder_survives_sigkill_and_resume(tmp_path):
    """A SIGKILLed supervised child leaves a readable sidecar; the
    resumed attempt appends (marked with its own obs-meta record) and
    writes the final record."""
    from repro.supervise import Supervisor
    from repro.supervise.harness import selftest_spec

    obs_dir = str(tmp_path / "obs")
    sup = Supervisor(str(tmp_path / "state"), max_attempts=3,
                     heartbeat_timeout_s=30.0,
                     checkpoint_every_events=2000)
    sres = sup.run(selftest_spec("defense"),
                   inject={"mode": "kill", "after_events": 4000,
                           "on_attempt": 1},
                   obs_dir=obs_dir)
    assert sres.ok
    assert [a.classification for a in sres.attempts] \
        == ["signal:SIGKILL", "ok"]
    scan = scan_obs(os.path.join(obs_dir, SIDECAR_NAME))
    assert scan.complete
    attempts = [m["attempt"] for m in scan.meta if "attempt" in m]
    assert attempts == [1, 2]
    # Pre-crash samples were kept: the sample stream spans both attempts.
    assert len(scan.samples) > 2
    assert scan.final_metrics()
