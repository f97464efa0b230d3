"""The engine reproduces recorded scheduler decisions and run digests.

Simulated behaviour depends on the engine only through the order events
fire in, ``(time, seq)``.  These tests pin that order end to end against
values recorded from earlier runs: the exact sequence of threads the
scheduler picks across seed-varied workloads, and the state digest of
each replayable run kind (plus a defense run's full record/replay
journal).  A change that moves any of them changes simulated behaviour;
re-record the table only when that is the point of the change, and rebank
the regression corpus with it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

#: ``"<seed>-proportional"`` -> (picks, sha256 prefix of the pick
#: sequence).  The keys name the scheduler the rows were recorded under,
#: the kernel's only one.
RECORDED_PICKS = {
    "1-proportional": (490, "9f50f685052f66a3"),
    "2-proportional": (507, "684264dcc3ac2138"),
    "3-proportional": (398, "d5e38b8ef34c042f"),
    "4-proportional": (364, "a0a75eaeb5571183"),
    "5-proportional": (732, "41eed4b40e6e932f"),
}

#: Run name -> (events processed, state digest).
RECORDED_DIGESTS = {
    "experiment": (7610, "84ca001fa9c2d5fc3ac03a70aa9653b7"
                         "e41236f7adcb85dd56c6e26b16287273"),
    "experiment-flood": (7838, "316f15e77229c759225b2d7aa5347a91"
                               "68999280586f760f40f59e15e23fb494"),
    "chaos": (26565, "89cd31e451e0f8a0b8512a7472d6d160"
                     "3cab547c048c8f2d7ae35547f2306fb7"),
    "defense": (154625, "0cccf67d27264e6d8001f8388404e8c9"
                        "4dbb51928a17dd7b8a3758439fe2dfd8"),
    "cluster": (87220, "8cad81a313c054b446a2a70b044b9f7c"
                       "22b741ef27f8bf6f635413098b09bc0e"),
    "chaos-lossy-syn-flood": (9851, "e4f5577446d9430fcebf925f362468b0"
                                    "ce48be509cf1999d1662292f1b22a303"),
    "chaos-oom-cgi": (33217, "be360a33885c0ca6897ded635ad08b30"
                             "31d041cd213551efe6c0b6df1340bb8c"),
    "chaos-rollback": (26565, "8432c0df1ee9f430b78a1e4e6a8b3afb"
                              "51af70a091facd51132dd76062111c2e"),
    "defense-mixed": (66023, "c04402014df0ccb5872b274107b3aa1e"
                             "b794559f0b68e1c2754ace7059b4caa4"),
    "cluster-edge": (110535, "b8c62a30c25fa90e58136db1b97b4d6e"
                             "82d752264d3259a214a75641b68bb82c"),
}

#: (events, sha256 of the journal's events/light/entries/final digest).
RECORDED_DEFENSE_JOURNAL = (11654, "0becda92952f15881cfa14a61e4d2610"
                                   "c156ef523f04a767a0e65c2618b0fa8a")


def _picked_thread_sequence(seed: int):
    """Boot a testbed and record every thread the scheduler picks."""
    from repro.experiments.harness import Testbed
    from repro.snapshot.runs import reset_ids

    reset_ids()
    bed = Testbed.escort(accounting=True)
    # Seed-varied workload: client count and SYN pressure differ.
    bed.add_clients(1 + (seed % 3), document="/doc-1")
    if seed % 2:
        bed.add_syn_attacker(200 + 50 * seed)

    picks = []
    sched = bed.server.kernel.cpu.scheduler
    original_pick = sched.pick

    def recording_pick():
        thread = original_pick()
        if thread is not None:
            picks.append(thread.name)
        return thread

    sched.pick = recording_pick
    bed.run(warmup_s=0.05, measure_s=0.1)
    return picks


@pytest.mark.parametrize("key", sorted(RECORDED_PICKS))
def test_scheduler_picks_match_the_recording(key):
    seed, _ = key.split("-")
    picks = _picked_thread_sequence(int(seed))
    digest = hashlib.sha256("\n".join(picks).encode()).hexdigest()[:16]
    assert (len(picks), digest) == RECORDED_PICKS[key]


def _make_run(name: str):
    from repro.chaos import ChaosRun
    from repro.cluster.run import ClusterRun
    from repro.defense.run import DefenseRun
    from repro.snapshot import ExperimentRun

    if name == "experiment":
        return ExperimentRun("accounting", clients=2, syn_rate=150,
                             untrusted_cap=8, warmup_s=0.1, measure_s=0.3)
    if name == "experiment-flood":
        return ExperimentRun("accounting", clients=2, syn_rate=400,
                             untrusted_cap=8, warmup_s=0.1, measure_s=0.3)
    if name == "chaos":
        return ChaosRun("domain-crash", seed=1)
    if name == "defense":
        return DefenseRun("synflood", seed=2)
    if name == "chaos-lossy-syn-flood":
        return ChaosRun("lossy-syn-flood", 1)
    if name == "chaos-oom-cgi":
        return ChaosRun("oom-cgi", 1)
    if name == "chaos-rollback":
        return ChaosRun("domain-crash", 1, use_rollback=True)
    if name == "defense-mixed":
        # A short ramp and few clients bring every rung up, and quota and
        # degrade back down, inside a 1.5 s window.
        return DefenseRun("mixed", seed=1, clients=4, cgi_attackers=8,
                          syn_ramp_to=1500, syn_ramp_s=0.5,
                          warmup_s=0.2, measure_s=1.5)
    if name == "cluster-edge":
        return ClusterRun("crash", seed=1, clients=6, syn_rate=200,
                          measure_s=1.0)
    return ClusterRun("crash", seed=1, clients=6, measure_s=1.0)


def _check_guarded_behaviour(name: str, run) -> None:
    """Each added row pins a run for the mechanism it names; assert that
    the mechanism fired, so a shorter window cannot silently stop
    covering it."""
    if name.startswith("chaos-"):
        kinds = {a.kind for a in run.watchdog.log}
        assert run.watchdog.saw_recovery_cycle()
        if name == "chaos-oom-cgi":
            assert {"shed-on", "shed-off"} <= kinds
        if name == "chaos-rollback":
            assert run.snapshotter.taken > 0
            assert run.snapshotter.rollbacks > 0
    elif name == "defense-mixed":
        log = run.bed.server.defense.log
        assert {a.rung for a in log if a.kind == "escalate"} \
            == {"ratelimit", "syncookies", "quota", "degrade"}
        assert {a.rung for a in log if a.kind == "deescalate"} \
            >= {"quota", "degrade"}
    elif name == "cluster-edge":
        assert any(a.kind == "escalate" for a in run.bed.defense.log)


@pytest.mark.parametrize("name", [
    "experiment",
    "experiment-flood",
    pytest.param("chaos", marks=pytest.mark.chaos),
    pytest.param("defense", marks=pytest.mark.defense),
    pytest.param("cluster", marks=pytest.mark.cluster),
    pytest.param("chaos-lossy-syn-flood", marks=pytest.mark.chaos),
    pytest.param("chaos-oom-cgi", marks=pytest.mark.chaos),
    pytest.param("chaos-rollback", marks=pytest.mark.chaos),
    pytest.param("defense-mixed", marks=pytest.mark.defense),
    pytest.param("cluster-edge", marks=pytest.mark.cluster),
])
def test_run_digest_matches_the_recording(name):
    from repro.snapshot import RunDriver

    run = _make_run(name)
    RunDriver(run).run_all()
    run.bed.sim.check_invariant()
    _check_guarded_behaviour(name, run)
    assert (run.bed.sim.events_processed, run.digest()) \
        == RECORDED_DIGESTS[name]


def test_defense_replay_journal_matches_the_recording():
    """The full journal — per-event light fingerprints, windowed digests,
    final digest — is byte-identical to the recorded one."""
    from repro.defense.run import DefenseRun
    from repro.snapshot.replay import record

    run = DefenseRun("synflood", seed=1, clients=3, syn_rate=150,
                     syn_ramp_to=600, syn_ramp_s=0.3, spoof_hosts=40,
                     warmup_s=0.1, measure_s=0.3)
    _, rec = record(run, every_events=500)
    blob = json.dumps([rec.events_total, list(rec.light), rec.entries,
                       rec.final_digest])
    assert (rec.events_total, hashlib.sha256(blob.encode()).hexdigest()) \
        == RECORDED_DEFENSE_JOURNAL
