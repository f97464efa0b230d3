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
    return ClusterRun("crash", seed=1, clients=6, measure_s=1.0)


@pytest.mark.parametrize("name", [
    "experiment",
    "experiment-flood",
    pytest.param("chaos", marks=pytest.mark.chaos),
    pytest.param("defense", marks=pytest.mark.defense),
    pytest.param("cluster", marks=pytest.mark.cluster),
])
def test_run_digest_matches_the_recording(name):
    from repro.snapshot import RunDriver

    run = _make_run(name)
    RunDriver(run).run_all()
    run.bed.sim.check_invariant()
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
