"""Determinism regression: same spec + same seed ⇒ the same machine.

The snapshot subsystem's correctness rests entirely on deterministic
re-execution, so this is its regression net: every canned chaos scenario,
run twice in one process with the same seed, must produce byte-identical
recordings — the per-event light fingerprints and the windowed state
digests of :func:`repro.snapshot.record` — and identical final state
digests.  Any source of nondeterminism (dict-order iteration, object-id
leakage into behavior, wall-clock dependence) fails here first — and
``python -m repro replay`` then localizes it to the exact event.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import SCENARIOS, ChaosRun
from repro.snapshot import ExperimentRun, RunDriver, record


def run_traced(name: str, seed: int):
    run = ChaosRun(name, seed)
    report, recording = record(run)
    trace_bytes = (recording.light.tobytes()
                   + json.dumps(recording.entries).encode())
    return (report, run.digest(), trace_bytes,
            [str(a) for a in report.watchdog_log])


def assert_identical_runs(name: str, seed: int):
    report_a, digest_a, trace_a, log_a = run_traced(name, seed)
    report_b, digest_b, trace_b, log_b = run_traced(name, seed)
    assert digest_a == digest_b
    assert trace_a == trace_b, "recordings differ between identical runs"
    assert log_a == log_b
    assert report_a.faults_injected == report_b.faults_injected
    assert report_a.completions_after == report_b.completions_after
    assert report_a.ok == report_b.ok


def test_domain_crash_twice_is_byte_identical():
    # Tier-1 representative of the full matrix below.
    assert_identical_runs("domain-crash", seed=1)


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_twice_is_byte_identical(name):
    assert_identical_runs(name, seed=3)


@pytest.mark.chaos
def test_rollback_runs_are_deterministic_too():
    def once():
        run = ChaosRun("oom-cgi", 2, use_rollback=True)
        RunDriver(run).run_all()
        return run.digest()

    assert once() == once()


def test_experiment_rebuild_matches_digest():
    def once():
        run = ExperimentRun("accounting", clients=2, syn_rate=150,
                            untrusted_cap=8, warmup_s=0.1, measure_s=0.3)
        RunDriver(run).run_all()
        return run.digest()

    assert once() == once()
