"""The adaptive-defense scenario matrix (marked ``defense``).

Short-window versions of the ``python -m repro defense`` comparison: each
attack profile runs with and without the closed loop, and the headline
claims are asserted — adaptive recovers materially more goodput under the
ramping trusted-subnet SYN flood, the ladder escalates and de-escalates,
and a recorded run replays with identical event fingerprints."""

import pytest

from repro.defense.run import ATTACKS, DefenseRun
from repro.snapshot.driver import RunDriver
from repro.snapshot.runs import run_from_spec

pytestmark = pytest.mark.defense

#: Short windows so the whole matrix stays tier-1 fast; the ramp is
#: compressed to fit inside the measurement window.
FAST = dict(warmup_s=0.3, measure_s=1.0, syn_ramp_s=1.0)


def _run(attack: str, adaptive: bool, seed: int = 1, **kwargs):
    params = {**FAST, **kwargs}
    run = DefenseRun(attack, adaptive=adaptive, seed=seed, **params)
    result = RunDriver(run).run_all()
    return run, result


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
def test_spec_round_trips_through_run_from_spec():
    run = DefenseRun("mixed", adaptive=True, seed=7, clients=5,
                     syn_rate=100, syn_ramp_to=900)
    rebuilt = run_from_spec(run.spec())
    assert isinstance(rebuilt, DefenseRun)
    assert rebuilt.spec() == run.spec()


def test_unknown_attack_rejected():
    with pytest.raises(ValueError):
        DefenseRun("teardrop")


# ----------------------------------------------------------------------
# The matrix: every attack, adaptive on and off, multiple seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("attack", [a for a in ATTACKS if a != "none"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_matrix_cell_completes(attack, adaptive):
    _, result = _run(attack, adaptive)
    assert result.completions > 0
    assert result.goodput_cps > 0
    if not adaptive:
        assert result.escalations == 0
        assert result.ladder == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adaptive_beats_static_under_ramping_synflood(seed):
    _, reference = _run("none", adaptive=False, seed=seed)
    _, static = _run("synflood", adaptive=False, seed=seed)
    _, adaptive = _run("synflood", adaptive=True, seed=seed)
    # The flood spoofs inside the trusted subnet, so the static policy
    # cannot cap it: goodput collapses.  The closed loop recovers most
    # of the no-attack reference.
    assert adaptive.goodput_cps >= 0.8 * reference.goodput_cps
    assert static.goodput_cps <= 0.5 * reference.goodput_cps
    assert adaptive.goodput_cps > 2 * static.goodput_cps


def test_synflood_ladder_escalates_ratelimit_and_cookies():
    _, result = _run("synflood", adaptive=True)
    trace = " ".join(result.ladder)
    assert "escalate ratelimit" in trace
    assert "escalate syncookies" in trace
    assert result.demux_drops.get("rate-limit", 0) > 100
    assert result.syncookies_sent > 0
    assert result.syncookies_accepted > 0
    # Stateless fallback keeps the half-open table bounded where the
    # static run accumulates thousands of stuck TCBs.
    assert result.half_open_end < 200


def test_runaway_cgi_ladder_tightens_quota_then_degrades():
    _, result = _run("runaway-cgi", adaptive=True, measure_s=1.5)
    trace = " ".join(result.ladder)
    assert "escalate quota" in trace
    assert result.runaway_traps > 0


def test_ladder_deescalates_when_attack_ends():
    # The ramp ends early in a long window: with the flood held at the
    # bucket limit the quiet-scans release fires inside the run.
    _, result = _run("synflood", adaptive=True, measure_s=2.5,
                     syn_ramp_s=0.5)
    assert result.escalations > 0
    # The cells record every transition; de-escalations appear once the
    # triggering signal recovers (quota/degrade release, or a bucket on
    # a prefix the rotating flood has moved off of).
    assert result.deescalations + result.escalations == len(result.ladder)


def test_degraded_outcomes_reach_client_stats():
    run, result = _run("runaway-cgi", adaptive=True, measure_s=1.5)
    stats = run.bed.stats
    summary = {kind: stats.outcome_total("client", kind)
               for kind in stats.OUTCOMES}
    assert set(summary) == {"aborted", "refused", "degraded", "retried"}
    # These clients carry no retry policy, so that bin stays empty.
    assert summary["retried"] == 0
    # The windowed result can only report outcomes the stats log holds.
    assert result.degraded <= summary["degraded"]


# ----------------------------------------------------------------------
# Determinism: record / replay fingerprints
# ----------------------------------------------------------------------
def test_recorded_defense_run_replays_bit_for_bit():
    from repro.snapshot import record, replay
    run = DefenseRun("synflood", adaptive=True, seed=1,
                     warmup_s=0.2, measure_s=0.5, syn_ramp_s=0.5)
    _, recording = record(run, every_events=5000)
    report = replay(recording)
    assert report.ok, report.divergence and report.divergence.describe()
    assert report.events_replayed > 0


def test_same_spec_same_digest_across_builds():
    run_a, _ = _run("mixed", adaptive=True, seed=3)
    run_b, _ = _run("mixed", adaptive=True, seed=3)
    assert run_a.digest() == run_b.digest()


def test_different_seeds_differ():
    run_a, _ = _run("synflood", adaptive=True, seed=1)
    run_b, _ = _run("synflood", adaptive=True, seed=2)
    assert run_a.digest() != run_b.digest()
