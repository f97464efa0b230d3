"""Unit tests for the defense sensing layer: EWMA baselines, token
buckets, the accounting monitor, and the workload outcome taxonomy."""

import pytest

from repro.defense.ratelimit import TokenBucket
from repro.defense.signals import AccountingMonitor, DefenseSignals, \
    EwmaBaseline
from repro.sim.clock import TICKS_PER_SECOND, seconds_to_ticks
from repro.workload.stats import WorkloadStats


# ----------------------------------------------------------------------
# EwmaBaseline
# ----------------------------------------------------------------------
def test_ewma_first_sample_sets_mean():
    base = EwmaBaseline(alpha=0.25)
    base.update(100.0)
    assert base.mean == 100.0
    assert base.dev == 0.0


def test_ewma_score_zero_before_any_sample():
    assert EwmaBaseline().score(1e9) == 0.0


def test_ewma_steady_signal_scores_zero():
    base = EwmaBaseline(alpha=0.25, dev_floor=1.0)
    for _ in range(50):
        base.update(200.0)
    assert base.score(200.0) == 0.0
    assert base.score(150.0) == 0.0  # below baseline is never anomalous


def test_ewma_step_attack_scores_high_before_adapting():
    base = EwmaBaseline(alpha=0.25, dev_floor=5.0)
    for _ in range(20):
        base.update(100.0)
    # A 10x step over a steady baseline scores enormous at first...
    assert base.score(1000.0) > 50
    # ...and the baseline only catches up if the attack keeps feeding it.
    for _ in range(40):
        base.update(1000.0)
    assert base.score(1000.0) < 1.0


def test_ewma_dev_floor_prevents_infinite_scores():
    base = EwmaBaseline(alpha=0.25, dev_floor=10.0)
    for _ in range(10):
        base.update(100.0)
    # dev has decayed to ~0; the floor bounds the score.
    assert base.score(110.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_bucket_validates_parameters():
    with pytest.raises(ValueError):
        TokenBucket(0, 8)
    with pytest.raises(ValueError):
        TokenBucket(100, 0)


def test_bucket_burst_then_exhaustion():
    bucket = TokenBucket(10, 4, now=0)
    assert [bucket.allow(0) for _ in range(5)] == [True] * 4 + [False]


def test_bucket_refills_at_rate():
    bucket = TokenBucket(10, 4, now=0)
    for _ in range(4):
        bucket.allow(0)
    # 10 tokens/s: after 0.1 s exactly one token is back.
    later = seconds_to_ticks(0.1)
    assert bucket.allow(later) is True
    assert bucket.allow(later) is False


def test_bucket_refill_caps_at_burst():
    bucket = TokenBucket(1000, 4, now=0)
    for _ in range(4):
        bucket.allow(0)
    much_later = seconds_to_ticks(100.0)
    assert [bucket.allow(much_later) for _ in range(5)] == \
        [True] * 4 + [False]


def test_bucket_fixed_point_is_exact():
    # Refill is integer-exact: the first tick at which a whole token is
    # back is ceil(TICKS_PER_SECOND / rate), never one tick early.
    bucket = TokenBucket(3, 1, now=0)
    assert bucket.allow(0) is True
    refill_tick = -(-TICKS_PER_SECOND // 3)
    assert bucket.allow(refill_tick - 1) is False
    assert bucket.allow(refill_tick) is True


# ----------------------------------------------------------------------
# AccountingMonitor (against a live testbed)
# ----------------------------------------------------------------------
def _booted_bed():
    from repro.experiments.harness import Testbed
    bed = Testbed.escort(accounting=True)
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.02))
    return bed


def test_monitor_first_sample_has_no_rates():
    bed = _booted_bed()
    monitor = AccountingMonitor(bed.server)
    sig = monitor.sample()
    assert sig.window_ticks == 0
    assert sig.syn_rates == {}
    assert sig.free_pages > 0


def test_monitor_computes_per_prefix_rates():
    bed = _booted_bed()
    monitor = AccountingMonitor(bed.server)
    monitor.sample()
    bed.server.tcp.syn_arrivals["10.1.64"] = 50
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.1))
    sig = monitor.sample()
    assert sig.syn_rates["10.1.64"] == pytest.approx(500.0)
    # First window for a prefix: baseline unset when scored -> score 0,
    # so a monitor booted mid-attack does not flag history it never saw.
    assert sig.syn_scores["10.1.64"] == 0.0


def test_monitor_scores_before_learning():
    bed = _booted_bed()
    monitor = AccountingMonitor(bed.server)
    tcp = bed.server.tcp
    monitor.sample()
    total = 0
    for _ in range(10):  # steady 100/s teaches the baseline
        total += 10
        tcp.syn_arrivals["10.1.64"] = total
        bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.1))
        monitor.sample()
    total += 200      # 2000/s step
    tcp.syn_arrivals["10.1.64"] = total
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.1))
    sig = monitor.sample()
    assert sig.syn_scores["10.1.64"] > 10


def test_monitor_trap_delta_is_windowed():
    bed = _booted_bed()
    monitor = AccountingMonitor(bed.server)
    monitor.sample()
    bed.server.kernel.runaway_traps += 3
    bed.sim.run(until=bed.sim.now + 1)
    assert monitor.sample().trap_delta == 3
    bed.sim.run(until=bed.sim.now + 1)
    assert monitor.sample().trap_delta == 0


def test_hot_prefixes_sorted_and_filtered():
    sig = DefenseSignals(at=0, window_ticks=100)
    sig.syn_scores = {"b": 9.0, "a": 9.0, "c": 9.0, "d": 1.0}
    sig.syn_rates = {"b": 400.0, "a": 500.0, "c": 10.0, "d": 800.0}
    # c fails the rate floor, d fails the score threshold.
    assert sig.hot_prefixes(4.0, 300.0) == ["a", "b"]


# ----------------------------------------------------------------------
# Workload outcome taxonomy (aborted / refused / degraded / retried)
# ----------------------------------------------------------------------
def test_outcome_categories_are_distinct_and_timestamped():
    stats = WorkloadStats()
    stats.outcome("client", "aborted", 100)
    stats.outcome("client", "refused", 200)
    stats.outcome("client", "refused", 300)
    stats.outcome("client", "degraded", 400)
    assert stats.outcome_total("client", "aborted") == 1
    assert stats.outcome_total("client", "refused") == 2
    assert stats.outcome_total("client", "degraded") == 1
    assert {kind: stats.outcome_total("client", kind)
            for kind in stats.OUTCOMES} == {
        "aborted": 1, "refused": 2, "degraded": 1, "retried": 0}


def test_outcomes_in_window():
    stats = WorkloadStats()
    for tick in (10, 20, 30, 40):
        stats.outcome("client", "refused", tick)
    assert stats.outcomes_in("client", "refused", 15, 35) == 2
    assert stats.outcomes_in("client", "refused", 0, 100) == 4
    assert stats.outcomes_in("client", "refused", 41, 100) == 0
    assert stats.outcomes_in("client", "aborted", 0, 100) == 0


def test_outcome_rejects_unknown_kind():
    with pytest.raises(ValueError):
        WorkloadStats().outcome("client", "vanished", 1)
