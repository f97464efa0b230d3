"""The client retry stack and the ``retried`` outcome (cluster satellites).

Covers the retry math (deadlines, capped exponential backoff with seeded
jitter, the retry *budget* that prevents retry storms), the four-way
outcome partition in :class:`WorkloadStats`, and the end-to-end behaviour
of a retrying client against a dead cluster.
"""

import random
from unittest import mock

import pytest

from repro.sim.clock import millis_to_ticks, seconds_to_ticks
from repro.workload import clients
from repro.workload.clients import retry_backoff_ticks
from repro.workload.stats import WorkloadStats


# ----------------------------------------------------------------------
# WorkloadStats: the outcome partition
# ----------------------------------------------------------------------
def test_outcome_kinds_are_partitioned():
    stats = WorkloadStats()
    assert set(WorkloadStats.OUTCOMES) == {
        "aborted", "refused", "degraded", "retried"}
    for i, kind in enumerate(WorkloadStats.OUTCOMES):
        for _ in range(i + 1):
            stats.outcome("client", kind, tick=100 * i)
    summary = {kind: stats.outcome_total("client", kind)
               for kind in WorkloadStats.OUTCOMES}
    assert summary == {"aborted": 1, "refused": 2, "degraded": 3,
                       "retried": 4}
    # Each kind counts independently; nothing leaks across kinds.
    assert sum(summary.values()) == 10
    assert stats.outcome_total("client", "retried") == 4
    assert stats.outcomes_in("client", "retried", 0, 10 ** 12) == 4


def test_unknown_outcome_is_rejected():
    stats = WorkloadStats()
    with pytest.raises(ValueError):
        stats.outcome("client", "exploded", tick=0)


# ----------------------------------------------------------------------
# Backoff and budget math
# ----------------------------------------------------------------------
@mock.patch.object(clients, "RETRY_JITTER", 0.0)
def test_backoff_doubles_then_caps():
    rng = random.Random(7)
    ticks = [retry_backoff_ticks(attempt, rng)
             for attempt in range(2, 8)]
    base = millis_to_ticks(20)
    cap = millis_to_ticks(160)
    assert ticks[0] == base
    assert ticks[1] == 2 * base
    assert ticks[2] == 4 * base
    # ...and never past the cap, no matter how many attempts.
    assert all(t <= cap for t in ticks)
    assert ticks[-1] == cap


def test_backoff_jitter_stays_in_bounds_and_is_seeded():
    base = millis_to_ticks(20)
    draws = [retry_backoff_ticks(2, random.Random(seed))
             for seed in range(50)]
    assert all(base * 0.5 <= t <= base * 1.5 for t in draws)
    assert len(set(draws)) > 1  # jitter actually spreads
    # Same seed, same draw: the backoff is replayable.
    assert retry_backoff_ticks(3, random.Random(9)) == \
        retry_backoff_ticks(3, random.Random(9))


# ----------------------------------------------------------------------
# End to end: a retrying client against a dead cluster
# ----------------------------------------------------------------------
@pytest.mark.cluster
@mock.patch.object(clients, "RETRY_BUDGET_INITIAL_MILS", 2_000)
@mock.patch.object(clients, "RETRY_BUDGET_RATIO_MILS", 0)
def test_retry_stack_exhausts_budget_against_dead_replica():
    from repro.cluster.harness import ClusterTestbed

    bed = ClusterTestbed(replicas=1, adaptive=False)
    bed.add_clients(3, retry=True)
    bed.boot()
    bed.sim.run(until=seconds_to_ticks(0.01))
    # The only replica is dark before any load starts: every attempt
    # times out at the deadline and the budget drains quickly.
    bed.replicas[0].crash()
    bed.start_load()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(1.5))

    retried = sum(c.requests_retried for c in bed.clients)
    denied = sum(c.retries_denied for c in bed.clients)
    deadline_aborts = sum(c.deadline_aborts for c in bed.clients)
    failed = sum(c.requests_failed for c in bed.clients)
    assert deadline_aborts > 0          # deadlines actually fired
    assert retried == 2 * 3             # exactly the initial budget each
    assert denied > 0                   # then the budget said no
    assert failed > 0                   # and requests failed for real
    assert bed.stats.outcome_total("client", "retried") == retried
    # No completions: nothing was up to serve them.
    assert bed.stats.total("client") == 0


@pytest.mark.cluster
def test_client_without_retry_policy_has_no_retry_state():
    from repro.cluster.harness import ClusterTestbed

    bed = ClusterTestbed(replicas=1, adaptive=False)
    bed.add_clients(2, retry=False)
    bed.boot()
    bed.sim.run(until=seconds_to_ticks(0.01))
    bed.start_load()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.5))
    assert bed.stats.total("client") > 0
    assert all(c.requests_retried == 0 for c in bed.clients)
    assert all(c.deadline_aborts == 0 for c in bed.clients)
    assert bed.stats.outcome_total("client", "retried") == 0
