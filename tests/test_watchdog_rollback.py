"""Watchdog × snapshot: rollback as the gentler rung before teardown.

The contract under test (satellite 4 of the snapshot PR): when a
:class:`DomainSnapshotter` is attached, a misbehaving protection domain is
rolled back to its last good snapshot — only post-snapshot objects die,
cycle accounting never rewinds, and the invariant checker stays green
across the restore (no double-counted cycles).  When the per-domain
rollback budget is spent, the ladder falls through to teardown.
"""

from __future__ import annotations

from unittest import mock

from repro.sim.clock import seconds_to_ticks
from repro.sim.cpu import Cycles
from repro.kernel.events import KernelEvent, Semaphore
from repro.kernel.owner import Owner, OwnerType
from repro.chaos.invariants import InvariantChecker
from repro.chaos.watchdog import Watchdog
from repro.snapshot import DomainSnapshotter


def hog():
    while True:
        yield Cycles(25_000)


def make_path(name):
    return Owner(OwnerType.PATH, name=name)


#: One watchdog scan period, in ticks.
SCAN = seconds_to_ticks(Watchdog.PERIOD_S)


# ----------------------------------------------------------------------
# DomainSnapshotter unit behaviour
# ----------------------------------------------------------------------
def test_rollback_reclaims_only_post_snapshot_objects(pd_kernel):
    kernel = pd_kernel
    pd = kernel.create_domain("pd-app")
    pd.heap_grow(kernel.allocator, pages=2)

    old_path = make_path("conn-old")
    pd.crossing_paths.add(old_path)
    old_alloc = pd.heap_alloc(100, label="resident")
    old_sema = Semaphore(kernel, pd, count=1)

    snapper = DomainSnapshotter(kernel)
    snap = snapper.snapshot_domain(pd)
    assert snap is not None and snapper.taken == 1

    new_path = make_path("conn-new")
    pd.crossing_paths.add(new_path)
    new_alloc = pd.heap_alloc(64, label="leak")
    new_event = KernelEvent(kernel, pd, lambda: iter(()), delay_ticks=1000)
    new_sema = Semaphore(kernel, pd)
    new_thread = kernel.spawn_thread(pd, hog(), name="pd-hog")

    report = snapper.rollback(pd)
    assert report is not None and report.reclaimed_anything
    assert report.paths_killed == ["conn-new"]
    assert report.threads_killed == 1
    assert report.events_cancelled == 1
    assert report.semaphores_destroyed == 1
    assert report.heap_allocs_freed == 1

    # Post-snapshot objects are gone...
    assert new_path.destroyed
    assert not new_thread.alive
    assert new_event.cancelled
    assert new_sema.destroyed
    assert new_alloc not in pd._allocations
    # ...and everything that predates the snapshot is untouched.
    assert not old_path.destroyed
    assert not old_sema.destroyed
    assert old_alloc in pd._allocations
    assert not pd.destroyed


def test_empty_rollback_reclaims_nothing(pd_kernel):
    pd = pd_kernel.create_domain("pd-app")
    snapper = DomainSnapshotter(pd_kernel)
    snapper.snapshot_domain(pd)
    report = snapper.rollback(pd)
    assert report is not None
    assert not report.reclaimed_anything


def test_rollback_never_rewinds_cycles(pd_kernel, sim):
    kernel = pd_kernel
    pd = kernel.create_domain("pd-app")
    snapper = DomainSnapshotter(kernel)
    snapper.snapshot_domain(pd)
    kernel.spawn_thread(pd, hog(), name="pd-hog")
    sim.run(until=seconds_to_ticks(0.002))
    burned = pd.usage.cycles
    assert burned > 0
    report = snapper.rollback(pd)
    assert report.threads_killed == 1
    assert report.cycles_preserved == burned
    assert pd.usage.cycles == burned  # reclaim objects, not history


def test_observe_skips_suspects_and_dead_domains(pd_kernel):
    kernel = pd_kernel
    a = kernel.create_domain("pd-a")
    b = kernel.create_domain("pd-b")
    snapper = DomainSnapshotter(kernel)
    assert snapper.observe(skip={"pd-b"}) == 1
    assert "pd-a" in snapper.snapshots
    assert "pd-b" not in snapper.snapshots
    kernel.destroy_domain(a)
    snapper.snapshot_domain(a)
    assert "pd-a" not in snapper.snapshots  # dead domains drop out
    assert snapper.observe() == 1  # only pd-b remains snapshot-worthy
    assert not snapper.can_rollback(a)
    assert snapper.can_rollback(b)


# ----------------------------------------------------------------------
# Watchdog integration: rollback rung, then teardown
# ----------------------------------------------------------------------
@mock.patch.object(Watchdog, "STUCK_SCANS", 10**6)  # park progress detector
def test_watchdog_rolls_back_then_tears_down(pd_kernel, sim):
    kernel = pd_kernel
    pd = kernel.create_domain("pd-app")
    pd.heap_grow(kernel.allocator, pages=1)
    resident_path = make_path("conn-resident")
    pd.crossing_paths.add(resident_path)
    resident_alloc = pd.heap_alloc(100, label="resident")

    checker = InvariantChecker(kernel)
    snapper = DomainSnapshotter(kernel)
    watchdog = Watchdog(kernel, snapshotter=snapper)
    watchdog.start()

    # Let a few clean scans capture the healthy domain, then wedge it.
    sim.schedule(int(3.5 * SCAN),
                 lambda: kernel.spawn_thread(pd, hog(), name="pd-hog-1"))
    sim.run(until=8 * SCAN)

    assert snapper.taken >= 2
    assert watchdog.rollbacks == 1
    rollback_log = watchdog.actions("rollback")
    assert len(rollback_log) == 1
    assert rollback_log[0].subject == "pd-app"
    assert "thread(s)" in rollback_log[0].detail
    # The gentler rung handled it: the domain and its pre-wedge state live.
    assert not pd.destroyed
    assert not resident_path.destroyed
    assert resident_alloc in pd._allocations
    assert not any(t.alive for t in pd.thread_list)

    # No double-counted cycles across the restore: the ledger still
    # conserves, and the domain's counter never moved backwards.
    burned_after_rollback = pd.usage.cycles
    assert burned_after_rollback >= snapper.reports[0].cycles_preserved
    assert checker.check_now() == []

    # Second offense: the per-domain rollback budget (1) is spent, so the
    # ladder falls through to whole-domain teardown.
    assert Watchdog.ROLLBACK_LIMIT == 1
    kernel.spawn_thread(pd, hog(), name="pd-hog-2")
    sim.run(until=sim.now + 4 * SCAN)
    assert pd.destroyed
    assert watchdog.rollbacks == 1          # no second rollback
    assert resident_path.destroyed          # teardown takes the paths too
    assert pd.usage.cycles >= burned_after_rollback
    assert checker.check_now() == []


@mock.patch.object(Watchdog, "STUCK_SCANS", 10**6)
def test_rollback_that_reclaims_nothing_falls_through(pd_kernel, sim):
    # The wedge predates every snapshot we hold: the snapshot set equals
    # the current set, rollback reclaims nothing, teardown must follow.
    kernel = pd_kernel
    pd = kernel.create_domain("pd-app")
    thread = kernel.spawn_thread(pd, hog(), name="pd-hog")

    snapper = DomainSnapshotter(kernel)
    snapper.snapshot_domain(pd)  # captures the hog as "good" state
    watchdog = Watchdog(kernel, snapshotter=snapper)
    watchdog.start()
    sim.run(until=5 * SCAN)

    assert watchdog.rollbacks == 0
    assert pd.destroyed
    assert not thread.alive


@mock.patch.object(Watchdog, "STUCK_SCANS", 10**6)
def test_watchdog_without_snapshotter_still_tears_down(pd_kernel, sim):
    kernel = pd_kernel
    pd = kernel.create_domain("pd-app")
    kernel.spawn_thread(pd, hog(), name="pd-hog")
    watchdog = Watchdog(kernel)
    watchdog.start()
    sim.run(until=5 * SCAN)
    assert pd.destroyed
    assert watchdog.rollbacks == 0
    assert not watchdog.actions("rollback")
