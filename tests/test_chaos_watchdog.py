"""Unit tests for the kernel watchdog's detect → kill → recover ladder.

Each detector is exercised in isolation (the others parked by patching
their thresholds out of reach), then the escalation/backoff machinery and
the never-kill-the-kernel rule.
"""

from unittest import mock

from repro.sim.clock import seconds_to_ticks
from repro.sim.cpu import Block, Cycles
from repro.kernel.owner import Owner, OwnerType
from repro.chaos.watchdog import Watchdog


def make_owner(name="conn-1"):
    return Owner(OwnerType.PATH, name=name)


def hog():
    # Never yields the CPU: the canonical runaway-CGI body.
    while True:
        yield Cycles(25_000)


def run_scans(sim, watchdog, scans):
    watchdog.start()
    sim.run(until=sim.now
            + seconds_to_ticks(Watchdog.PERIOD_S * (scans + 0.5)))


#: Out-of-reach thresholds that park one detector.
park_cycle_budget = mock.patch.object(Watchdog, "CYCLE_BUDGET", 10**12)
park_progress = mock.patch.object(Watchdog, "STUCK_SCANS", 10**6)


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
@park_progress
def test_cycle_budget_detects_and_kills(sim, kernel):
    owner = make_owner("cgi-hog")
    kernel.spawn_thread(owner, hog())
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 5)
    assert owner.destroyed
    assert watchdog.actions("detect")
    assert watchdog.actions("kill")
    assert any("cycles this window" in a.detail
               for a in watchdog.actions("detect"))


@park_cycle_budget
def test_progress_detector_catches_stuck_thread(sim, kernel):
    owner = make_owner("stuck-1")
    kernel.spawn_thread(owner, hog())
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 6)
    assert owner.destroyed
    assert any("consecutive scans" in a.detail
               for a in watchdog.actions("detect"))


@park_cycle_budget
@park_progress
def test_page_budget_detects_hoarder(sim, kernel):
    owner = make_owner("hoard-1")
    kernel.allocator.alloc(owner, count=Watchdog.PAGE_BUDGET + 1)
    # The page detector only examines owners active in the window.
    kernel.spawn_thread(owner, hog())
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 4)
    assert owner.destroyed
    assert any("pages held" in a.detail for a in watchdog.actions("detect"))


@mock.patch.object(Watchdog, "CYCLE_BUDGET", 0)
@mock.patch.object(Watchdog, "PAGE_BUDGET", 0)
@mock.patch.object(Watchdog, "STUCK_SCANS", 1)
def test_kernel_and_idle_owners_are_never_killed(sim, kernel):
    # Only kernel/idle work happens: whatever the counters say, the
    # watchdog must not touch the privileged owners.
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 10)
    assert watchdog.kills == 0
    assert not kernel.kernel_owner.destroyed
    assert not kernel.idle_owner.destroyed


# ----------------------------------------------------------------------
# Recovery verification and the full cycle
# ----------------------------------------------------------------------
@park_cycle_budget
def test_full_detect_kill_recover_cycle(sim, kernel):
    owner = make_owner("stuck-1")
    kernel.spawn_thread(owner, hog())
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 8)
    assert watchdog.saw_recovery_cycle()
    recover = watchdog.actions("recover")
    assert recover and recover[0].subject == owner.name
    assert "watchdog:" in watchdog.summary()


def test_scan_cost_is_charged_to_the_kernel(sim, kernel):
    before = kernel.kernel_owner.usage.cycles
    watchdog = Watchdog(kernel)
    run_scans(sim, watchdog, 5)
    charged = kernel.kernel_owner.usage.cycles - before
    # Several scans' worth landed.
    assert charged >= Watchdog.SCAN_COST_CYCLES * 3


# ----------------------------------------------------------------------
# Escalation and shedding
# ----------------------------------------------------------------------
@park_cycle_budget
@mock.patch.object(Watchdog, "ESCALATE_AFTER", 1)
def test_offense_escalates_to_shedding_with_backoff(sim, kernel):
    # ESCALATE_AFTER=1: the very first offense trips the shedding ladder
    # (clean scans between offenders would otherwise cool the counter).
    watchdog = Watchdog(kernel)
    kernel.spawn_thread(make_owner("stuck-1"), hog())
    run_scans(sim, watchdog, 10)
    assert watchdog.escalations >= 1
    assert watchdog.actions("escalate")
    # The backoff window expires and admission control reopens.
    sim.run(until=sim.now + seconds_to_ticks(Watchdog.BACKOFF_S))
    assert not kernel.shedding
    assert any(a.kind == "shed-off" for a in watchdog.log)


def test_saturation_shedding_hysteresis(sim, kernel):
    ballast = Owner(OwnerType.KERNEL, name="ballast")
    free = kernel.allocator.free_pages
    kernel.allocator.alloc(ballast, count=free - 10)
    watchdog = Watchdog(kernel, shed_on_free_pages=64,
                        shed_off_free_pages=256)
    run_scans(sim, watchdog, 3)
    assert kernel.shedding
    assert any(a.kind == "shed-on" for a in watchdog.log)
    kernel.allocator.reclaim_all(ballast)
    sim.run(until=sim.now + seconds_to_ticks(Watchdog.PERIOD_S))
    assert not kernel.shedding
    assert any(a.kind == "shed-off" for a in watchdog.log)


def test_shedding_rejects_new_paths_cheaply(sim, kernel):
    kernel.set_shedding(True)
    assert not kernel.admit_path()
    assert kernel.sheds == 1
    kernel.set_shedding(False)
    assert kernel.admit_path()


# ----------------------------------------------------------------------
# Service liveness hook
# ----------------------------------------------------------------------
def test_service_probe_triggers_revive_and_recovery(sim, kernel):
    state = {"up": True, "revives": 0}

    def probe():
        return state["up"]

    def revive():
        state["revives"] += 1
        state["up"] = True

    watchdog = Watchdog(kernel, service_probe=probe, service_revive=revive)
    watchdog.start()
    sim.run(until=sim.now + seconds_to_ticks(3 * Watchdog.PERIOD_S))
    state["up"] = False
    sim.run(until=sim.now + seconds_to_ticks(5 * Watchdog.PERIOD_S))
    assert state["revives"] == 1
    assert state["up"]
    assert any(a.subject == "service" for a in watchdog.actions("detect"))
    assert any(a.subject == "service" for a in watchdog.actions("recover"))
