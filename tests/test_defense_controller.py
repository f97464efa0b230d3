"""Unit tests for the defense controller: each rung's escalation and
de-escalation, the SYN-cookie handshake end to end, watchdog absorption,
and the AdaptivePolicy wrapper."""

import pytest

from repro.defense.controller import TIGHT_QUOTA, DefenseController
from repro.defense.signals import DefenseSignals
from repro.experiments.harness import TRUSTED_SUBNET, Testbed
from repro.policy import AdaptivePolicy, RunawayPolicy, SynFloodPolicy
from repro.sim.clock import seconds_to_ticks


def _booted(policies=None):
    bed = Testbed.escort(accounting=True, policies=policies)
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.02))
    return bed


def _controller(bed) -> DefenseController:
    """A controller wired to the bed but not running its scan loop."""
    return DefenseController(bed.server)


def _signals(bed, **kwargs) -> DefenseSignals:
    sig = DefenseSignals(at=bed.sim.now, window_ticks=100)
    sig.free_pages = bed.server.kernel.allocator.free_pages
    for key, value in kwargs.items():
        setattr(sig, key, value)
    return sig


# ----------------------------------------------------------------------
# Rung 1: adaptive rate limiting
# ----------------------------------------------------------------------
def test_ratelimit_escalates_on_hot_prefix():
    bed = _booted()
    ctl = _controller(bed)
    sig = _signals(bed, syn_rates={"10.1.64": 900.0},
                   syn_scores={"10.1.64": 50.0})
    ctl._drive_ratelimit(sig)
    assert "10.1.64" in ctl.buckets
    assert ctl.buckets["10.1.64"].rate == ctl.ALLOW_RATE_FLOOR
    assert ctl.rung_active["ratelimit"]
    assert [a.rung for a in ctl.escalations()] == ["ratelimit"]


def test_ratelimit_ignores_quiet_or_unscored_prefixes():
    bed = _booted()
    ctl = _controller(bed)
    sig = _signals(bed,
                   syn_rates={"10.1.0": 900.0, "10.1.64": 100.0},
                   syn_scores={"10.1.0": 0.5, "10.1.64": 50.0})
    ctl._drive_ratelimit(sig)  # one fails score, the other the rate floor
    assert ctl.buckets == {}


def test_ratelimit_gate_drops_at_demux():
    bed = _booted()
    ctl = _controller(bed)
    ctl.buckets["10.1.64"] = __import__(
        "repro.defense.ratelimit", fromlist=["TokenBucket"]).TokenBucket(
        1, 1, now=bed.sim.now)
    assert ctl._gate("10.1.64") is True   # burst token
    assert ctl._gate("10.1.64") is False  # exhausted
    assert ctl._gate("10.1.0") is True    # unlimited prefix


def test_ratelimit_releases_after_quiet_scans():
    bed = _booted()
    ctl = _controller(bed)
    ctl._drive_ratelimit(_signals(bed, syn_rates={"10.1.64": 900.0},
                                  syn_scores={"10.1.64": 50.0}))
    quiet = _signals(bed, syn_rates={"10.1.64": 0.0}, syn_scores={})
    for _ in range(ctl.LIMIT_RELEASE_SCANS - 1):
        ctl._drive_ratelimit(quiet)
    assert "10.1.64" in ctl.buckets
    ctl._drive_ratelimit(quiet)
    assert ctl.buckets == {}
    assert not ctl.rung_active["ratelimit"]
    assert [a.rung for a in ctl.deescalations()] == ["ratelimit"]


def test_ratelimit_still_loud_is_not_released():
    bed = _booted()
    ctl = _controller(bed)
    ctl._drive_ratelimit(_signals(bed, syn_rates={"10.1.64": 900.0},
                                  syn_scores={"10.1.64": 50.0}))
    loud = _signals(bed, syn_rates={"10.1.64": 900.0}, syn_scores={})
    for _ in range(ctl.LIMIT_RELEASE_SCANS + 2):
        ctl._drive_ratelimit(loud)
    assert "10.1.64" in ctl.buckets


# ----------------------------------------------------------------------
# Rung 2: SYN cookies
# ----------------------------------------------------------------------
def test_syncookies_escalate_and_release_with_hysteresis():
    bed = _booted()
    ctl = _controller(bed)
    tcp = bed.server.tcp
    ctl._drive_syncookies(_signals(bed, half_open=ctl.HALFOPEN_ON - 1))
    assert not tcp.syncookies
    ctl._drive_syncookies(_signals(bed, half_open=ctl.HALFOPEN_ON))
    assert tcp.syncookies
    # Between the watermarks: stays on (hysteresis).
    ctl._drive_syncookies(_signals(bed, half_open=ctl.HALFOPEN_OFF + 1))
    assert tcp.syncookies
    for _ in range(ctl.COOKIE_RELEASE_SCANS):
        ctl._drive_syncookies(_signals(bed, half_open=ctl.HALFOPEN_OFF))
    assert not tcp.syncookies
    assert tcp._cookie_armed  # in-flight cookie ACKs still accepted


def test_syncookie_handshake_end_to_end():
    bed = _booted(policies=[SynFloodPolicy(TRUSTED_SUBNET)])
    bed.add_clients(2, document="/doc-1k")
    bed.server.tcp.set_syncookies(True)
    bed.start_load()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.5))
    tcp = bed.server.tcp
    assert tcp.syncookies_sent > 0
    assert tcp.syncookies_accepted > 0
    # Clients complete real requests over cookie-reconstructed paths...
    assert bed.stats.total("client") > 50
    assert bed.stats.failures.get("client", 0) == 0
    # ...and no half-open state accumulates while stateless.
    assert tcp.half_open() <= 2


# ----------------------------------------------------------------------
# Rung 3: quota tightening
# ----------------------------------------------------------------------
def test_quota_tightens_on_traps_and_relaxes():
    bed = _booted()
    ctl = _controller(bed)
    tcp = bed.server.tcp
    saved_quota = tcp.active_path_quota
    ctl._drive_quota(_signals(bed, trap_delta=1))
    assert ctl.rung_active["quota"]
    assert bed.server.kernel.quotas.mode == "throttle"
    assert tcp.active_path_quota is TIGHT_QUOTA
    for _ in range(ctl.QUOTA_RELEASE_SCANS):
        ctl._drive_quota(_signals(bed, trap_delta=0))
    assert not ctl.rung_active["quota"]
    assert bed.server.kernel.quotas.mode == "kill"
    assert tcp.active_path_quota is saved_quota
    kinds = [(a.kind, a.rung) for a in ctl.log]
    assert ("escalate", "quota") in kinds
    assert ("deescalate", "quota") in kinds


def test_quota_runtime_limit_halves_and_restores():
    bed = _booted(policies=[RunawayPolicy(2.0)])
    ctl = _controller(bed)
    tcp = bed.server.tcp
    assert tcp.active_path_runtime_limit == 600_000
    ctl._drive_quota(_signals(bed, trap_delta=1))
    assert tcp.active_path_runtime_limit == 300_000
    for _ in range(ctl.QUOTA_RELEASE_SCANS):
        ctl._drive_quota(_signals(bed, trap_delta=0))
    assert tcp.active_path_runtime_limit == 600_000


# ----------------------------------------------------------------------
# Rung 4: graceful degradation
# ----------------------------------------------------------------------
def test_degrade_climbs_tiers_under_sustained_pressure():
    bed = _booted()
    ctl = _controller(bed)
    http = bed.server.http
    pressure = _signals(bed, trap_delta=1)
    for _ in range(ctl.DEGRADE_AFTER_SCANS - 1):
        ctl._drive_degrade(pressure)
    assert http.degrade_level == 0  # not sustained yet
    ctl._drive_degrade(pressure)
    assert http.degrade_level == 1
    for _ in range(ctl.DEGRADE_AFTER_SCANS):
        ctl._drive_degrade(pressure)
    assert http.degrade_level == 2
    for _ in range(10):
        ctl._drive_degrade(pressure)
    assert http.degrade_level == 2  # tier 2 is the floor of service


def test_degrade_releases_one_tier_at_a_time():
    bed = _booted()
    ctl = _controller(bed)
    http = bed.server.http
    http.degrade_level = 2
    calm = _signals(bed, trap_delta=0)
    assert calm.free_pages >= ctl.PAGES_OFF
    for _ in range(ctl.DEGRADE_RELEASE_SCANS):
        ctl._drive_degrade(calm)
    assert http.degrade_level == 1
    for _ in range(ctl.DEGRADE_RELEASE_SCANS):
        ctl._drive_degrade(calm)
    assert http.degrade_level == 0
    assert not ctl.rung_active["degrade"]


def test_degrade_holds_while_memory_is_scarce():
    bed = _booted()
    ctl = _controller(bed)
    http = bed.server.http
    http.degrade_level = 1
    scarce = _signals(bed, trap_delta=0)
    scarce.free_pages = ctl.PAGES_OFF - 1
    for _ in range(ctl.DEGRADE_RELEASE_SCANS + 2):
        ctl._drive_degrade(scarce)
    assert http.degrade_level == 1


# ----------------------------------------------------------------------
# Watchdog absorption (the rung between rollback and pathKill)
# ----------------------------------------------------------------------
def _live_path(bed):
    """Run the sim until a live connection path exists, in small steps
    (connections are short-lived; a big step could race past them all)."""
    deadline = bed.sim.now + seconds_to_ticks(0.5)
    while bed.sim.now < deadline:
        bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.001))
        for path in bed.server.tcp.conn_table.values():
            if not path.destroyed:
                return path
    raise AssertionError("no live connection path appeared")


def test_absorb_throttles_instead_of_killing():
    bed = _booted()
    ctl = _controller(bed)
    bed.add_clients(1, document="/doc-1k")
    bed.start_load()
    path = _live_path(bed)
    pass_before = path.sched.stride_pass
    assert ctl.absorb(path) is True
    assert ctl.absorbed == 1
    assert not path.destroyed
    # Throttling pushes the owner's stride pass into the future so it
    # yields the CPU to everyone else for a while.
    assert path.sched.stride_pass > pass_before
    assert path.policy_state.get("throttled")
    # A repeat offender is not absorbed twice: the watchdog escalates.
    assert ctl.absorb(path) is False


def test_watchdog_try_defend_respects_escalation_threshold():
    from repro.chaos.watchdog import Watchdog
    bed = _booted()
    ctl = _controller(bed)
    watchdog = Watchdog(bed.server.kernel)
    watchdog.attach_defense(ctl)
    bed.add_clients(1, document="/doc-1k")
    bed.start_load()
    path = _live_path(bed)
    # Repeat offenders (offenses >= ESCALATE_AFTER) go straight to kill.
    assert watchdog._try_defend(path, Watchdog.ESCALATE_AFTER) is False
    assert watchdog._try_defend(path, 1) is True
    assert path.policy_state.get("throttled")


def test_watchdog_without_defense_controller_defends_nothing():
    from repro.chaos.watchdog import Watchdog
    bed = _booted()
    watchdog = Watchdog(bed.server.kernel)
    assert watchdog._try_defend(bed.server.kernel.kernel_owner, 0) is False


# ----------------------------------------------------------------------
# AdaptivePolicy wrapper
# ----------------------------------------------------------------------
def test_adaptive_policy_merges_listen_specs_and_wires_controller():
    inner = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=16)
    policy = AdaptivePolicy(inner)
    # listen_specs() builds fresh objects; the wrapper must pass through
    # the same number of specs (trusted + untrusted passive paths).
    assert len(policy.listen_specs()) == len(inner.listen_specs()) == 2
    bed = Testbed.escort(accounting=True, policies=[policy])
    bed.server.boot()
    bed.sim.run(until=seconds_to_ticks(0.02))
    assert policy.controller is not None
    assert bed.server.defense is policy.controller
    assert bed.server.tcp.syn_gate is not None
    assert "SynFloodPolicy" in policy.describe() or \
        "trusted" in policy.describe()


def test_adaptive_policy_wraps_nothing_gracefully():
    policy = AdaptivePolicy()
    assert policy.listen_specs() is None
    assert "none" in policy.describe()


def test_controller_scan_loop_charges_kernel_and_repeats():
    bed = _booted()
    ctl = _controller(bed)
    ctl.start()
    period = seconds_to_ticks(ctl.PERIOD_S)
    bed.sim.run(until=bed.sim.now + 10 * period)
    assert ctl.scans >= 8
    ctl.stop()
    scans = ctl.scans
    bed.sim.run(until=bed.sim.now + 5 * period)
    assert ctl.scans == scans  # stop() really stops the loop
