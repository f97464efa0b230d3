"""End-to-end chaos scenarios: teardown under fault, across seeds.

The acceptance bar from the chaos subsystem's design: every canned
scenario, across at least five seeds, must end with (a) zero invariant
violations, (b) at least one full watchdog detect → kill → recover cycle,
and (c) the server still answering fresh well-behaved requests.

The full 3×5 matrix is marked ``chaos`` (deselect with ``-m 'not
chaos'``); one representative run stays unmarked as the tier-1 smoke.
"""

import pytest

from repro.chaos import SCENARIOS, list_scenarios, run_scenario

SEEDS = [1, 2, 3, 4, 5]


def assert_survived(report):
    assert report.violations == [], report.summary()
    assert report.recovery_cycle, report.summary()
    assert report.service_alive, report.summary()
    assert report.completions_after > 0, report.summary()
    assert report.ok


def test_smoke_domain_crash_seed1():
    # Fast unmarked representative: the crashed HTTP domain is rebuilt
    # and the probe clients complete against the revived listener.
    report = run_scenario("domain-crash", seed=1)
    assert_survived(report)
    assert report.faults_injected.get("domain-crash") == 1
    assert any(a.subject == "service" and a.kind == "recover"
               for a in report.watchdog_log)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_survives(name, seed):
    assert_survived(run_scenario(name, seed))


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [11, 22, 33])
def test_random_schedules_never_break_invariants(seed):
    # Property-style: not a canned scenario but a fully random fault
    # schedule over every kind, thrown at the full webserver stack.
    # Whatever happens, the conservation invariants must hold.
    from repro.sim.clock import seconds_to_ticks
    from repro.experiments.harness import Testbed
    from repro.chaos import (ChaosInjector, FaultSchedule,
                             InvariantChecker, Watchdog)

    bed = Testbed.escort(protection_domains=True)
    bed.add_clients(3)
    server = bed.server
    server.boot()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.01))
    for client in bed.clients:
        client.start()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.2))

    watchdog = Watchdog(server.kernel)
    watchdog.start()
    checker = InvariantChecker(server.kernel)
    checker.start(period_s=0.02)
    schedule = FaultSchedule.random(seed, duration_s=0.6,
                                    rate_per_second=5.0,
                                    crash_targets=("pd-fs",))
    chaos = ChaosInjector(server, schedule)
    chaos.arm()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.8))
    chaos.disarm()
    bed.sim.run(until=bed.sim.now + seconds_to_ticks(0.2))

    checker.check_now()
    assert checker.ok, checker.report()
    assert sum(chaos.injected.values()) > 0
    assert server.kernel.uncontained_faults == 0


@pytest.mark.chaos
def test_scenarios_are_deterministic():
    a = run_scenario("domain-crash", seed=3)
    b = run_scenario("domain-crash", seed=3)
    assert a.faults_injected == b.faults_injected
    assert a.completions_after == b.completions_after
    assert [(x.kind, x.subject) for x in a.watchdog_log] == \
        [(x.kind, x.subject) for x in b.watchdog_log]


@pytest.mark.chaos
def test_oom_cgi_exercises_shedding():
    # The page-pressure ballast must drive the saturation shedder.
    report = run_scenario("oom-cgi", seed=1)
    assert report.sheds > 0
    assert any(a.kind == "shed-on" for a in report.watchdog_log)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("no-such-scenario")


def test_listing_matches_registry():
    listed = dict(list_scenarios())
    assert set(listed) == set(SCENARIOS)
    assert all(desc for desc in listed.values())


def test_cli_list_and_unknown(capsys):
    from repro.__main__ import main
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    assert main(["chaos", "--scenario", "bogus"]) == 2


@pytest.mark.chaos
def test_cli_runs_one_scenario(capsys):
    from repro.__main__ import main
    assert main(["chaos", "--scenario", "domain-crash", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] domain-crash seed=2" in out
