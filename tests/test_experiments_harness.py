"""Tests for the experiment harness: measurement correctness."""

import pytest

from repro.sim.clock import seconds_to_ticks, ticks_to_server_cycles
from repro.experiments.harness import (
    CycleLedger,
    Testbed,
    TRUSTED_SUBNET,
    UNTRUSTED_SUBNET,
)


def test_by_name_builds_all_four_configs():
    for name, accounting, pds in (
            ("scout", False, False),
            ("accounting", True, False),
            ("accounting_pd", True, True)):
        bed = Testbed.by_name(name)
        cfg = bed.server.kernel.config
        assert cfg.accounting == accounting
        assert cfg.protection_domains == pds
    assert not hasattr(Testbed.by_name("linux").server, "kernel")
    with pytest.raises(ValueError):
        Testbed.by_name("windows")


def test_subnets_are_disjoint():
    for host in TRUSTED_SUBNET.hosts(10):
        assert host not in UNTRUSTED_SUBNET


def test_clients_land_on_the_trusted_subnet():
    bed = Testbed.escort()
    clients = bed.add_clients(3)
    for client in clients:
        assert client.ip in TRUSTED_SUBNET


def test_window_boundaries_and_rate():
    bed = Testbed.escort()
    bed.add_clients(2, document="/doc-1")
    result = bed.run(warmup_s=0.5, measure_s=1.0)
    assert result.window_end - result.window_start \
        == seconds_to_ticks(1.0)
    expected = result.client_completions / 1.0
    assert result.connections_per_second == pytest.approx(expected)


def test_ledger_conserves_cycles():
    """Sum over all owners == wall-clock cycles of the window (the
    simulation-level ground truth behind the paper's 'virtually 100%')."""
    bed = Testbed.escort()
    bed.add_clients(4, document="/doc-1k")
    result = bed.run(warmup_s=0.4, measure_s=1.0)
    total = sum(result.cycles_by_category.values())
    assert total == pytest.approx(result.window_cycles, rel=1e-3)


def test_ledger_category_names():
    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    assert ledger.category(Owner(OwnerType.IDLE, "idle")) == "idle"
    assert ledger.category(Owner(OwnerType.KERNEL, "kernel")) == "kernel"
    path = Owner(OwnerType.PATH, "conn-9")
    assert ledger.category(path) == "active-path"
    passive = Owner(OwnerType.PATH, "passive-trusted")
    assert ledger.category(passive) == "passive-path"
    pd = Owner(OwnerType.PROTECTION_DOMAIN, "pd-tcp")
    assert ledger.category(pd) == "pd:pd-tcp"


def test_ledger_only_records_between_start_stop():
    ledger = CycleLedger()

    class FakeOwner:
        name = "x"

    owner = FakeOwner()
    ledger._on_charge(owner, 100)      # not recording yet
    assert ledger.total() == 0
    ledger.start()
    ledger._on_charge(owner, 50)
    ledger.stop()
    ledger._on_charge(owner, 25)
    assert ledger.total() == 50


def test_multiple_runs_accumulate_windows():
    bed = Testbed.escort()
    bed.add_clients(1, document="/doc-1")
    first = bed.run(warmup_s=0.3, measure_s=0.5)
    second = bed.run(warmup_s=0.0, measure_s=0.5)
    assert second.window_start >= first.window_end


# ----------------------------------------------------------------------
# Fold-on-destroy: the ledger keeps no destroyed owner alive
# ----------------------------------------------------------------------
def _destroy(owner):
    """What ``Kernel.kill_owner`` does to an owner's bookkeeping."""
    owner.destroyed = True
    owner.run_destroy_callbacks()


def test_ledger_keeps_a_destroyed_owners_cycles():
    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    idle, conn = Owner(OwnerType.IDLE), Owner(OwnerType.PATH, "conn-1")
    ledger.start()
    ledger._on_charge(idle, 5)
    ledger._on_charge(conn, 100)
    ledger._on_charge(conn, 20)
    _destroy(conn)
    ledger._on_charge(idle, 5)
    assert conn not in ledger.by_owner
    assert ledger.by_category() == {"idle": 10, "active-path": 120}
    assert ledger.total() == 130


def test_ledger_releases_a_destroyed_owner():
    import gc
    import weakref

    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    ledger.start()
    conn = Owner(OwnerType.PATH, "conn-1")
    ledger._on_charge(conn, 100)
    _destroy(conn)
    ref = weakref.ref(conn)
    del conn
    gc.collect()
    assert ref() is None
    assert ledger.by_category() == {"active-path": 100}


def test_ledger_counts_a_charge_after_destruction():
    """An interrupt posted before the kill lands after it."""
    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    ledger.start()
    early, late = (Owner(OwnerType.PATH, name)
                   for name in ("conn-1", "passive-trusted"))
    ledger._on_charge(early, 100)
    _destroy(early)
    _destroy(late)
    ledger._on_charge(early, 7)
    ledger._on_charge(late, 3)
    assert not ledger.by_owner
    assert ledger.by_category() == {"active-path": 107, "passive-path": 3}
    assert ledger.total() == 110


def test_ledger_second_window_counts_only_itself():
    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    kernel, gone, both = (Owner(OwnerType.KERNEL, "kernel"),
                          Owner(OwnerType.PATH, "conn-1"),
                          Owner(OwnerType.PATH, "conn-2"))
    ledger.start()
    for owner in (kernel, gone, both):
        ledger._on_charge(owner, 100)
    _destroy(gone)
    ledger.stop()
    ledger.start()
    ledger._on_charge(both, 30)
    ledger._on_charge(kernel, 1)
    # ``both`` carries a callback from each window; the first to run
    # folds its second-window tally, the other finds nothing.
    _destroy(both)
    ledger.stop()
    assert ledger.by_category() == {"active-path": 30, "kernel": 1}
    assert ledger.total() == 31


def test_ledger_category_order_is_first_charge_order():
    """``cycles_by_category`` keeps the key order the ledger had when it
    held every owner it charged."""
    from repro.kernel.owner import Owner, OwnerType
    ledger = CycleLedger()
    ledger.start()
    conn, pd, idle = (Owner(OwnerType.PATH, "conn-1"),
                      Owner(OwnerType.PROTECTION_DOMAIN, "pd-tcp"),
                      Owner(OwnerType.IDLE))
    for owner in (conn, pd, idle):
        ledger._on_charge(owner, 1)
    _destroy(conn)
    assert list(ledger.by_category()) == ["active-path", "pd:pd-tcp", "idle"]
