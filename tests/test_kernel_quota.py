"""Tests for resource quotas: the memory-side detection step."""

from repro.kernel.owner import Owner, OwnerType
from repro.kernel.quota import ResourceQuota


def make_owner(name="o"):
    return Owner(OwnerType.PATH, name=name)


# ----------------------------------------------------------------------
# ResourceQuota
# ----------------------------------------------------------------------
def test_quota_violation_detection():
    quota = ResourceQuota(max_pages=2, max_kmem=100)
    owner = make_owner()
    assert quota.violation(owner) is None
    owner.usage.pages = 3
    assert "pages" in quota.violation(owner)
    owner.usage.pages = 1
    owner.usage.kmem = 200
    assert "kmem" in quota.violation(owner)


def test_quota_none_means_unlimited():
    quota = ResourceQuota()
    owner = make_owner()
    owner.usage.pages = 10 ** 6
    owner.usage.kmem = 10 ** 9
    assert quota.violation(owner) is None


def test_quota_checks_all_resource_classes():
    owner = make_owner()
    owner.usage.heap_bytes = 5
    assert "heap" in ResourceQuota(max_heap_bytes=4).violation(owner)
    owner.usage.events = 5
    assert "events" in ResourceQuota(max_events=4).violation(owner)
    owner.usage.semaphores = 5
    assert "semaphores" in ResourceQuota(
        max_semaphores=4).violation(owner)


# ----------------------------------------------------------------------
# QuotaEnforcer
# ----------------------------------------------------------------------
def test_enforcer_kills_violators(kernel):
    owner = make_owner()
    kernel.allocator.alloc(owner, count=5)
    kernel.quotas.set_quota(owner, ResourceQuota(max_pages=4))
    survived = kernel.quotas.check(owner)
    assert not survived
    assert owner.destroyed
    assert kernel.quotas.violations
    assert owner.usage.pages == 0  # containment reclaimed everything


def test_enforcer_spares_compliant_owners(kernel):
    owner = make_owner()
    kernel.allocator.alloc(owner, count=2)
    kernel.quotas.set_quota(owner, ResourceQuota(max_pages=4))
    assert kernel.quotas.check(owner)
    assert not owner.destroyed


def test_enforcer_ignores_unquotaed_owners(kernel):
    owner = make_owner()
    kernel.allocator.alloc(owner, count=100)
    assert kernel.quotas.check(owner)


def test_enforcer_sweep_counts_kills(kernel):
    owners = [make_owner(f"o{i}") for i in range(4)]
    for i, owner in enumerate(owners):
        kernel.allocator.alloc(owner, count=i + 1)
        kernel.quotas.set_quota(owner, ResourceQuota(max_pages=2))
    killed = kernel.quotas.sweep(owners)
    assert killed == 2  # owners with 3 and 4 pages
    assert [o.destroyed for o in owners] == [False, False, True, True]


def test_enforcer_custom_violation_handler(kernel):
    log = []
    kernel.quotas.on_violation = lambda o, r: log.append((o.name, r))
    owner = make_owner("soft")
    owner.usage.kmem = 10
    kernel.quotas.set_quota(owner, ResourceQuota(max_kmem=5))
    kernel.quotas.check(owner)
    assert log and log[0][0] == "soft"
    assert not owner.destroyed  # the soft handler only logged
