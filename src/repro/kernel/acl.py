"""Role-based access control (policy enforcement level 1).

"A conventional role-based access control list is used to guard the kernel
against unauthorized access.  The role is determined by the owner of the
thread and the current protection domain" (paper section 2.5).

Roles are named capability sets; the ACL maps (owner type, protection
domain) to a role.  Kernel entry points consult :meth:`AccessControlList.check`
before performing privileged operations.  The default policy is permissive
for the privileged domain and grants ordinary domains the operations the
web-server configuration needs, which mirrors how Escort ships with a
representative (not bullet-proof) policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.kernel.domain import ProtectionDomain
from repro.kernel.errors import PermissionError_
from repro.kernel.owner import Owner, OwnerType

#: The kernel operations that can be guarded.
KERNEL_OPERATIONS = frozenset({
    "path_create", "path_destroy", "path_kill",
    "iobuf_alloc", "iobuf_lock", "iobuf_unlock", "iobuf_associate",
    "thread_spawn", "thread_handoff", "thread_stop", "thread_yield",
    "event_create", "event_cancel",
    "semaphore_create", "semaphore_destroy",
    "page_alloc", "page_free",
    "device_access", "console_write",
    "set_policy",
})


@dataclass(frozen=True)
class Role:
    """A named set of permitted kernel operations."""

    name: str
    operations: FrozenSet[str]

    def permits(self, op: str) -> bool:
        return op in self.operations

    @staticmethod
    def privileged() -> "Role":
        return Role("privileged", KERNEL_OPERATIONS)

    @staticmethod
    def module() -> "Role":
        """What an ordinary (untrusted) module domain may do."""
        return Role("module", frozenset(KERNEL_OPERATIONS - {
            "set_policy", "path_kill", "device_access"}))

    @staticmethod
    def driver() -> "Role":
        """A device-driver domain: module rights plus device access."""
        return Role("driver", frozenset(
            (KERNEL_OPERATIONS - {"set_policy", "path_kill"})))


class AccessControlList:
    """Maps (owner, current protection domain) to a role and checks ops."""

    def __init__(self) -> None:
        self._domain_roles: Dict[ProtectionDomain, Role] = {}
        self._default = Role.module()
        self.denials = 0

    def assign(self, domain: ProtectionDomain, role: Role) -> None:
        self._domain_roles[domain] = role

    def role_for(self, owner: Optional[Owner],
                 domain: Optional[ProtectionDomain]) -> Role:
        """Resolve the effective role.

        The kernel pseudo-owner and privileged domains get the privileged
        role; otherwise the domain's assigned role (or the module default).
        """
        if owner is not None and owner.type == OwnerType.KERNEL:
            return Role.privileged()
        if domain is not None:
            if domain.privileged:
                return Role.privileged()
            assigned = self._domain_roles.get(domain)
            if assigned is not None:
                return assigned
        return self._default

    def check(self, op: str, owner: Optional[Owner],
              domain: Optional[ProtectionDomain]) -> None:
        """Raise :class:`PermissionError_` unless the role permits ``op``."""
        if op not in KERNEL_OPERATIONS:
            raise ValueError(f"unknown kernel operation: {op}")
        role = self.role_for(owner, domain)
        if not role.permits(op):
            self.denials += 1
            who = owner.name if owner else "?"
            where = domain.name if domain else "?"
            raise PermissionError_(
                f"ACL: role {role.name} denies {op} "
                f"(owner={who}, domain={where})")
