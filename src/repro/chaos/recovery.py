"""Graceful-degradation recovery: rebuild what a crash destroyed.

When a protection domain dies — injected chaos, a watchdog teardown, or a
cascade from ``destroy_domain`` — every path crossing it dies too (the
paper's teardown rule), which for the web server means the *listening*
paths are gone: the machine is up but the service is down.  The kernel
deliberately has no undo; what it does have is the same configuration
machinery that built the server at boot.  :class:`DomainRecovery` replays
exactly that: create a fresh domain for each dead one, re-point the
affected modules at it, discard path references that died with the crash,
and re-run the affected modules' ``init_module`` so the listeners (and
TCP's master event) come back.  Connections that died stay dead — clients
retry; what recovers is the *service*.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.sim.clock import ticks_to_seconds
from repro.kernel.acl import Role
from repro.kernel.domain import ProtectionDomain

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.webserver import ScoutWebServer

#: Modules holding device ends of the chain get the driver role back.
DRIVER_MODULES = frozenset({"eth", "scsi"})


class DomainRecovery:
    """Rebuilds crashed protection domains and resurrects the listeners.

    Wire :meth:`probe` / :meth:`revive` into the watchdog's
    ``service_probe`` / ``service_revive`` hooks, or call :meth:`revive`
    directly from a scenario after injecting a domain crash.
    """

    def __init__(self, server: "ScoutWebServer"):
        self.server = server
        self.recoveries = 0
        self.log: List[str] = []

    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """Is the service alive (at least one live listening path)?"""
        return any(not p.destroyed for p in self.server.http.passive_paths)

    # ------------------------------------------------------------------
    def revive(self) -> None:
        """Rebuild dead domains and restart lost module services."""
        server = self.server
        kernel = server.kernel
        self.recoveries += 1

        # 1. One fresh domain per dead one; modules that shared a domain
        #    keep sharing its replacement.
        replacement: Dict[ProtectionDomain, ProtectionDomain] = {}
        for module in server.graph.modules():
            old = module.pd
            if not old.destroyed:
                continue
            if old not in replacement:
                role = (Role.driver() if module.name in DRIVER_MODULES
                        else Role.module())
                replacement[old] = kernel.create_domain(old.name, role=role)
                self._note(f"rebuilt domain {old.name}")
            module.pd = replacement[old]
            module.pd.module_names.append(module.name)

        # 2. Drop references to paths that died with the crash.  (Their
        #    kernel resources were already reclaimed by the kill; these are
        #    just the modules' own bookkeeping lists.)
        http = server.http
        dead_listeners = [p for p in http.passive_paths if p.destroyed]
        http.passive_paths = [p for p in http.passive_paths
                              if not p.destroyed]
        if dead_listeners:
            self._note(f"pruned {len(dead_listeners)} dead listener(s)")

        # 3. Restart lost services on fresh threads in the (possibly new)
        #    module domains.  TCP's master event died if TCP's old domain
        #    did; the listeners died if anything on their chain did.
        tcp = server.tcp
        if tcp.master_event is None or tcp.master_event.cancelled:
            kernel.spawn_thread(tcp.pd, tcp.init_module(),
                                name="recover-tcp")
            self._note("restarted tcp master event")
        if not http.passive_paths:
            kernel.spawn_thread(http.pd, http.init_module(),
                                name="recover-http")
            self._note("recreated listening paths")

    # ------------------------------------------------------------------
    def _note(self, msg: str) -> None:
        self.log.append(
            f"[{ticks_to_seconds(self.server.sim.now):.6f}s] {msg}")
