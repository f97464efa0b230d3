"""Incremental packet demultiplexing (paper section 2.2).

When data arrives on a device the kernel identifies the owning path by
invoking a ``demux`` function on a sequence of modules.  Each module's demux
has three choices: (1) pass the decision to an adjacent module, (2) reject
and drop the data, or (3) return a unique path.  Demux functions are
side-effect free; all state changes happen later, on the path's own thread.

The cost of demultiplexing is central to two results in the paper:

* the SYN-flood policy is effective because floods are "identified as such
  as early as possible and dropped instantly" — i.e. at demux time, before
  any path resources are spent;
* Figure 9's larger slowdown for Accounting_PD comes from TLB misses during
  demux, because each crossing invalidates the whole TLB.

:meth:`Demultiplexer.classify` therefore reports both the outcome and the
cost: modules consulted and domain switches made.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.path import Path
    from repro.kernel.kernel import Kernel
    from repro.modules.base import Module

CONTINUE = "continue"
DROP = "drop"
TO_PATH = "path"


class DemuxResult:
    """What one module's demux function decided."""

    __slots__ = ("kind", "next_module", "view", "path", "reason")

    def __init__(self, kind: str, next_module: Optional[str] = None,
                 view: Any = None, path: Optional["Path"] = None,
                 reason: str = ""):
        self.kind = kind
        self.next_module = next_module
        self.view = view
        self.path = path
        self.reason = reason

    @staticmethod
    def forward(next_module: str, view: Any) -> "DemuxResult":
        return DemuxResult(CONTINUE, next_module=next_module, view=view)

    @staticmethod
    def to_path(path: "Path") -> "DemuxResult":
        return DemuxResult(TO_PATH, path=path)

    @staticmethod
    def drop(reason: str) -> "DemuxResult":
        return DemuxResult(DROP, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DemuxResult(kind={self.kind!r}, "
                f"next_module={self.next_module!r}, path={self.path!r}, "
                f"reason={self.reason!r})")


class Classification:
    """Outcome plus cost information for one incoming packet."""

    __slots__ = ("kind", "path", "reason", "view", "modules_consulted",
                 "domain_switches")

    def __init__(self, kind: str, path: Optional["Path"] = None,
                 reason: str = "", view: Any = None,
                 modules_consulted: int = 0, domain_switches: int = 0):
        self.kind = kind
        self.path = path
        self.reason = reason
        #: The packet view as seen by the final module (handed to the path).
        self.view = view
        self.modules_consulted = modules_consulted
        self.domain_switches = domain_switches

    def demux_cycles(self, kernel: "Kernel") -> int:
        """Cycle cost of this classification under ``kernel``'s config."""
        costs = kernel.costs
        cycles = self.modules_consulted * costs.demux_per_module
        if kernel.pd_enabled:
            cycles += self.domain_switches * costs.demux_pd_penalty
        if self.kind == DROP:
            cycles += costs.demux_drop
        return cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Classification(kind={self.kind!r}, path={self.path!r}, "
                f"reason={self.reason!r}, "
                f"modules_consulted={self.modules_consulted}, "
                f"domain_switches={self.domain_switches})")


class Demultiplexer:
    """Walks module demux functions to classify a packet."""

    def __init__(self, kernel: "Kernel", graph):
        self.kernel = kernel
        self.graph = graph
        self.max_hops = 16  # defensive bound against demux cycles

    def classify(self, first_module: "Module", packet: Any) -> Classification:
        """Identify the path for ``packet`` starting at ``first_module``.

        Side-effect free, like the demux functions it calls.
        """
        module = first_module
        view = packet
        consulted = 0
        switches = 0
        prev_pd = None
        find = self.graph.find
        for _ in range(self.max_hops):
            consulted += 1
            pd = module.pd
            if prev_pd is not None and pd is not prev_pd:
                switches += 1
            prev_pd = pd
            result = module.demux(view)
            kind = result.kind
            if kind == CONTINUE:
                module = find(result.next_module)
                view = result.view
                continue
            if kind == TO_PATH:
                path = result.path
                if path is None or path.destroyed:
                    return Classification(DROP, reason="dead-path",
                                          modules_consulted=consulted,
                                          domain_switches=switches)
                return Classification(TO_PATH, path=path, view=view,
                                      modules_consulted=consulted,
                                      domain_switches=switches)
            return Classification(DROP, reason=result.reason or "reject",
                                  modules_consulted=consulted,
                                  domain_switches=switches)
        return Classification(DROP, reason="demux-loop",
                              modules_consulted=consulted,
                              domain_switches=switches)
