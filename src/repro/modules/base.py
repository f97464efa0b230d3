"""The module abstraction.

A Scout module contributes five things:

* ``init_module`` — run once at boot, in the module's protection domain,
  to set up global state and create any initial paths;
* ``open`` — called by ``pathCreate`` to contribute a stage to a new path
  and name the adjacent modules the path extends to;
* ``demux`` — the side-effect-free classifier for incoming data;
* ``forward`` / ``backward`` — per-stage data processing, written as
  generators that yield :class:`~repro.sim.cpu.Cycles` for the work they
  do (this is where the cost model meets the protocol code);
* ``destroy_stage`` — cleanup on graceful ``pathDestroy``.

Modules are deliberately ignorant of protection-domain placement: whether a
boundary sits between two modules is a configuration decision, and the
crossing costs are inserted by the Stage helpers, "allowing the system
builder to draw protection boundaries between modules as needed".
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional, TYPE_CHECKING

from repro.core.demux import DemuxResult
from repro.core.path import Path, Stage
from repro.kernel.errors import InvalidOperationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.attributes import Attributes
    from repro.kernel.domain import ProtectionDomain
    from repro.kernel.kernel import Kernel


class OpenResult:
    """What a module's ``open`` returns: its stage and where to extend."""

    __slots__ = ("stage", "extend_to")

    def __init__(self, stage: Stage, extend_to: Iterable[str] = ()):
        self.stage = stage
        self.extend_to = tuple(extend_to)


class Module:
    """Base class for all Scout modules."""

    #: Service interfaces this module speaks; edges require a common one.
    interfaces = frozenset({"aio"})

    def __init__(self, kernel: "Kernel", name: str,
                 pd: "ProtectionDomain"):
        self.kernel = kernel
        self.name = name
        self.pd = pd
        pd.module_names.append(name)
        self.graph = None  # set by ModuleGraph.add
        # The cost table is immutable for a kernel's lifetime; binding it
        # here turns the per-packet ``self.costs`` chains in forward/
        # backward/demux into a single attribute load.
        self.costs = kernel.costs

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def acct(self, ops: int = 1) -> int:
        return self.kernel.acct(ops)

    def make_stage(self, path: Path) -> Stage:
        return Stage(self, path)

    # ------------------------------------------------------------------
    # Lifecycle hooks (overridden by concrete modules)
    # ------------------------------------------------------------------
    def init_module(self) -> Generator:
        """Boot-time initialization; runs as a thread in this module's
        domain.  Default: nothing."""
        return
        yield  # pragma: no cover - makes this a generator

    def open(self, path: Path, attrs: "Attributes",
             origin: Optional["Module"]) -> Optional[OpenResult]:
        """Contribute a stage to a path being created.

        Default: a plain stage extending toward every graph neighbour not
        yet visited on the side away from ``origin``.  Concrete modules
        override to specialize (listeners, connections, invariants).
        Returning ``None`` rejects the path.
        """
        stage = self.make_stage(path)
        extend = [n for n in self.graph.neighbors(self.name)
                  if origin is None or n != origin.name]
        return OpenResult(stage, extend)

    def attach(self, stage: Stage) -> None:
        """Called after the path is fully assembled and ordered."""

    def demux(self, view: Any) -> DemuxResult:
        """Classify incoming data.  Default: reject."""
        return DemuxResult.drop(f"{self.name}: no demux")

    def forward(self, stage: Stage, msg: Any) -> Generator:
        """Process data moving toward the disk end.  Default: pass along."""
        result = yield from stage.send_forward(msg)
        return result

    def backward(self, stage: Stage, msg: Any) -> Generator:
        """Process data moving toward the network end.  Default: pass."""
        result = yield from stage.send_backward(msg)
        return result

    def handle_call(self, stage: Stage, request: Any) -> Generator:
        """Serve a synchronous request from an adjacent stage."""
        raise InvalidOperationError(
            f"{self.name} does not serve calls")
        yield  # pragma: no cover

    def destroy_stage(self, stage: Stage) -> None:
        """Graceful per-stage cleanup (pathDestroy only)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name} pd={self.pd.name}>"
