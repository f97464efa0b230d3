"""The module graph (paper section 2.1, Figure 1).

Nodes are the modules configured into the system; edges are the legal
communication channels between them.  The graph is fixed at configuration
(build) time — this is itself a security mechanism, the paper's second
enforcement level: "the module graph ... limits information flow between
protection domains to those channels".

Each module is placed at an integer *position* along the main I/O chain
(network end = low, disk end = high); paths sort their stages by position.
Positions are spaced out so filters can be configured between any two
modules.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.kernel.errors import InvalidOperationError
from repro.modules.base import Module


class ModuleGraph:
    """Typed module graph with boot support."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._modules: Dict[str, Module] = {}
        self._positions: Dict[str, int] = {}
        self._edges: Set[Tuple[str, str]] = set()
        self.booted = False

    # ------------------------------------------------------------------
    # Configuration time
    # ------------------------------------------------------------------
    def add(self, module: Module, position: int) -> Module:
        if module.name in self._modules:
            raise InvalidOperationError(
                f"duplicate module name: {module.name}")
        self._modules[module.name] = module
        self._positions[module.name] = position
        module.graph = self
        return module

    def connect(self, a: str, b: str, interface: str = "aio") -> None:
        """Add an edge; both modules must support the interface type.

        "Two modules can be connected by an edge if they support a common
        service interface.  These interfaces are typed and enforced."
        """
        ma, mb = self.find(a), self.find(b)
        if interface not in ma.interfaces:
            raise InvalidOperationError(
                f"{a} does not support interface {interface!r}")
        if interface not in mb.interfaces:
            raise InvalidOperationError(
                f"{b} does not support interface {interface!r}")
        self._edges.add((a, b))
        self._edges.add((b, a))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, name: str) -> Module:
        try:
            return self._modules[name]
        except KeyError:
            raise KeyError(f"no module named {name!r} in the graph") from None

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def position(self, name: str) -> int:
        return self._positions[name]

    def neighbors(self, name: str) -> List[str]:
        self.find(name)
        out = [b for (a, b) in self._edges if a == name]
        out.sort(key=lambda n: self._positions[n])
        return out

    def connected(self, a: str, b: str) -> bool:
        return (a, b) in self._edges

    def modules(self) -> List[Module]:
        return [self._modules[n]
                for n in sorted(self._modules, key=self._positions.get)]

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Initialize every module: the kernel switches to the module's
        protection domain and calls its init function."""
        if self.booted:
            raise InvalidOperationError("graph already booted")
        self.booted = True
        for module in self.modules():
            self.kernel.spawn_thread(module.pd, module.init_module(),
                                     name=f"init-{module.name}")
