"""Path lifecycle: pathCreate, pathDestroy, pathKill (paper section 2.2).

``pathCreate`` establishes a path incrementally: the kernel invokes ``open``
on the starting module, which names the adjacent modules the path extends
to, and so on.  ``pathDestroy`` invokes each module's destroy function in
initialization order before freeing resources; ``pathKill`` frees all the
path's resources *without* invoking the destroy functions — it is the
containment primitive whose cost Table 2 measures.

All three are generators: they run on a thread and charge their cycle costs
to the path being created or torn down.
"""

from __future__ import annotations

from typing import Generator, List, TYPE_CHECKING

from repro.sim.cpu import Cycles, Sleep
from repro.kernel.errors import EscortError, InvalidOperationError
from repro.core.attributes import Attributes
from repro.core.path import FORWARD, Path, PathWork, Q_NET_IN, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel, KillReport
    from repro.modules.base import Module
    from repro.modules.graph import ModuleGraph


#: Every path's inbound queue capacity and its thread-pool size.
PATH_QUEUE_CAPACITY = 64
PATH_POOL_SIZE = 1


class PathCreateError(EscortError):
    """A module rejected the path during creation."""


def default_work_handler(work: PathWork) -> Generator:
    """Run one unit of path work: dispatch to the entry stage's module."""
    if work.direction == FORWARD:
        result = yield from work.stage.module.forward(work.stage, work.msg)
    else:
        result = yield from work.stage.module.backward(work.stage, work.msg)
    return result


class PathManager:
    """Implements the path lifecycle against a module graph."""

    def __init__(self, kernel: "Kernel", graph: "ModuleGraph"):
        self.kernel = kernel
        self.graph = graph
        self.paths_created = 0
        self.paths_destroyed = 0
        self.paths_killed = 0
        self.paths_rejected = 0  # admission-control rejections
        #: Live paths in creation order.  The snapshot subsystem walks this
        #: to digest per-path accounting; entries remove themselves on
        #: destruction so long runs do not accumulate dead Path objects.
        self.paths: List[Path] = []

    # ------------------------------------------------------------------
    # pathCreate
    # ------------------------------------------------------------------
    def path_create(self, attrs: Attributes, start_module: str,
                    name: str = "") -> Generator:
        """Thread-body helper: ``path = yield from mgr.path_create(...)``.

        Costs are charged to the new path itself — it is the principal the
        work is for.  On module rejection, everything allocated so far is
        reclaimed and :class:`PathCreateError` is raised.
        """
        kernel = self.kernel
        start = self.graph.find(start_module)
        current = kernel.current_thread
        current_owner = current.owner if current is not None else None
        kernel.acl.check("path_create", current_owner, start.pd)

        # Admission control: a saturated kernel sheds new work here, before
        # anything is allocated — rejecting a connection costs almost
        # nothing, admitting one it cannot finish costs a full teardown.
        # Listening paths are server configuration, not admitted work.
        if not attrs.get("listen") and not kernel.admit_path():
            self.paths_rejected += 1
            raise PathCreateError(
                f"admission control: kernel shedding load ({name or 'path'})")

        self.paths_created += 1
        path = Path(kernel, name=name or f"path-{self.paths_created}")
        self.paths.append(path)
        path.on_destroy(self._forget_path)
        path.attributes = attrs
        yield Cycles(kernel.costs.path_create_kernel + kernel.acct(4),
                     owner=path)
        try:
            stages = yield from self._open_modules(path, attrs, start)
        except EscortError:
            self._reclaim_partial(path)
            raise
        self._assemble(path, stages)

        queue = kernel.create_queue(PATH_QUEUE_CAPACITY,
                                    name=f"{path.name}-in")
        path.queues[Q_NET_IN] = queue
        from repro.kernel.threads import ThreadPool  # local: avoid cycle
        path.pool = ThreadPool(kernel, path, queue, default_work_handler,
                               size=PATH_POOL_SIZE,
                               stack_domains=len(path.domains_crossed()),
                               name=f"{path.name}-pool")
        for stage in path.stages:
            stage.module.attach(stage)
        return path

    def _open_modules(self, path: Path, attrs: Attributes,
                      start: "Module") -> Generator:
        """Incrementally call ``open`` along the graph; returns stages."""
        kernel = self.kernel
        stages: List[Stage] = []
        seen = set()
        frontier: List[tuple] = [(start, None)]
        while frontier:
            module, origin = frontier.pop(0)
            if module.name in seen:
                continue
            seen.add(module.name)
            if origin is not None:
                # The kernel switches into the module's domain to call its
                # open function.
                cost = kernel.crossing_cost(origin.pd, module.pd)
                if cost:
                    yield Cycles(cost, owner=path)
            yield Cycles(kernel.costs.module_open + kernel.acct(1),
                         owner=path)
            result = module.open(path, attrs, origin)
            if result is None:
                raise PathCreateError(
                    f"{module.name} rejected path {path.name}")
            stages.append(result.stage)
            for nxt_name in result.extend_to:
                nxt = self.graph.find(nxt_name)
                frontier.append((nxt, module))
        return stages

    def _assemble(self, path: Path, stages: List[Stage]) -> None:
        """Order stages along the graph and build the crossing map."""
        stages.sort(key=lambda s: self.graph.position(s.module.name))
        path.stages = stages
        for i, stage in enumerate(stages):
            stage.index = i
        for a, b in zip(stages, stages[1:]):
            path.allow_crossing(a.module.pd, b.module.pd)
            path.allow_crossing(b.module.pd, a.module.pd)
        for pd in path.domains_crossed():
            pd.crossing_paths.add(path)
            path.on_destroy(
                lambda p, pd=pd: pd.crossing_paths.discard(p))

    def _forget_path(self, path: Path) -> None:
        try:
            self.paths.remove(path)
        except ValueError:
            pass

    def _reclaim_partial(self, path: Path) -> None:
        if not path.destroyed:
            self.kernel.kill_owner(path, charge=False, record=False)

    # ------------------------------------------------------------------
    # pathDestroy
    # ------------------------------------------------------------------
    def path_destroy(self, path: Path) -> Generator:
        """Graceful teardown: module destroy functions, then reclamation.

        Waits for the reference count to drain (this is what the refCnt in
        the Path struct delays); ``pathKill`` has no such patience.
        """
        kernel = self.kernel
        if path.destroyed:
            return
        while path.ref_cnt > 0:
            yield Sleep(kernel.costs.softclock_period_ticks)
            if path.destroyed:
                return
        self.paths_destroyed += 1
        prev_pd = None
        for stage in path.stages:
            if path.destroyed:
                return
            cost = kernel.costs.module_destroy + kernel.acct(1)
            if prev_pd is not None:
                cost += kernel.crossing_cost(prev_pd, stage.module.pd)
            prev_pd = stage.module.pd
            yield Cycles(cost, owner=path)
            stage.module.destroy_stage(stage)
        # Module-registered destructor functions: run in the module's
        # domain; typically transfer memory charges back to the domain.
        for _domain, fn in list(path.destructors):
            fn(path)
        if path.pool is not None:
            path.pool.shutdown()
        yield Cycles(kernel.costs.path_teardown_kernel + kernel.acct(4),
                     owner=path)
        if not path.destroyed:
            kernel.kill_owner(path, charge=False, record=False)

    def schedule_destroy(self, path: Path, delay_ticks: int = 0) -> None:
        """Run ``path_destroy`` soon, on a kernel-owned thread.

        Used by modules that decide mid-work that their own path is done
        (e.g. TCP after the final FIN is acknowledged) — a path thread must
        not reclaim itself.
        """
        kernel = self.kernel

        def runner() -> None:
            if path.destroyed:
                return
            kernel.spawn_thread(kernel.kernel_owner,
                                self.path_destroy(path),
                                name=f"destroy-{path.name}")

        kernel.sim.schedule(delay_ticks, runner)

    # ------------------------------------------------------------------
    # pathKill
    # ------------------------------------------------------------------
    def path_kill(self, path: Path) -> "KillReport":
        """Forcible reclamation; never runs module destroy functions."""
        if path.destroyed:
            raise InvalidOperationError(f"{path.name} already destroyed")
        self.paths_killed += 1
        return self.kernel.kill_owner(path)
