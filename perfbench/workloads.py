"""The benchmark's workloads, built through the public replayable run kinds.

Each workload is a function of ``(seed, scale)`` that returns a built
:class:`~repro.snapshot.driver.RunDriver` and whether the run takes the
durable path; :func:`build` then attaches a :class:`Durable` holding the
durable-path extras (journal, obs sidecar, checkpoints).  ``scale`` shrinks
every simulated length for the smoke tests; the recorded expected results
hold for ``scale=1`` only.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

#: Host-time slices are this many simulated seconds each.
SLICE_S = 0.01

#: defense-durable checkpoints once per this many slices (~30 per run).
CHECKPOINT_EVERY_SLICES = 10


def _reseed_clients(run, seed: int) -> None:
    """Seed each client's RNG from ``(ip, seed)``, the idiom of
    ``DefenseRun.build``; ``ExperimentRun`` has no seed field of its own."""
    for client in run.bed.clients:
        client.rng.seed(f"{client.ip}/{seed}")


class Durable:
    """The durable-path extras attached to one driver, and their cleanup."""

    def __init__(self, driver, workdir: Optional[str]):
        self.driver = driver
        self.workdir = workdir
        self.journal = None
        self.obs = None
        self.checkpoints = 0

    def attach(self) -> None:
        from repro.obs import attach_obs
        from repro.snapshot import RunJournal

        self.journal = RunJournal(os.path.join(self.workdir, "run.jrnl"),
                                  spec=self.driver.run.spec())
        self.driver.journal = self.journal
        self.obs = attach_obs(self.driver, os.path.join(self.workdir, "obs"))

    def after_slice(self, index: int) -> None:
        if self.journal is not None \
                and (index + 1) % CHECKPOINT_EVERY_SLICES == 0:
            self.driver.checkpoint(os.path.join(self.workdir, "run.ckpt"))
            self.checkpoints += 1

    def close(self) -> None:
        try:
            if self.obs is not None:
                self.obs.finish()
            if self.journal is not None:
                self.journal.close()
        finally:
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)


def fig9_flood(seed: int, scale: float):
    """Figure 9's cell: 8 clients on /doc-1k under a 4000 SYN/s
    untrusted-subnet flood capped at 8 half-open paths, bare driver."""
    from repro.snapshot import ExperimentRun, RunDriver

    run = ExperimentRun("accounting", clients=8, document="/doc-1k",
                        syn_rate=4000, untrusted_cap=8,
                        warmup_s=1.0 * scale, measure_s=2.0 * scale)
    driver = RunDriver(run)
    _reseed_clients(run, seed)
    return driver, False


def defense_durable(seed: int, scale: float):
    """Ramping trusted-subnet SYN flood plus 8 runaway CGIs against the
    adaptive defense, driven with a journal, obs sidecar and checkpoints."""
    from repro.defense.run import DefenseRun
    from repro.snapshot import RunDriver

    run = DefenseRun("mixed", adaptive=True, seed=seed,
                     warmup_s=0.5 * scale, measure_s=2.5 * scale,
                     syn_ramp_s=1.5 * scale)
    return RunDriver(run), True


def cluster_failover(seed: int, scale: float):
    """Three replicas serving /doc-10k with client retries; replica 0
    crashes mid-window and restarts.  No attack traffic at all."""
    from repro.cluster.run import ClusterRun
    from repro.snapshot import RunDriver

    run = ClusterRun("crash", replicas=3, document="/doc-10k", syn_rate=0,
                     seed=seed, warmup_s=0.5 * scale, measure_s=2.5 * scale,
                     chaos_at_s=0.5 * scale, chaos_restore_s=1.7 * scale)
    return RunDriver(run), False


WORKLOADS: Dict[str, Callable[[int, float], Tuple[object, bool]]] = {
    "fig9-flood": fig9_flood,
    "defense-durable": defense_durable,
    "cluster-failover": cluster_failover,
}


def build(name: str, seed: int, scale: float, work_root: str):
    """Build workload ``name``; returns ``(driver, durable)``."""
    driver, durable_path = WORKLOADS[name](seed, scale)
    workdir = None
    if durable_path:
        os.makedirs(work_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    durable = Durable(driver, workdir)
    if durable_path:
        durable.attach()
    return driver, durable


def servers(run) -> List[object]:
    """Every simulated server of a built run (one per cluster replica)."""
    replicas = getattr(run.bed, "replicas", None)
    if replicas:
        return [r.server for r in replicas]
    return [run.bed.server]


def kernels(run) -> List[object]:
    return [server.kernel for server in servers(run)]
