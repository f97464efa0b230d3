"""Replayable run specifications.

Whole-machine checkpointing in this codebase cannot serialize the live
object graph: kernel threads are suspended Python generator frames, which
no pure-Python mechanism can persist.  What *is* serializable — and what
the simulator's determinism guarantee makes sufficient — is the run's
**specification**: how to build the machine at t=0 plus a timeline of
named actions (boot, start load, arm chaos, open the measurement window)
at fixed ticks.  Re-executing a spec reproduces the machine bit for bit;
the digest machinery (:mod:`repro.snapshot.digest`) verifies it did.

:class:`ReplayableRun` is the contract: ``spec()`` returns a JSON-able
description, ``build()`` constructs the machine fresh, ``milestones()``
lists ``(tick, action)`` pairs, and ``perform(action)`` executes one.
:class:`ExperimentRun` covers the paper's figure-style measurements (the
Figure-9 SYN-flood cell is one spec); the chaos scenarios provide their
own :class:`~repro.chaos.scenarios.ChaosRun`.

:func:`reset_ids` re-seeds every global object-id counter, so a machine
built in a long-lived process digests identically to one built in a fresh
interpreter — in-process replay, lockstep comparison, and cross-process
restore all depend on it.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks

__all__ = ["ReplayableRun", "ExperimentRun", "reset_ids", "run_from_spec"]

#: Module-init settle time used by every driver-based run (the harness has
#: always waited this long after boot so passive paths exist before SYNs).
SETTLE_S = 0.01


def reset_ids() -> None:
    """Reset every global object-id counter to its boot value.

    Deterministic names and ids (``thread-7``, ``event-12``) come from
    class-level counters; two builds in one process would otherwise number
    their objects differently and digest differently.  Call before
    building any machine that will be digest-compared or checkpointed —
    :class:`~repro.snapshot.driver.RunDriver` does it automatically.
    """
    from repro.sim.cpu import SimThread
    from repro.kernel.owner import Owner
    from repro.kernel.domain import HeapAllocation
    from repro.kernel.memory import Page
    from repro.kernel.iobuffer import IOBuffer
    from repro.kernel.events import KernelEvent, Semaphore

    for cls in (SimThread, Owner, HeapAllocation, Page, IOBuffer,
                KernelEvent, Semaphore):
        cls._next_id = 1


def rng_fingerprint(rng) -> str:
    """Stable fingerprint of a ``random.Random``'s internal state."""
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]


class ReplayableRun:
    """One deterministic run: a build recipe plus a timeline of actions."""

    #: Set by build(); every run drives exactly one testbed.
    bed = None

    # -- the spec contract ---------------------------------------------
    def spec(self) -> Dict:
        """JSON-able description sufficient to rebuild this run."""
        raise NotImplementedError

    def build(self) -> None:
        """Construct the machine at t=0 (idempotence not required)."""
        raise NotImplementedError

    def milestones(self) -> List[Tuple[int, str]]:
        """``(absolute_tick, action_name)`` pairs, sorted by tick."""
        raise NotImplementedError

    def result(self):
        """The run's product, available after the final milestone."""
        raise NotImplementedError

    # -- execution ------------------------------------------------------
    def perform(self, action: str) -> None:
        """Execute one timeline action (dispatches to ``ms_<action>``)."""
        getattr(self, f"ms_{action}")()

    # -- digests --------------------------------------------------------
    def extra_summary(self) -> Dict:
        """Run-level state folded into the machine summary (RNGs etc.)."""
        return {}

    def summary(self) -> Dict:
        from repro.snapshot.digest import machine_summary
        out = machine_summary(self.bed)
        extra = self.extra_summary()
        if extra:
            out["run"] = extra
        return out

    def digest(self) -> str:
        from repro.snapshot.digest import summary_digest
        return summary_digest(self.summary())


def _count(value) -> bool:
    return type(value) is int and value >= 0


#: ``(field, requirement, check)`` rules every :class:`ExperimentRun`
#: passes at construction (``type`` checks keep ``True`` and ``"8"`` out).
_FIELD_RULES = (
    ("clients", "a non-negative int", _count),
    ("syn_rate", "a non-negative int", _count),
    ("cgi_attackers", "a non-negative int", _count),
    ("warmup_s", "a finite number >= 0",
     lambda v: type(v) in (int, float) and 0 <= v < math.inf),
    ("measure_s", "a finite number > 0",
     lambda v: type(v) in (int, float) and 0 < v < math.inf),
)


class ExperimentRun(ReplayableRun):
    """One figure-style measurement cell as a replayable spec.

    Mirrors :meth:`repro.experiments.harness.Testbed.run` exactly —
    boot, settle, start load, warm up, measure — but expressed as fixed-
    tick milestones, so the run can be checkpointed mid-flight and
    restored in a fresh process.  ``config='accounting'`` with a SYN
    attacker is one cell of Figure 9; ``cgi_attackers`` gives Figure 10's
    shape.
    """

    KIND = "experiment"

    def __init__(self, config: str = "accounting", *,
                 clients: int = 4, document: str = "/doc-1k",
                 syn_rate: int = 0, untrusted_cap: Optional[int] = None,
                 cgi_attackers: int = 0, cgi_script: str = "loop",
                 qos: bool = False,
                 warmup_s: float = 1.0, measure_s: float = 5.0):
        self.config = config
        self.clients = clients
        self.document = document
        self.syn_rate = syn_rate
        self.untrusted_cap = untrusted_cap
        self.cgi_attackers = cgi_attackers
        self.cgi_script = cgi_script
        self.qos = qos
        self.warmup_s = warmup_s
        self.measure_s = measure_s
        self.run_result = None
        self._window_start = None
        for name, want, ok in _FIELD_RULES:
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"experiment spec field {name!r} must be "
                                 f"{want}, got {value!r}")

    # ------------------------------------------------------------------
    def spec(self) -> Dict:
        return {
            "run": self.KIND,
            "config": self.config,
            "clients": self.clients,
            "document": self.document,
            "syn_rate": self.syn_rate,
            "untrusted_cap": self.untrusted_cap,
            "cgi_attackers": self.cgi_attackers,
            "cgi_script": self.cgi_script,
            "qos": self.qos,
            "warmup_s": self.warmup_s,
            "measure_s": self.measure_s,
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "ExperimentRun":
        """Rebuild from :meth:`spec` output; every field must be there."""
        fields = {k: v for k, v in spec.items() if k != "run"}
        for name in sorted(set(fields) ^ (set(cls().spec()) - {"run"})):
            raise ValueError(
                f"experiment spec field {name!r} is "
                f"{'unknown' if name in fields else 'missing'}")
        return cls(**fields)

    # ------------------------------------------------------------------
    def build(self) -> None:
        from repro.experiments.harness import TRUSTED_SUBNET, Testbed
        from repro.policy.synflood import SynFloodPolicy

        policies = []
        if self.untrusted_cap is not None:
            policies.append(SynFloodPolicy(TRUSTED_SUBNET,
                                           untrusted_cap=self.untrusted_cap))
        self.bed = Testbed.by_name(self.config, policies=policies or None)
        self.bed.add_clients(self.clients, document=self.document)
        if self.cgi_attackers:
            self.bed.add_cgi_attackers(self.cgi_attackers,
                                       script=self.cgi_script)
        if self.syn_rate:
            self.bed.add_syn_attacker(self.syn_rate)
        if self.qos:
            self.bed.add_qos_receiver()

    def milestones(self) -> List[Tuple[int, str]]:
        settle = seconds_to_ticks(SETTLE_S)
        warm_end = settle + seconds_to_ticks(self.warmup_s)
        measure_end = warm_end + seconds_to_ticks(self.measure_s)
        return [
            (0, "boot"),
            (settle, "start_load"),
            (warm_end, "begin_window"),
            (measure_end, "end_window"),
        ]

    def result(self):
        return self.run_result

    # -- timeline actions ----------------------------------------------
    def ms_boot(self) -> None:
        self.bed.server.boot()

    def ms_start_load(self) -> None:
        self.bed.start_load()

    def ms_begin_window(self) -> None:
        self._window_start = self.bed.begin_window()

    def ms_end_window(self) -> None:
        self.run_result = self.bed.end_window(self._window_start)

    def extra_summary(self) -> Dict:
        return {"window_start": self._window_start or 0}


def run_from_spec(spec: Dict) -> ReplayableRun:
    """Rebuild the run object a spec describes (fresh, unbuilt)."""
    if not isinstance(spec, dict):
        raise ValueError(f"run spec must be a JSON object, got {spec!r}")
    kind = spec.get("run")
    if kind == ExperimentRun.KIND:
        return ExperimentRun.from_spec(spec)
    if kind == "chaos":
        from repro.chaos.scenarios import ChaosRun
        return ChaosRun.from_spec(spec)
    if kind == "defense":
        from repro.defense.run import DefenseRun
        return DefenseRun.from_spec(spec)
    if kind == "cluster":
        from repro.cluster.run import ClusterRun
        return ClusterRun.from_spec(spec)
    raise ValueError(f"unknown run spec kind: {kind!r}")
