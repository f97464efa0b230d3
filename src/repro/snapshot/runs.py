"""Replayable runs and their one spec schema.

Whole-machine checkpointing in this codebase cannot serialize the live
object graph: kernel threads are suspended Python generator frames, which
no pure-Python mechanism can persist.  What *is* serializable — and what
the simulator's determinism guarantee makes sufficient — is the run's
**specification**: how to build the machine at t=0 plus a timeline of
named actions (boot, start load, arm chaos, open the measurement window)
at fixed ticks.  Re-executing a spec reproduces the machine bit for bit;
the digest machinery (:mod:`repro.snapshot.digest`) verifies it did.

Each run kind declares its spec once, as dataclass fields on the run
class: a type plus, where needed, a :func:`spec_field` range or choice
list.  :class:`ReplayableRun` derives ``spec()``, ``from_spec()`` and
construction-time validation from that declaration: a wrong type (``True``
is not an int, ``"8"`` is not a number), an out-of-range value, an unknown
choice and a missing or unknown key each raise a ``ValueError`` naming the
kind and the field, whether the run is built in code, by
:func:`run_from_spec` or by ``RunDriver.resume``.  ``build()`` constructs
the machine, ``milestones()`` lists ``(tick, action)`` pairs and
``perform(action)`` executes one.  :class:`WindowedRun` is the measurement
timeline the experiment (:class:`ExperimentRun`; every Figure 8–11 cell
is one spec), defense and cluster kinds share; the chaos scenarios provide
:class:`~repro.chaos.scenarios.ChaosRun`.

:func:`reset_ids` re-seeds every global object-id counter, so a machine
built in a long-lived process digests identically to one built in a fresh
interpreter — in-process replay, lockstep comparison, and cross-process
restore all depend on it.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks
from repro.snapshot.digest import sha256_hex

__all__ = ["ReplayableRun", "WindowedRun", "ExperimentRun", "spec_field",
           "check_fields", "reset_ids", "run_class", "run_from_spec"]

#: Module-init settle time used by every driver-based run (the harness has
#: always waited this long after boot so passive paths exist before SYNs).
SETTLE_S = 0.01

#: The server configurations :meth:`repro.experiments.harness.Testbed.
#: by_name` builds, in Figure 8's order.
CONFIGS = ("linux", "scout", "accounting", "accounting_pd")
#: The documents every server serves: the keys of
#: :data:`repro.server.webserver.DEFAULT_DOCUMENTS`, spelled out so that
#: loading a spec does not import the server.
DOCUMENTS = ("/doc-1", "/doc-1k", "/doc-10k", "/stream-meta")
#: The CGI scripts the testbed installs: a runaway loop and a busy one.
CGI_SCRIPTS = ("loop", "busy")


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
    return sha256_hex(repr(rng.getstate()).encode())[:16]


# ----------------------------------------------------------------------
# The spec schema
# ----------------------------------------------------------------------
def spec_field(default=MISSING, **rule):
    """A spec field whose rule differs from its type's default.

    A number must be finite and ``>= low`` (default 0; ``low=None``: any),
    or ``> above``; a string must be in ``choices`` when given; ``key``
    renames the spec key; ``codec`` (a class with ``to_jsonable`` and
    ``from_jsonable``) carries a structured value, which may be ``None``
    and is then left out of the spec.
    """
    return field(default=default, metadata=rule)


def _check(hint, rule) -> Tuple[str, Callable[[Any], bool]]:
    """What a field declared as ``hint`` must be, and the test for it."""
    codec, choices = rule.get("codec"), rule.get("choices")
    if codec is not None:
        return (f"None or a {codec.__name__}",
                lambda v: v is None or isinstance(v, codec))
    if type(None) in typing.get_args(hint):                 # Optional[X]
        want, ok = _check(typing.get_args(hint)[0], rule)
        return f"None or {want}", lambda v: v is None or ok(v)
    if hint is bool:
        return "a bool", lambda v: type(v) is bool
    if hint is str and choices is not None:
        return (f"one of {', '.join(choices)}",
                lambda v: type(v) is str and v in choices)
    if hint is str:
        return "a string", lambda v: type(v) is str
    if hint is int:
        want, typed = "an int", (lambda v: type(v) is int)
    elif hint is float:
        want = "a finite number"
        typed = (lambda v: type(v) is int
                 or (type(v) is float and math.isfinite(v)))
    else:
        raise TypeError(f"no spec rule for type {hint!r}")
    low, above = rule.get("low", 0), rule.get("above")
    if above is not None:
        return f"{want} > {above}", lambda v: typed(v) and v > above
    if low is not None:
        return f"{want} >= {low}", lambda v: typed(v) and v >= low
    return want, typed


@functools.lru_cache(maxsize=None)
def _rules(cls: type) -> Tuple[Tuple, ...]:
    """``(attribute, spec key, requirement, check, codec)`` per field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name),
                  *_check(hints[f.name], f.metadata),
                  f.metadata.get("codec")) for f in fields(cls))


def check_fields(obj, label: str) -> None:
    """Raise ``ValueError`` naming the first field of dataclass ``obj``
    whose value breaks its declared rule."""
    for name, key, want, ok, _ in _rules(type(obj)):
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{label} field {key!r} must be {want}, "
                             f"got {value!r}")


class ReplayableRun:
    """One deterministic run: a build recipe plus a timeline of actions.

    Concrete kinds are ``@dataclass(eq=False)`` subclasses whose fields
    are the spec (run-time state stays in plain, unannotated attributes).
    """

    #: The spec's ``"run"`` value.
    KIND = ""
    #: Set by build(); every run drives exactly one testbed.
    bed = None
    #: The run's product, set by its final milestone.
    run_result = None

    # -- the spec contract ---------------------------------------------
    def __post_init__(self) -> None:
        check_fields(self, f"{self.KIND} spec")

    @classmethod
    def field_error(cls, key, problem: str) -> ValueError:
        """The one error a malformed spec raises: kind, field, problem."""
        return ValueError(f"{cls.KIND} spec field {key!r} {problem}")

    def spec(self) -> Dict:
        """JSON-able description sufficient to rebuild this run."""
        out = {"run": self.KIND}
        for name, key, _, _, codec in _rules(type(self)):
            value = getattr(self, name)
            if codec is None:
                out[key] = value
            elif value is not None:
                out[key] = value.to_jsonable()
        return out

    @classmethod
    def from_spec(cls, spec: Dict) -> "ReplayableRun":
        """Rebuild from :meth:`spec` output: every key it emits, no other."""
        rules = _rules(cls)
        known = {key for _, key, _, _, _ in rules}
        for key in spec:
            if key != "run" and key not in known:
                raise cls.field_error(key, "is unknown")
        values = {}
        for name, key, _, _, codec in rules:
            if key not in spec:
                if codec is None:
                    raise cls.field_error(key, "is missing")
            elif codec is None:
                values[name] = spec[key]
            else:
                try:
                    values[name] = codec.from_jsonable(spec[key])
                except ValueError as exc:
                    raise cls.field_error(key, f"is malformed: {exc}") \
                        from None
        return cls(**values)

    def build(self) -> None:
        """Construct the machine at t=0 (idempotence not required)."""
        raise NotImplementedError

    def milestones(self) -> List[Tuple[int, str]]:
        """``(absolute_tick, action_name)`` pairs, sorted by tick."""
        raise NotImplementedError

    def result(self):
        """The run's product, available after the final milestone."""
        return self.run_result

    # -- execution ------------------------------------------------------
    def perform(self, action: str) -> None:
        """Execute one timeline action (dispatches to ``ms_<action>``)."""
        getattr(self, f"ms_{action}")()

    def ms_boot(self) -> None:
        self.bed.server.boot()

    def ms_start_load(self) -> None:
        self.bed.start_load()

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


class WindowedRun(ReplayableRun):
    """``boot`` at 0, ``start_load`` after :data:`SETTLE_S`, then a
    ``warmup_s`` warm-up and a ``measure_s`` window whose end sets
    ``run_result``; kinds may act inside it (:meth:`window_milestones`).
    """

    #: Client outcome counters reported as in-window deltas.
    OUTCOMES = ()
    #: Run-time state: the tick ``begin_window`` opened the window at.
    _window_start = None

    def milestones(self) -> List[Tuple[int, str]]:
        settle = seconds_to_ticks(SETTLE_S)
        start = settle + seconds_to_ticks(self.warmup_s)
        end = start + seconds_to_ticks(self.measure_s)
        return [(0, "boot"), (settle, "start_load"), (start, "begin_window"),
                *self.window_milestones(start, end), (end, "end_window")]

    def window_milestones(self, start: int,
                          end: int) -> List[Tuple[int, str]]:
        """Actions between ``begin_window`` and ``end_window``."""
        return []

    # -- timeline actions ----------------------------------------------
    def ms_begin_window(self) -> None:
        self._window_start = self.bed.begin_window()
        self._outcomes_at_start = {
            k: self.bed.stats.outcome_total("client", k)
            for k in self.OUTCOMES}

    def window_outcomes(self) -> Dict[str, int]:
        """How much each ``OUTCOMES`` counter grew inside the window."""
        return {k: self.bed.stats.outcome_total("client", k) - at_start
                for k, at_start in self._outcomes_at_start.items()}

    def extra_summary(self) -> Dict:
        return {"window_start": self._window_start or 0}


@dataclass(eq=False)
class ExperimentRun(WindowedRun):
    """One figure cell as a replayable spec.

    Mirrors :meth:`repro.experiments.harness.Testbed.run` exactly —
    boot, settle, start load, warm up, measure — but expressed as fixed-
    tick milestones, so the run can be checkpointed mid-flight and
    restored in a fresh process.  Every cell of Figures 8–11 is one
    spec: N clients fetching one document, plus at most one attack or
    stream met by the paper's policy for it — ``syn_rate`` with the
    ``untrusted_cap`` SYN_RCVD cap (Figure 9, §4.4.1), ``qos`` with the
    1 MBps CPU reservation (Figure 10, §4.4.2), ``cgi_attackers`` with
    the 2 ms runaway kill (Figure 11, §4.4.3).
    """

    KIND = "experiment"

    config: str = spec_field("accounting", choices=CONFIGS)
    clients: int = 4
    document: str = spec_field("/doc-1k", choices=DOCUMENTS)
    syn_rate: int = 0
    untrusted_cap: Optional[int] = None
    cgi_attackers: int = 0
    cgi_script: str = spec_field("loop", choices=CGI_SCRIPTS)
    qos: bool = False
    warmup_s: float = 1.0
    measure_s: float = spec_field(5.0, above=0)

    def build(self) -> None:
        from repro.experiments.harness import TRUSTED_SUBNET, Testbed
        from repro.policy.qos import QosPolicy
        from repro.policy.runaway import RunawayPolicy
        from repro.policy.synflood import SynFloodPolicy

        policies = []
        if self.untrusted_cap is not None:
            policies.append(SynFloodPolicy(TRUSTED_SUBNET,
                                           untrusted_cap=self.untrusted_cap))
        if self.qos:
            policies.append(QosPolicy())
        if self.cgi_attackers:
            policies.append(RunawayPolicy())
        self.bed = Testbed.by_name(self.config, policies=policies or None)
        self.bed.add_clients(self.clients, document=self.document)
        if self.cgi_attackers:
            self.bed.add_cgi_attackers(self.cgi_attackers,
                                       script=self.cgi_script)
        if self.syn_rate:
            self.bed.add_syn_attacker(self.syn_rate)
        if self.qos:
            self.bed.add_qos_receiver()

    def ms_end_window(self) -> None:
        self.run_result = self.bed.end_window(self._window_start)


def run_class(kind: str) -> type:
    """The run class of one spec kind (``ValueError`` if unknown); only
    that kind's module is imported."""
    if kind == ExperimentRun.KIND:
        return ExperimentRun
    if kind == "chaos":
        from repro.chaos.scenarios import ChaosRun
        return ChaosRun
    if kind == "defense":
        from repro.defense.run import DefenseRun
        return DefenseRun
    if kind == "cluster":
        from repro.cluster.run import ClusterRun
        return ClusterRun
    raise ValueError(f"unknown run spec kind: {kind!r}")


def run_from_spec(spec: Dict) -> ReplayableRun:
    """Rebuild the run object a spec describes (fresh, unbuilt)."""
    if not isinstance(spec, dict):
        raise ValueError(f"run spec must be a JSON object, got {spec!r}")
    return run_class(spec.get("run")).from_spec(spec)
