"""Deterministic fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` objects,
each saying *when* (seconds after arming), *what kind* of fault, *where*
(a module or domain name), *how long*, and *how hard*.  Schedules are
either written out explicitly (the canned scenarios do this for their
signature faults) or generated from a seed with :meth:`FaultSchedule.random`
— the same ``(seed, duration, kinds)`` always produces the same schedule,
so a failing chaos run is replayed exactly by rerunning with its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.snapshot.runs import check_fields, spec_field

# -- fault kinds (one per layer of the simulated machine) ---------------
MODULE_EXCEPTION = "module-exception"   # module raises mid-path
PAGE_PRESSURE = "page-pressure"         # page allocator runs dry
IOBUF_FAIL = "iobuf-fail"               # IOBuffer allocations fail
STUCK_THREAD = "stuck-thread"           # a domain thread stops yielding
CLOCK_SKEW = "clock-skew"               # softclock runs slow/fast
LINK_FLAP = "link-flap"                 # the wire goes dark
DOMAIN_CRASH = "domain-crash"           # a protection domain dies outright
NET_DEGRADE = "net-degrade"             # drop/reorder/corrupt rates spike

ALL_FAULT_KINDS = (MODULE_EXCEPTION, PAGE_PRESSURE, IOBUF_FAIL,
                   STUCK_THREAD, CLOCK_SKEW, LINK_FLAP, DOMAIN_CRASH)

#: What the resilience campaign generator may draw from: the canned kinds
#: plus the network-degradation window (kept out of ALL_FAULT_KINDS so
#: pre-existing ``FaultSchedule.random`` seeds keep producing the same
#: schedules they always did).
GENERATOR_FAULT_KINDS = ALL_FAULT_KINDS + (NET_DEGRADE,)

#: Modules whose forward path random schedules may break (leaf-ish modules
#: on the active-path chain — exceptions here hit one connection, which is
#: exactly the fault-isolation property under test).
DEFAULT_EXCEPTION_TARGETS = ("http", "fs", "scsi")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``magnitude`` is kind-specific: a probability for ``iobuf-fail`` and
    ``module-exception``, a fraction of free pages for ``page-pressure``,
    a period multiplier for ``clock-skew``, ignored elsewhere.  Fields
    follow the run-spec rules (:mod:`repro.snapshot.runs`): a known kind,
    finite numbers ``>= 0``.
    """

    at_s: float
    kind: str = spec_field(choices=GENERATOR_FAULT_KINDS)
    target: str = ""
    duration_s: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, "fault event")

    def describe(self) -> str:
        parts = [f"t+{self.at_s:.3f}s {self.kind}"]
        if self.target:
            parts.append(f"@{self.target}")
        if self.duration_s:
            parts.append(f"for {self.duration_s:.3f}s")
        if self.magnitude != 1.0:
            parts.append(f"x{self.magnitude:g}")
        return " ".join(parts)

    # -- serialization (the resilience campaign's wire format) ----------
    def to_jsonable(self) -> Dict:
        """A plain dict round-trippable through JSON."""
        return {"at_s": self.at_s, "kind": self.kind, "target": self.target,
                "duration_s": self.duration_s, "magnitude": self.magnitude}

    @classmethod
    def from_jsonable(cls, payload: Dict) -> "FaultEvent":
        """Inverse of :meth:`to_jsonable`; ``ValueError`` if malformed."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(payload, dict) or set(payload) != set(keys):
            raise ValueError(f"a fault event needs exactly the keys "
                             f"{', '.join(keys)}, got {payload!r}")
        return cls(**payload)

    def replaced(self, **changes) -> "FaultEvent":
        """A copy with ``changes`` applied (the mutation hook shrinking
        uses to reduce one parameter at a time)."""
        fields = self.to_jsonable()
        fields.update(changes)
        return FaultEvent(**fields)


class FaultSchedule:
    """An ordered, replayable list of fault events plus its seed.

    The seed also drives the *probabilistic* injectors (e.g. per-call
    IOBuffer failure rolls), so the whole chaos run is a pure function of
    the schedule.
    """

    def __init__(self, events: Iterable[FaultEvent], seed: int = 0):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at_s)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def describe(self) -> str:
        lines = [f"fault schedule (seed={self.seed}, {len(self.events)} events)"]
        lines += [f"  {ev.describe()}" for ev in self.events]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization + mutation hooks (what makes generated schedules
    # first-class run specs and delta-debuggable)
    # ------------------------------------------------------------------
    def to_jsonable(self) -> Dict:
        """A plain JSON-able payload; ``from_jsonable`` inverts it."""
        return {"seed": self.seed,
                "events": [ev.to_jsonable() for ev in self.events]}

    @classmethod
    def from_jsonable(cls, payload: Dict) -> "FaultSchedule":
        """Inverse of :meth:`to_jsonable`; ``ValueError`` if malformed,
        including events out of time order (they would not round-trip)."""
        if not isinstance(payload, dict) \
                or set(payload) != {"seed", "events"} \
                or type(payload["seed"]) is not int \
                or not isinstance(payload["events"], list):
            raise ValueError(f"a fault schedule needs an int 'seed' and an "
                             f"'events' list, got {payload!r}")
        events = [FaultEvent.from_jsonable(e) for e in payload["events"]]
        if any(b.at_s < a.at_s for a, b in zip(events, events[1:])):
            raise ValueError("fault events must be in time order")
        return cls(events, seed=payload["seed"])

    def without(self, indices) -> "FaultSchedule":
        """A new schedule with the events at ``indices`` removed.

        Indices refer to the sorted event order (what ``__iter__`` yields);
        the schedule's seed — and therefore the probabilistic injector
        streams — is preserved, so deleting an event changes exactly the
        faults that event caused plus the RNG rolls it consumed.
        """
        drop = set(indices)
        return FaultSchedule(
            [ev for i, ev in enumerate(self.events) if i not in drop],
            seed=self.seed)

    def with_event(self, index: int, **changes) -> "FaultSchedule":
        """A new schedule with event ``index`` replaced field-wise (the
        per-entry shrinking hook: reduce a magnitude, shorten a duration,
        move a fault earlier)."""
        events = list(self.events)
        events[index] = events[index].replaced(**changes)
        return FaultSchedule(events, seed=self.seed)

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, seed: int, duration_s: float,
               kinds: Sequence[str] = ALL_FAULT_KINDS,
               rate_per_second: float = 3.0,
               exception_targets: Sequence[str] = DEFAULT_EXCEPTION_TARGETS,
               crash_targets: Sequence[str] = ()) -> "FaultSchedule":
        """Generate a deterministic schedule from ``seed``.

        ``rate_per_second`` sets the average fault density over the chaos
        window; each event's kind, target, duration, and magnitude are
        drawn from the seeded RNG.  ``domain-crash`` events are only
        emitted when ``crash_targets`` names candidate domains.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        kinds = [k for k in kinds
                 if k != DOMAIN_CRASH or crash_targets]
        if not kinds:
            raise ValueError("no fault kinds to schedule")
        rng = random.Random(seed)
        n = max(1, int(duration_s * rate_per_second))
        events = []
        for _ in range(n):
            kind = rng.choice(kinds)
            at = rng.uniform(0.0, duration_s)
            target = ""
            duration = 0.0
            magnitude = 1.0
            if kind == MODULE_EXCEPTION:
                target = rng.choice(list(exception_targets))
                duration = rng.uniform(0.02, 0.15)
                magnitude = rng.uniform(0.5, 1.0)   # per-call raise prob.
            elif kind == PAGE_PRESSURE:
                duration = rng.uniform(0.05, 0.3)
                magnitude = rng.uniform(0.8, 0.98)  # fraction of free pages
            elif kind == IOBUF_FAIL:
                duration = rng.uniform(0.05, 0.2)
                magnitude = rng.uniform(0.3, 0.9)   # per-alloc failure prob.
            elif kind == STUCK_THREAD:
                duration = 0.0                      # runs until killed
            elif kind == CLOCK_SKEW:
                duration = rng.uniform(0.05, 0.3)
                magnitude = rng.choice([0.25, 0.5, 2.0, 4.0])
            elif kind == LINK_FLAP:
                duration = rng.uniform(0.01, 0.08)
            elif kind == DOMAIN_CRASH:
                target = rng.choice(list(crash_targets))
            events.append(FaultEvent(at_s=at, kind=kind, target=target,
                                     duration_s=duration,
                                     magnitude=magnitude))
        return cls(events, seed=seed)
