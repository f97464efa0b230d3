"""The fault space: a seeded grammar over campaign cases.

A **case** is a plain JSON-able dict — ``{"target", "seed", "intensity",
"params", "entries"}`` — where ``entries`` is the ordered list the
minimizer deletes from and shrinks.  :func:`case_to_spec` maps a case
onto a replayable run spec (:func:`repro.snapshot.runs.run_from_spec`
rebuilds it bit-for-bit), so the campaign, the minimizer, and the corpus
all speak the same wire format.

Per target:

* ``chaos`` — entries are :class:`~repro.chaos.schedule.FaultEvent`
  payloads drawn from :data:`~repro.chaos.schedule.GENERATOR_FAULT_KINDS`
  (the canned kinds plus ``net-degrade``), run against one of the canned
  scenario testbeds with the schedule riding in the spec;
* ``defense`` — entries are attack components (``syn-ramp``,
  ``cgi-runaway``) mapped onto a :class:`~repro.defense.run.DefenseRun`;
* ``cluster`` — entries are a replica-chaos hit (crash / partition /
  flap) and an optional ``syn-ramp``, mapped onto a
  :class:`~repro.cluster.run.ClusterRun`.

Only the *first* entry of each defense/cluster entry kind is mapped;
surplus entries are inert, so delta debugging deletes them for free.

Every float is rounded before it enters a case: cases are compared and
cached by their canonical JSON, so the grammar must never emit digits
that JSON round-trips could disagree on.

Intensity knobs (``rate``, ``magnitude``, ``duration``) scale the
per-dimension draws; :class:`FaultSpace` jitters them per case so one
campaign sweeps mild through harsh schedules.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from repro.chaos.scenarios import CHAOS_S
from repro.chaos.schedule import (
    CLOCK_SKEW,
    DOMAIN_CRASH,
    IOBUF_FAIL,
    LINK_FLAP,
    MODULE_EXCEPTION,
    NET_DEGRADE,
    PAGE_PRESSURE,
    STUCK_THREAD,
)

TARGETS = ("chaos", "defense", "cluster")

#: Scenario beds a chaos case may run against, with the extras each one
#: unlocks: only the lossy bed has a network injector (net-degrade), and
#: only the PD bed has protection domains to crash.
_CHAOS_SCENARIOS = ("lossy-syn-flood", "oom-cgi", "domain-crash")
_CRASH_TARGETS = ("pd-http", "pd-tcp", "pd-fs")

_DEFAULT_INTENSITY = {"rate": 1.0, "magnitude": 1.0, "duration": 1.0}


def _r(x: float, digits: int = 4) -> float:
    return round(float(x), digits)


# ----------------------------------------------------------------------
# Per-target samplers
# ----------------------------------------------------------------------
def _sample_chaos_entries(rng: random.Random, intensity: Dict[str, float],
                          scenario: str) -> List[Dict]:
    kinds = [MODULE_EXCEPTION, PAGE_PRESSURE, IOBUF_FAIL, STUCK_THREAD,
             CLOCK_SKEW, LINK_FLAP]
    if scenario == "lossy-syn-flood":
        kinds.append(NET_DEGRADE)
    if scenario == "domain-crash":
        kinds.append(DOMAIN_CRASH)
    rate_m = intensity["rate"]
    mag_m = intensity["magnitude"]
    dur_m = intensity["duration"]
    n = max(1, int(CHAOS_S * 3.0 * rate_m))
    entries = []
    for _ in range(n):
        kind = rng.choice(kinds)
        at = rng.uniform(0.0, CHAOS_S)
        target, duration, magnitude = "", 0.0, 1.0
        if kind == MODULE_EXCEPTION:
            target = rng.choice(["http", "fs", "scsi"])
            duration = rng.uniform(0.02, 0.15) * dur_m
            magnitude = min(1.0, rng.uniform(0.5, 1.0) * mag_m)
        elif kind == PAGE_PRESSURE:
            duration = rng.uniform(0.05, 0.3) * dur_m
            magnitude = min(0.99, rng.uniform(0.8, 0.98) * mag_m)
        elif kind == IOBUF_FAIL:
            duration = rng.uniform(0.05, 0.2) * dur_m
            magnitude = min(1.0, rng.uniform(0.3, 0.9) * mag_m)
        elif kind == CLOCK_SKEW:
            duration = rng.uniform(0.05, 0.3) * dur_m
            magnitude = rng.choice([0.25, 0.5, 2.0, 4.0])
        elif kind == LINK_FLAP:
            duration = rng.uniform(0.01, 0.1) * dur_m
        elif kind == NET_DEGRADE:
            duration = rng.uniform(0.05, 0.3) * dur_m
            magnitude = min(1.0, rng.uniform(0.4, 1.0) * mag_m)
        elif kind == DOMAIN_CRASH:
            target = rng.choice(list(_CRASH_TARGETS))
        entries.append({"at_s": _r(at), "kind": kind, "target": target,
                        "duration_s": _r(duration),
                        "magnitude": _r(magnitude)})
    entries.sort(key=lambda e: (e["at_s"], e["kind"], e["target"]))
    return entries


def _sample_syn_ramp(rng: random.Random,
                     intensity: Dict[str, float]) -> Dict:
    mag_m = intensity["magnitude"]
    return {"kind": "syn-ramp",
            "rate": int(rng.uniform(100, 400) * intensity["rate"]),
            "ramp_to": int(rng.uniform(2000, 6000) * mag_m),
            "ramp_s": _r(rng.uniform(0.8, 1.5), 2),
            "spoof_hosts": rng.choice([100, 500, 1000])}


def _sample_defense_case(rng: random.Random,
                         intensity: Dict[str, float]) -> Dict:
    entries = []
    if rng.random() < 0.85:
        entries.append(_sample_syn_ramp(rng, intensity))
    if rng.random() < 0.5:
        entries.append({"kind": "cgi-runaway",
                        "attackers": max(1, int(rng.uniform(2, 10)
                                                * intensity["rate"]))})
    params = {"adaptive": rng.random() < 0.5, "clients": 8,
              "document": "/doc-1k", "untrusted_cap": 16,
              "warmup_s": 0.4, "measure_s": 1.5}
    return {"entries": entries, "params": params}


def _sample_cluster_case(rng: random.Random,
                         intensity: Dict[str, float]) -> Dict:
    measure_s = 1.8
    entries = []
    if rng.random() < 0.85:
        at = rng.uniform(0.2, measure_s - 0.4)
        entries.append({
            "kind": "replica-chaos",
            "chaos": rng.choice(["crash", "partition", "flap"]),
            "at_s": _r(at, 2),
            "restore_s": _r(at + rng.uniform(0.3, 1.5)
                            * intensity["duration"], 2)})
    if rng.random() < 0.6:
        entries.append(_sample_syn_ramp(rng, intensity))
    params = {"replicas": rng.choice([1, 2, 3]),
              "adaptive": rng.random() < 0.5,
              "retry": rng.random() < 0.7, "victim": 0,
              "clients": 8, "document": "/doc-1k",
              "warmup_s": 0.4, "measure_s": measure_s}
    return {"entries": entries, "params": params}


# ----------------------------------------------------------------------
# The public sampler
# ----------------------------------------------------------------------
def sample_case(target: str, seed: int,
                intensity: Optional[Dict[str, float]] = None) -> Dict:
    """Draw one case — a pure function of ``(target, seed, intensity)``."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r} "
                         f"(known: {', '.join(TARGETS)})")
    eff = dict(_DEFAULT_INTENSITY)
    eff.update(intensity or {})
    eff = {k: _r(v) for k, v in eff.items()}
    rng = random.Random(f"ESCORP/{target}/{seed}")
    if target == "chaos":
        scenario = rng.choice(list(_CHAOS_SCENARIOS))
        body = {"entries": _sample_chaos_entries(rng, eff, scenario),
                "params": {"scenario": scenario, "rollback": False}}
    elif target == "defense":
        body = _sample_defense_case(rng, eff)
    else:
        body = _sample_cluster_case(rng, eff)
    return {"target": target, "seed": seed, "intensity": eff, **body}


class FaultSpace:
    """A seeded generator over one target's fault space.

    ``intensity`` sets the *base* per-dimension multipliers; each sampled
    case additionally jitters them (from its own seed) over roughly
    [0.6x, 2x], so a campaign covers mild through harsh schedules without
    the caller tuning anything.  Its keys are ``rate``, ``magnitude`` and
    ``duration``, each a finite number > 0; anything else is a
    ``ValueError`` naming the key.
    """

    def __init__(self, target: str,
                 intensity: Optional[Dict[str, float]] = None):
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r} "
                             f"(known: {', '.join(TARGETS)})")
        self.target = target
        self.intensity = dict(_DEFAULT_INTENSITY)
        for key, value in (intensity or {}).items():
            if key not in _DEFAULT_INTENSITY:
                raise ValueError(f"unknown intensity {key!r} (known: "
                                 f"{', '.join(_DEFAULT_INTENSITY)})")
            if type(value) not in (int, float) or not math.isfinite(value) \
                    or value <= 0:
                raise ValueError(f"intensity {key!r} must be a finite "
                                 f"number > 0, got {value!r}")
            self.intensity[key] = value

    def sample(self, seed: int) -> Dict:
        jitter = random.Random(f"ESCORP-intensity/{self.target}/{seed}")
        eff = {dim: base * jitter.uniform(0.6, 2.0)
               for dim, base in sorted(self.intensity.items())}
        return sample_case(self.target, seed, eff)


# ----------------------------------------------------------------------
# Case -> replayable run spec
# ----------------------------------------------------------------------
def _first(entries: Sequence[Dict], kind: str) -> Optional[Dict]:
    for entry in entries:
        if entry.get("kind") == kind:
            return entry
    return None


def case_to_spec(case: Dict) -> Dict:
    """Map a case onto the run spec its target executes; the run's
    constructor validates it and supplies the fields a case leaves out.

    A value without the case shape is a ``ValueError`` naming the field.
    """
    if not isinstance(case, dict):
        raise ValueError(f"a case must be a JSON object, got {case!r}")
    if case.get("target") not in TARGETS:
        raise ValueError(f"case field 'target' must be one of "
                         f"{', '.join(TARGETS)}, got {case.get('target')!r}")
    for key, kind, what in (("seed", int, "an integer"),
                            ("params", dict, "an object"),
                            ("entries", list, "a list")):
        if key not in case:
            raise ValueError(f"case field {key!r} is missing")
        if not isinstance(case[key], kind):
            raise ValueError(f"case field {key!r} must be {what}, "
                             f"got {case[key]!r}")
    if not all(isinstance(entry, dict) for entry in case["entries"]):
        raise ValueError("case field 'entries' must hold JSON objects")
    try:
        return _run_spec(case)
    except KeyError as exc:
        raise ValueError(f"case field {exc.args[0]!r} is missing") from None


def _run_spec(case: Dict) -> Dict:
    params, entries, seed = case["params"], case["entries"], case["seed"]
    if case["target"] == "chaos":
        from repro.chaos.scenarios import ChaosRun
        from repro.chaos.schedule import FaultEvent, FaultSchedule
        schedule = FaultSchedule(
            [FaultEvent.from_jsonable(e) for e in entries], seed=seed)
        return ChaosRun(params["scenario"], seed, schedule=schedule,
                        use_rollback=bool(params.get("rollback", False))
                        ).spec()

    syn = _first(entries, "syn-ramp")
    shared = dict(adaptive=bool(params["adaptive"]), seed=seed,
                  clients=params["clients"], document=params["document"],
                  syn_rate=syn["rate"] if syn else 0,
                  syn_ramp_to=syn["ramp_to"] if syn else 0,
                  syn_ramp_s=syn["ramp_s"] if syn else 1.0,
                  spoof_hosts=syn["spoof_hosts"] if syn else 0,
                  warmup_s=params["warmup_s"], measure_s=params["measure_s"])
    if case["target"] == "defense":
        from repro.defense.run import DefenseRun
        cgi = _first(entries, "cgi-runaway")
        attack = ("mixed" if syn and cgi else "synflood" if syn
                  else "runaway-cgi" if cgi else "none")
        return DefenseRun(attack, cgi_attackers=cgi["attackers"] if cgi else 0,
                          untrusted_cap=params["untrusted_cap"],
                          **shared).spec()

    from repro.cluster.run import ClusterRun
    hit = _first(entries, "replica-chaos")
    chaos = (dict(chaos=hit["chaos"], chaos_at_s=hit["at_s"],
                  chaos_restore_s=hit["restore_s"]) if hit
             else dict(chaos="none"))
    return ClusterRun(replicas=params["replicas"],
                      retry=bool(params["retry"]), victim=params["victim"],
                      **chaos, **shared).spec()


def case_with_entries(case: Dict, entries: List[Dict]) -> Dict:
    """A copy of ``case`` with its entry list replaced (minimizer hook)."""
    out = dict(case)
    out["entries"] = list(entries)
    return out
