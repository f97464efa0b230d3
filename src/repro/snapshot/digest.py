"""Canonical state summaries and digests of a simulated machine.

The snapshot subsystem never serializes live Python objects (thread bodies
are suspended generator frames — unserializable by construction).  Instead
it reduces the machine to a *canonical summary*: a nested dict of plain
ints/strings covering everything the paper's accounting story cares about —
the virtual clock, the event heap's shape, per-owner cycle/page/object
counters, the page pool, the softclock wheel, TCP demux state, workload
statistics.  Two machine states are considered identical exactly when
their summaries are identical; the :func:`summary_digest` SHA-256 of the
canonical JSON is what checkpoints pin and what replay compares.

Summaries deliberately exclude anything tied to the host process — object
ids, memory addresses, wall-clock time — and iterate every collection in a
sorted order, so the digest of a machine rebuilt in a fresh interpreter
matches the original bit for bit (that property *is* the determinism
guarantee, and :mod:`repro.snapshot.replay` turns any breach of it into a
pinpointed divergence).
"""

from __future__ import annotations

import json
from typing import Dict, List

# The interpreter's built-in SHA-256, taken the way CPython's own
# ``random`` takes its SHA-512: the OpenSSL-backed one would map ~3.6 MB
# of RSS to hash the few hundred KB a run ever digests.
try:
    from _sha2 import sha256 as _builtin_sha256         # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256   # CPython <= 3.11
    except ImportError:
        from hashlib import sha256 as _builtin_sha256   # other interpreters

__all__ = [
    "machine_summary",
    "sha256_hex",
    "summary_digest",
    "light_state",
    "summary_diff",
    "canonical_json",
]


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_fallback)


def _fallback(obj):
    # Last-resort encoder: enums and simple value objects stringify;
    # anything address-dependent must never reach here.
    return str(obj)


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of ``data``; every digest in the simulator goes here."""
    return _builtin_sha256(data).hexdigest()


def summary_digest(summary: Dict) -> str:
    """SHA-256 digest of one canonical summary."""
    return sha256_hex(canonical_json(summary).encode())


def light_state(sim, kernel=None) -> List[int]:
    """A cheap per-event fingerprint: ``[now, seq, busy, idle, intr, free]``.

    Computed after *every* event during recording, so it must cost a few
    attribute reads, not a tree walk.  The six counters move on virtually
    every kind of event, which makes the first divergent event visible at
    exact event granularity; the full digest at journal boundaries catches
    anything these six miss.
    """
    out = [sim.now, sim.seq]
    if kernel is not None:
        cpu = kernel.cpu
        out += [cpu.busy_cycles, cpu.idle_cycles, cpu.interrupt_cycles,
                kernel.allocator.free_pages]
    else:
        out += [0, 0, 0, 0]
    return out


# ----------------------------------------------------------------------
# Summary builders
# ----------------------------------------------------------------------
def machine_summary(bed) -> Dict:
    """Canonical summary of a whole testbed (server + sim + workload).

    A clustered testbed (anything with a ``replicas`` list) gets the
    cluster-shaped summary instead: the same per-server sections repeated
    per replica, plus dispatcher, health-monitor and cluster-defense
    state.
    """
    if getattr(bed, "replicas", None) is not None:
        return _cluster_summary(bed)
    sim = bed.sim
    out: Dict = {
        "sim": _sim_summary(sim),
        "stats": _stats_summary(getattr(bed, "stats", None)),
    }
    server = getattr(bed, "server", None)
    kernel = getattr(server, "kernel", None)
    if kernel is not None:
        out["kernel"] = _kernel_summary(kernel)
        out["owners"] = _owners_summary(server, kernel)
        out["paths"] = _path_manager_summary(server)
        out["tcp"] = _tcp_summary(server)
    if bed.syn_attacker is not None:
        out["syn_attacker"] = {"sent": bed.syn_attacker.sent}
    defense = getattr(server, "defense", None)
    if defense is not None:
        out["defense"] = _defense_summary(defense)
    out["clients"] = len(getattr(bed, "clients", ()))
    return out


def _cluster_summary(bed) -> Dict:
    """Canonical summary of a clustered testbed (dispatcher + N replicas)."""
    out: Dict = {
        "sim": _sim_summary(bed.sim),
        "stats": _stats_summary(getattr(bed, "stats", None)),
        "dispatcher": bed.dispatcher.summary(),
        "health": bed.health.summary(),
        "replicas": [],
    }
    for replica in bed.replicas:
        server = replica.server
        kernel = server.kernel
        entry = {
            "index": replica.index,
            "link_up": replica.link_up,
            "crashes": replica.crashes,
            "restores": replica.restores,
            "flushed_paths": replica.flushed_paths,
            "gate": replica.gate.stats(),
            "kernel": _kernel_summary(kernel),
            "owners": _owners_summary(server, kernel),
            "paths": _path_manager_summary(server),
            "tcp": _tcp_summary(server),
        }
        defense = getattr(server, "defense", None)
        if defense is not None:
            entry["defense"] = _defense_summary(defense)
        out["replicas"].append(entry)
    if bed.syn_attacker is not None:
        out["syn_attacker"] = {"sent": bed.syn_attacker.sent}
    if getattr(bed, "defense", None) is not None:
        out["cluster_defense"] = bed.defense.summary()
    out["clients"] = len(getattr(bed, "clients", ()))
    return out


def _defense_summary(defense) -> Dict:
    return {
        "scans": defense.scans,
        "absorbed": defense.absorbed,
        "transitions": [[a.at_s, a.kind, a.rung] for a in defense.log],
        "rungs": {r: bool(v) for r, v in sorted(defense.rung_active.items())},
        "buckets": sorted(defense.buckets),
        "degrade_level": defense.server.http.degrade_level,
    }


def _sim_summary(sim) -> Dict:
    return {
        "now": sim.now,
        "seq": sim.seq,
        "events_processed": sim.events_processed,
        "live_events": [list(t) for t in sim.live_events()],
    }


def _stats_summary(stats) -> Dict:
    if stats is None:
        return {}
    out = {
        "completions": {cls: len(ticks)
                        for cls, ticks in sorted(stats._completions.items())},
        "last_completion": {cls: (ticks[-1] if ticks else 0)
                            for cls, ticks in
                            sorted(stats._completions.items())},
        "failures": dict(sorted(stats.failures.items())),
    }
    outcomes = getattr(stats, "_outcomes", None)
    if outcomes:
        out["outcomes"] = {f"{cls}/{kind}": len(ticks)
                           for (cls, kind), ticks in
                           sorted(outcomes.items())}
    return out


def _kernel_summary(kernel) -> Dict:
    cpu = kernel.cpu
    return {
        "cpu": {
            "busy": cpu.busy_cycles,
            "idle": cpu.idle_cycles,
            "interrupt": cpu.interrupt_cycles,
            "current": getattr(cpu.current, "name", ""),
            "free_at": cpu._free_at,
        },
        "allocator": {
            "free": kernel.allocator.free_pages,
            "allocated": len(kernel.allocator.allocated),
        },
        "softclock": {
            "ticks": kernel.softclock.ticks,
            "wheel": kernel.softclock.entries(),
        },
        "counters": {
            "runaway_traps": kernel.runaway_traps,
            "fault_traps": kernel.fault_traps,
            "uncontained_faults": kernel.uncontained_faults,
            "sheds": kernel.sheds,
            "shedding": kernel.shedding,
            "kills": len(kernel.kill_reports),
        },
        "domains": sorted(d.name for d in kernel.domains),
    }


def _iter_owners(server, kernel):
    seen = set()
    roots = [kernel.kernel_owner, kernel.idle_owner]
    roots += list(kernel.domains)
    manager = getattr(server, "path_manager", None)
    if manager is not None:
        roots += list(getattr(manager, "paths", ()))
    for owner in roots:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        yield owner


def _owners_summary(server, kernel) -> List[Dict]:
    out = []
    for owner in _iter_owners(server, kernel):
        u = owner.usage
        out.append({
            "name": owner.name,
            "type": owner.type.value,
            "destroyed": owner.destroyed,
            "cycles": u.cycles,
            "pages": u.pages,
            "kmem": u.kmem,
            "heap_bytes": u.heap_bytes,
            "stacks": u.stacks,
            "events": u.events,
            "semaphores": u.semaphores,
            "threads": len(owner.thread_list),
            "live_threads": sum(1 for t in owner.thread_list
                                if t.sim_thread.alive),
            "iobuf_locks": len(owner.iobuffer_locks),
            "heap_allocations": len(owner.heap_allocations),
        })
    out.sort(key=lambda o: (o["name"], o["type"]))
    return out


def _path_manager_summary(server) -> Dict:
    manager = getattr(server, "path_manager", None)
    if manager is None:
        return {}
    return {
        "created": manager.paths_created,
        "destroyed": manager.paths_destroyed,
        "killed": manager.paths_killed,
        "rejected": manager.paths_rejected,
        "live": sorted(p.name for p in getattr(manager, "paths", ())
                       if not p.destroyed),
    }


def _tcp_summary(server) -> Dict:
    tcp = getattr(server, "tcp", None)
    if tcp is None:
        return {}
    out: Dict = {
        "demux_drops": dict(sorted(getattr(tcp, "demux_drops", {}).items())),
    }
    listeners = getattr(tcp, "listeners", None)
    if listeners is not None:
        try:
            out["listeners"] = sorted(str(k) for k in listeners)
        except TypeError:  # pragma: no cover - defensive
            out["listeners"] = len(listeners)
    if getattr(tcp, "syncookies_sent", 0) or getattr(tcp, "syn_arrivals",
                                                     None):
        out["syncookies"] = {"sent": tcp.syncookies_sent,
                             "accepted": tcp.syncookies_accepted,
                             "on": tcp.syncookies}
        out["syn_arrivals"] = dict(sorted(tcp.syn_arrivals.items()))
    return out


# ----------------------------------------------------------------------
# Diffing (for divergence reports)
# ----------------------------------------------------------------------
#: Differences :func:`summary_diff` lists before it stops.
DIFF_LIMIT = 40


def summary_diff(expected, actual, prefix: str = "") -> List[str]:
    """Human-readable list of leaf paths where two summaries differ."""
    diffs: List[str] = []
    _diff(expected, actual, prefix, diffs)
    return diffs


def _diff(a, b, path: str, out: List[str]) -> None:
    if len(out) >= DIFF_LIMIT:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append(f"{sub}: only in actual ({_short(b[key])})")
            elif key not in b:
                out.append(f"{sub}: only in expected ({_short(a[key])})")
            else:
                _diff(a[key], b[key], sub, out)
            if len(out) >= DIFF_LIMIT:
                return
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", out)
            if len(out) >= DIFF_LIMIT:
                return
    elif a != b:
        out.append(f"{path}: expected {_short(a)} != actual {_short(b)}")


def _short(value, width: int = 60) -> str:
    text = repr(value)
    return text if len(text) <= width else text[:width - 3] + "..."
