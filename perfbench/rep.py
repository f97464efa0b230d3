"""One repetition of one workload, in a fresh interpreter.

Usage (the runner does this; not meant to be typed)::

    python3 perfbench/rep.py <spawn monotonic ns> '<json config>'

The config names the workload, seed, scale, whether the run is traced, and
where to put scratch files.  The last line of standard output is
``PERFBENCH-REP <json>`` with the timings, the deterministic counts, the
semantic result and the output-check failures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import check, probe, tracer, workloads  # noqa: E402

MARKER = "PERFBENCH-REP "


def _window_outcomes(bed, result) -> dict:
    """Legitimate-client completions and failed attempts in the window."""
    stats = bed.stats
    start, end = result.window_start, result.window_end
    out = {"completions": stats.completions_in("client", start, end)}
    for kind in ("aborted", "refused", "retried"):
        out[kind] = stats.outcomes_in("client", kind, start, end)
    out["goodput_cps"] = stats.rate_per_second("client", start, end)
    return out


def _counts(driver) -> dict:
    """Deterministic counters read from the machine after the run."""
    run = driver.run
    bed = run.bed
    health = driver.sim.queue_health()
    kernels = workloads.kernels(run)
    servers = workloads.servers(run)
    cpus = [k.cpu for k in kernels]
    busy = sum(c.busy_cycles + c.interrupt_cycles for c in cpus)
    total = busy + sum(c.idle_cycles for c in cpus)
    attacker = getattr(bed, "syn_attacker", None)
    pool = getattr(attacker, "pool", None)
    pool_stats = pool.stats() if pool is not None else {}
    dispatcher = getattr(bed, "dispatcher", None)
    escalations = sum(len(s.defense.escalations()) for s in servers
                      if getattr(s, "defense", None) is not None)
    return {
        "queue_health": health,
        "completions_total": bed.stats.total("client"),
        "syn_sent": attacker.sent if attacker is not None else 0,
        "demux_drops": sum(sum(s.tcp.demux_drops.values()) for s in servers),
        "pool_acquired": pool_stats.get("acquired", 0),
        "pool_recycled": pool_stats.get("recycled", 0),
        "forwarded": (dispatcher.forwarded_in + dispatcher.forwarded_out
                      if dispatcher is not None else 0),
        "path_kills": sum(len(k.kill_reports) for k in kernels),
        "runaway_traps": sum(k.runaway_traps for k in kernels),
        "throttles": sum(len(k.quotas.throttles) for k in kernels),
        "escalations": escalations,
        "cpu_busy_frac": busy / total if total else 0.0,
    }


def _measure(driver, durable, trace, step: int):
    """Drive the run in fixed slices; returns ``(report, profiler)``."""
    end = driver.end_tick
    slices = []
    probes = []
    profiler = None
    if trace is not None:
        import cProfile
        profiler = cProfile.Profile()
    with tracer.GcWatch() as gc_watch:
        if profiler is not None:
            profiler.enable()
        tick = 0
        index = 0
        while tick < end:
            tick = min(tick + step, end)
            s0 = time.perf_counter_ns()
            span = trace.begin("slice") if trace is not None else None
            driver.run_to(tick)
            durable.after_slice(index)
            if trace is not None:
                trace.end(span)
            slices.append(time.perf_counter_ns() - s0)
            if profiler is not None:
                profiler.disable()
            probes.append(probe.probe())
            if profiler is not None:
                profiler.enable()
            index += 1
        if profiler is not None:
            profiler.disable()

    run = driver.run
    result = run.result()
    return {
        "slices_ns": slices,
        "probes_ns": probes,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checkpoints": durable.checkpoints,
        "gc": {"collections": gc_watch.collections,
               "pause_s": gc_watch.pause_ns / 1e9},
        "counts": _counts(driver),
        "failures": check.grade(run, result, workloads.kernels(run)),
        "result": check.semantic(result) if result is not None else None,
        "window": (_window_outcomes(run.bed, result)
                   if result is not None else None),
    }, profiler


def run_rep(cfg: dict, spawn_ns: int) -> dict:
    from repro.sim.clock import seconds_to_ticks, ticks_to_seconds

    traced = cfg["traced"]
    trace = tracer.Tracer() if traced else None
    if trace is not None:
        trace.install()
    driver, durable = workloads.build(cfg["workload"], cfg["seed"],
                                      cfg["scale"], cfg["work_root"])
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9

    try:
        out, profiler = _measure(driver, durable, trace,
                                 seconds_to_ticks(workloads.SLICE_S))
    finally:
        if trace is not None:
            trace.uninstall()
        durable.close()
    out["setup_s"] = setup_s
    out["sim_s"] = ticks_to_seconds(driver.end_tick)
    if traced:
        out["layers_s"] = tracer.layer_self_times(profiler)
        out["spans"] = trace.span_stats()
        out["scheduled"] = dict(trace.scheduled)
        if cfg.get("trace_out"):
            trace.write(cfg["trace_out"])
    return out


def main(argv) -> int:
    spawn_ns = int(argv[1])
    cfg = json.loads(argv[2])
    try:
        out = run_rep(cfg, spawn_ns)
    except Exception:  # the runner counts a raising run as failed
        out = {"error": traceback.format_exc()}
    print(MARKER + json.dumps(out, sort_keys=True))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
