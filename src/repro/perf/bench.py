"""Wall-clock benchmark suite — ``python -m repro bench``.

Measurements written to ``BENCH_sim.json`` in a stable schema
(``escort-bench/1``) so the perf trajectory is tracked across changes:

1. **End-to-end run wall-clock**: one representative Figure-9-style cell
   (accounting config, SYN flood) through the full snapshot driver.  Its
   events/sec is the headline the CI bench gate guards.
2. **Demux dispatch** (:mod:`repro.perf.microbench`; ``--skip-micro``
   leaves it out).
3. **Sweep wall-clock** at 1/2/4 workers on a small Figure-9 grid, giving
   the parallel-efficiency numbers for this host (``--skip-sweep``).
4. **Observability overhead**, on request (``--obs-overhead``).

Timings use the best of N repetitions (minimum is the standard estimator
for noisy wall-clock measurement); simulated results are deterministic, so
repetitions only de-noise the clock, never the workload.  The repository
benchmark proper — host time per simulated second on attack workloads,
with median and spread — is ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict

SCHEMA = "escort-bench/1"


def _best_of(fn: Callable[[], float], reps: int) -> float:
    return min(fn() for _ in range(max(1, reps)))


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def bench_end_to_end(clients: int = 8, syn_rate: int = 1000,
                     warmup_s: float = 0.3, measure_s: float = 1.0,
                     reps: int = 2) -> Dict:
    """One representative experiment cell through the snapshot driver."""
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import ExperimentRun, reset_ids

    stats = {}

    def once() -> float:
        reset_ids()
        run = ExperimentRun("accounting", clients=clients,
                            syn_rate=syn_rate, untrusted_cap=8,
                            warmup_s=warmup_s, measure_s=measure_s)
        driver = RunDriver(run)
        t0 = time.perf_counter()
        driver.run_all()
        dt = time.perf_counter() - t0
        stats["events"] = driver.sim.events_processed
        stats["queue_health"] = driver.sim.queue_health()
        return dt

    wall = _best_of(once, reps)
    return {
        "clients": clients,
        "syn_rate": syn_rate,
        "simulated_s": warmup_s + measure_s,
        "wall_s": round(wall, 4),
        "events": stats["events"],
        "events_per_sec": round(stats["events"] / wall),
        "queue_health": stats["queue_health"],
    }


# ----------------------------------------------------------------------
# Observability overhead
# ----------------------------------------------------------------------
def bench_obs_overhead(clients: int = 8, reps: int = 2,
                       quick: bool = False) -> Dict:
    """Events/sec of one adaptive defense cell, obs-off vs obs-on.

    The obs-on leg attaches a full :class:`~repro.obs.session.ObsSession`
    with a flight-recorder sidecar in a temp directory — the worst case a
    user can switch on with ``--obs``.  Reports the throughput fraction
    lost and whether the two legs' state digests matched (they must: the
    session is a pure observer).  ``python -m repro bench --obs-overhead
    --obs-budget 0.05`` gates on the fraction.

    The legs alternate and each repetition starts from a fresh collection,
    so a slow phase of the host or garbage left by earlier work in the
    process lands on both legs alike instead of on whichever ran second.
    """
    import gc
    import shutil
    import tempfile

    from repro.defense.run import DefenseRun
    from repro.obs import ObsSession
    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import reset_ids

    kw = dict(adaptive=True, seed=1, clients=clients,
              syn_rate=200, syn_ramp_to=3000, syn_ramp_s=1.0,
              warmup_s=0.2 if quick else 0.4,
              measure_s=0.6 if quick else 1.5)
    stats: Dict = {}

    def once(obs: bool) -> float:
        reset_ids()
        run = DefenseRun("synflood", **kw)
        driver = RunDriver(run)
        session = None
        obs_dir = None
        if obs:
            obs_dir = tempfile.mkdtemp(prefix="bench-obs-")
            session = ObsSession(obs_dir).attach(driver)
        gc.collect()
        t0 = time.perf_counter()
        driver.run_all()
        dt = time.perf_counter() - t0
        key = "on" if obs else "off"
        stats[f"events_{key}"] = driver.sim.events_processed
        stats[f"digest_{key}"] = run.digest()
        if session is not None:
            session.finish()
            shutil.rmtree(obs_dir, ignore_errors=True)
        return dt

    walls: Dict[bool, list] = {False: [], True: []}
    for _ in range(max(1, reps)):
        for obs in (False, True):
            walls[obs].append(once(obs))
    wall_off, wall_on = min(walls[False]), min(walls[True])
    eps_off = stats["events_off"] / wall_off
    eps_on = stats["events_on"] / wall_on
    return {
        "events": stats["events_off"],
        "baseline_wall_s": round(wall_off, 4),
        "obs_wall_s": round(wall_on, 4),
        "baseline_events_per_sec": round(eps_off),
        "obs_events_per_sec": round(eps_on),
        "overhead_frac": round(max(0.0, 1.0 - eps_on / eps_off), 4),
        "digests_identical": stats["digest_off"] == stats["digest_on"],
    }


# ----------------------------------------------------------------------
# Sweep scaling
# ----------------------------------------------------------------------
def bench_sweep(worker_counts=(1, 2, 4), quick: bool = False) -> Dict:
    """Figure-9 grid wall-clock at several worker counts."""
    from repro.experiments.figure9 import run_figure9

    kw = dict(client_counts=(2, 4) if quick else (4, 8, 16),
              configs=("accounting",) if quick else
                      ("accounting", "accounting_pd"),
              syn_rate=500,
              warmup_s=0.2 if quick else 0.4,
              measure_s=0.3 if quick else 0.8)
    n_cells = (len(kw["client_counts"]) * len(kw["configs"]) * 2)

    walls: Dict[str, float] = {}
    reference = None
    for workers in worker_counts:
        t0 = time.perf_counter()
        result = run_figure9(workers=workers, **kw)
        walls[str(workers)] = round(time.perf_counter() - t0, 4)
        blob = json.dumps([result.series, result.syn_stats], sort_keys=True)
        if reference is None:
            reference = blob
        elif blob != reference:
            raise AssertionError(
                f"sweep at workers={workers} diverged from serial results")
    out = {"cells": n_cells, "wall_s": walls,
           "results_identical_across_worker_counts": True}
    if "1" in walls and "4" in walls and walls["4"] > 0:
        out["speedup_4_workers"] = round(walls["1"] / walls["4"], 3)
    if "1" in walls and "2" in walls and walls["2"] > 0:
        out["speedup_2_workers"] = round(walls["1"] / walls["2"], 3)
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_bench(quick: bool = False, output: str = "BENCH_sim.json",
              skip_sweep: bool = False, skip_micro: bool = False,
              obs_overhead: bool = False) -> Dict:
    """Run the full suite and write ``BENCH_sim.json``."""
    report = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "end_to_end": bench_end_to_end(
            clients=4 if quick else 8,
            warmup_s=0.2 if quick else 0.3,
            measure_s=0.3 if quick else 1.0,
            reps=1 if quick else 2),
    }
    if obs_overhead:
        report["obs_overhead"] = bench_obs_overhead(
            clients=4 if quick else 8,
            reps=1 if quick else 2, quick=quick)
    if not skip_micro:
        from repro.perf.microbench import run_microbench
        report["microbench"] = run_microbench(quick=quick)
    if not skip_sweep:
        report["sweep"] = bench_sweep(
            worker_counts=(1, 2) if quick else (1, 2, 4), quick=quick)
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def alloc_profile(clients: int = 4, syn_rate: int = 1000,
                  top: int = 12) -> Dict:
    """Profile allocation sites of one end-to-end run via tracemalloc.

    Backs ``python -m repro bench --alloc-profile``.  Runs several times
    slower than the plain bench (tracemalloc hooks every allocation), so
    it is an on-demand diagnostic, never part of the gated suite.
    """
    import tracemalloc

    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import ExperimentRun, reset_ids

    reset_ids()
    run = ExperimentRun("accounting", clients=clients, syn_rate=syn_rate,
                        untrusted_cap=8, warmup_s=0.2, measure_s=0.3)
    driver = RunDriver(run)
    tracemalloc.start(10)
    before = tracemalloc.take_snapshot()
    driver.run_all()
    after = tracemalloc.take_snapshot()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    events = driver.sim.events_processed
    sites = []
    for stat in after.compare_to(before, "lineno")[:top]:
        frame = stat.traceback[0]
        sites.append({
            "site": f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}",
            "size_kib": round(stat.size_diff / 1024, 1),
            "count": stat.count_diff,
        })
    return {
        "events": events,
        "peak_kib": round(peak / 1024, 1),
        "retained_kib": round(current / 1024, 1),
        "bytes_per_event": round(peak / max(1, events), 1),
        "top_sites": sites,
    }


def format_alloc_profile(profile: Dict) -> str:
    """Human-readable allocation-site table."""
    lines = [f"alloc profile: {profile['events']:,} events, "
             f"peak {profile['peak_kib']:,.0f} KiB "
             f"({profile['bytes_per_event']:.0f} B/event), "
             f"retained {profile['retained_kib']:,.0f} KiB",
             f"  {'size':>10}  {'count':>9}  site"]
    for site in profile["top_sites"]:
        lines.append(f"  {site['size_kib']:>8,.1f}K  {site['count']:>9,}  "
                     f"{site['site']}")
    return "\n".join(lines)


def format_report(report: Dict) -> str:
    """Human-readable one-screen summary of a bench report."""
    lines = [f"bench ({report['schema']}, "
             f"{report['host']['cpu_count']} cpus, "
             f"python {report['host']['python']})"]
    e2e = report["end_to_end"]
    lines.append(f"  end-to-end    {e2e['wall_s']:>10.3f} s     "
                 f"({e2e['events']:,} events, "
                 f"{e2e['events_per_sec']:,} ev/s)")
    obs = report.get("obs_overhead")
    if obs:
        match = "identical" if obs["digests_identical"] else "DIVERGED"
        lines.append(f"  obs overhead  {obs['overhead_frac']:>11.1%}      "
                     f"({obs['obs_events_per_sec']:,} ev/s on vs "
                     f"{obs['baseline_events_per_sec']:,} off; "
                     f"digests {match})")
    micro = report.get("microbench")
    if micro:
        demux = micro["demux"]
        lines.append(f"  demux         {demux['classifications_per_sec']:>12,} cls/s  "
                     f"({demux['modules_consulted']} modules per packet)")
    sweep = report.get("sweep")
    if sweep:
        per_w = ", ".join(f"{w}w={s:.2f}s"
                          for w, s in sorted(sweep["wall_s"].items()))
        extra = ""
        if "speedup_4_workers" in sweep:
            extra = f"   (4-worker speedup {sweep['speedup_4_workers']:.2f}x)"
        lines.append(f"  sweep         {sweep['cells']} cells: {per_w}{extra}")
    return "\n".join(lines)
