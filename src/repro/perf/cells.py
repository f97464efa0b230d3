"""Registered sweep-cell runners.

Each runner is a module-level function (picklable by name across the
process-pool boundary) that builds one simulated machine from plain
parameters, runs one measurement, and returns a JSON-able dict.  The
experiment drivers in :mod:`repro.experiments` express their sweeps as
lists of :class:`repro.perf.pool.SweepCell` naming these runners, so the
same cell code serves both the serial and the parallel path.

Every cell starts from :func:`repro.snapshot.runs.reset_ids`: object ids
restart at 1 for each cell, in workers and in-process alike, which is what
makes serial and parallel sweep results byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

CELL_RUNNERS: Dict[str, Callable[..., Any]] = {}


def cell_runner(name: str) -> Callable:
    """Register a cell function under ``name``."""
    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        CELL_RUNNERS[name] = fn
        return fn
    return deco


def run_cell(runner: str, params: Dict[str, Any]) -> Any:
    """Run one registered cell with fresh object ids."""
    fn = CELL_RUNNERS.get(runner)
    if fn is None:
        raise KeyError(f"unknown cell runner {runner!r} "
                       f"(known: {', '.join(sorted(CELL_RUNNERS))})")
    from repro.snapshot.runs import reset_ids
    reset_ids()
    return fn(**params)


# ----------------------------------------------------------------------
# Figure cells (the measurement bodies match the serial drivers exactly)
# ----------------------------------------------------------------------
@cell_runner("figure8")
def figure8_cell(config: str, clients: int, document: str,
                 warmup_s: float, measure_s: float) -> Dict[str, Any]:
    """One Figure-8 cell: N clients fetching one document, no attack."""
    from repro.experiments.harness import Testbed
    bed = Testbed.by_name(config)
    bed.add_clients(clients, document=document)
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"cps": run.connections_per_second}


def figure9_run(config: str, clients: int, attack: bool, document: str,
                syn_rate: int, untrusted_cap: int, warmup_s: float,
                measure_s: float):
    """The replayable run of one Figure-9 cell (no flood unless
    ``attack``)."""
    from repro.snapshot.runs import ExperimentRun

    return ExperimentRun(config, clients=clients, document=document,
                         syn_rate=syn_rate if attack else 0,
                         untrusted_cap=untrusted_cap,
                         warmup_s=warmup_s, measure_s=measure_s)


@cell_runner("figure9")
def figure9_cell(checkpoint_dir: str = None,
                 checkpoint_every_s: float = None,
                 **cell) -> Dict[str, Any]:
    """One Figure-9 cell (``cell``: :func:`figure9_run`'s arguments)."""
    from repro.snapshot.driver import RunDriver

    driver = RunDriver(figure9_run(**cell))
    if checkpoint_dir and checkpoint_every_s:
        stem = (f"fig9-{cell['config']}-{cell['clients']}-"
                f"{'attack' if cell['attack'] else 'base'}")
        res, _ = driver.run_with_checkpoints(checkpoint_every_s,
                                             checkpoint_dir, stem)
    else:
        res = driver.run_all()
    return {"cps": res.connections_per_second,
            "syn_sent": res.syn_sent,
            "syn_dropped": res.syn_dropped_at_demux}


@cell_runner("figure10")
def figure10_cell(config: str, clients: int, with_qos: bool, document: str,
                  warmup_s: float, measure_s: float) -> Dict[str, Any]:
    """One Figure-10 cell: client load with or without the QoS stream."""
    from repro.experiments.figure10 import QOS_TARGET_BPS
    from repro.experiments.harness import Testbed
    from repro.policy import QosPolicy

    bed = Testbed.by_name(config, policies=[QosPolicy(QOS_TARGET_BPS)])
    bed.add_clients(clients, document=document)
    if with_qos:
        bed.add_qos_receiver()
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"cps": run.connections_per_second,
            "qos_bw": run.qos_bandwidth_bps,
            "qos_windows": list(run.qos_windows)}


@cell_runner("figure11")
def figure11_cell(config: str, attackers: int, clients: int, document: str,
                  warmup_s: float, measure_s: float) -> Dict[str, Any]:
    """One Figure-11 cell: QoS stream + clients + N CGI attackers."""
    from repro.experiments.figure11 import QOS_TARGET_BPS
    from repro.experiments.harness import Testbed
    from repro.policy import QosPolicy, RunawayPolicy

    bed = Testbed.by_name(config, policies=[
        QosPolicy(QOS_TARGET_BPS), RunawayPolicy(2.0)])
    bed.add_clients(clients, document=document)
    bed.add_qos_receiver()
    if attackers:
        bed.add_cgi_attackers(attackers)
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"cps": run.connections_per_second,
            "qos_bw": run.qos_bandwidth_bps,
            "kills": run.runaway_kills}


# ----------------------------------------------------------------------
# Ablation cells
# ----------------------------------------------------------------------
@cell_runner("ablation-domains")
def ablation_domains_cell(domains: int, clients: int,
                          warmup_s: float, measure_s: float) -> Dict[str, Any]:
    """One domain-granularity ablation cell."""
    from repro.experiments.ablation import GROUPINGS
    from repro.experiments.harness import Testbed

    bed = Testbed.escort(accounting=True, protection_domains=True,
                         domain_groups=GROUPINGS[domains])
    bed.add_clients(clients, document="/doc-1")
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"cps": run.connections_per_second}


@cell_runner("ablation-crossing")
def ablation_crossing_cell(factor: float, clients: int,
                           warmup_s: float, measure_s: float) -> Dict[str, Any]:
    """One crossing-cost ablation cell (scaled PD costs)."""
    from dataclasses import replace

    from repro.experiments.harness import Testbed
    from repro.sim.costs import CostModel

    base = CostModel.default()
    costs = replace(
        base,
        pd_crossing=int(base.pd_crossing * factor),
        demux_pd_penalty=int(base.demux_pd_penalty * factor))
    bed = Testbed.escort(accounting=True, protection_domains=True,
                         costs=costs)
    bed.add_clients(clients, document="/doc-1")
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"crossing": costs.pd_crossing,
            "cps": run.connections_per_second}


@cell_runner("ablation-early-drop")
def ablation_early_drop_cell(early: bool, clients: int, syn_rate: int,
                             warmup_s: float, measure_s: float
                             ) -> Dict[str, Any]:
    """One early-vs-late SYN-drop ablation cell."""
    from repro.experiments.harness import TRUSTED_SUBNET, Testbed
    from repro.policy import SynFloodPolicy

    policy = SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=16)
    bed = Testbed.escort(accounting=True, policies=[policy])
    bed.add_clients(clients, document="/doc-1")
    bed.add_syn_attacker(syn_rate)
    if not early:
        # Disable the demux-time check: the cap is then enforced only
        # after the SYN has been delivered to the passive path.  Boot
        # first so the passive paths exist (run() re-boots, which is
        # idempotent).
        from repro.sim.clock import seconds_to_ticks
        bed.server.boot()
        bed.sim.run(until=seconds_to_ticks(0.02))
        untrusted = bed.server.http.passive_paths[1]

        def late_demux(dgram, orig=bed.server.tcp.demux,
                       path=untrusted):
            result = orig(dgram)
            if result.kind == "drop" and result.reason == "syn-cap":
                from repro.core.demux import DemuxResult
                return DemuxResult.to_path(path)
            return result

        bed.server.tcp.demux = late_demux
    run = bed.run(warmup_s=warmup_s, measure_s=measure_s)
    return {"cps": run.connections_per_second,
            "early_drops": run.syn_dropped_at_demux}


# ----------------------------------------------------------------------
# Replayable-run cell (the defense and cluster matrices)
# ----------------------------------------------------------------------
@cell_runner("run")
def spec_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One replayable run rebuilt from its spec; returns its result."""
    from dataclasses import asdict

    from repro.snapshot.driver import RunDriver
    from repro.snapshot.runs import run_from_spec

    return asdict(RunDriver(run_from_spec(spec)).run_all())


# ----------------------------------------------------------------------
# Resilience campaign cell
# ----------------------------------------------------------------------
@cell_runner("resilience")
def resilience_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One campaign case: execute a run spec, return its oracle verdict."""
    from repro.resilience.oracle import evaluate_spec
    return evaluate_spec(spec)


# ----------------------------------------------------------------------
# Crash-injection cell (exercises the pool's failure containment)
# ----------------------------------------------------------------------
@cell_runner("crash-injection")
def crash_injection_cell(mode: str = "ok", marker_path: str = None,
                         value: Any = None) -> Dict[str, Any]:
    """Deterministically kill (or crash) the hosting worker process.

    ``kill-once`` SIGKILLs the worker the first time the cell runs and
    succeeds on the requeue (``marker_path`` records the first death);
    ``kill-always`` dies on every attempt, ``raise`` raises, ``ok``
    returns ``{"value": value}``.  Exists for the containment tests and
    for rehearsing sweep behaviour under worker loss.
    """
    import os as _os
    import signal as _signal

    if mode == "kill-always" or (
            mode == "kill-once" and marker_path is not None
            and not _os.path.exists(marker_path)):
        if marker_path is not None:
            open(marker_path, "w").close()
        _os.kill(_os.getpid(), _signal.SIGKILL)
    if mode == "raise":
        raise RuntimeError("injected cell exception")
    return {"value": value}


# ----------------------------------------------------------------------
# Chaos matrix cell
# ----------------------------------------------------------------------
@cell_runner("chaos")
def chaos_cell(scenario: str, seed: int,
               rollback: bool = False) -> Dict[str, Any]:
    """One chaos-matrix cell: a seeded scenario, pass/fail + summary."""
    from repro.chaos import run_scenario
    report = run_scenario(scenario, seed=seed, use_rollback=rollback)
    return {"ok": report.ok, "summary": report.summary()}
