"""Registered sweep-cell runners.

Each runner is a module-level function (picklable by name across the
process-pool boundary) that builds one simulated machine, runs it, and
returns a JSON-able dict.  The experiment drivers in
:mod:`repro.experiments` express their sweeps as lists of
:class:`repro.perf.pool.SweepCell` naming these runners, so the same cell
code serves both the serial and the parallel path.

Most cells are a run spec (:mod:`repro.snapshot.runs`) handed to the
``run`` runner: every Figure 8–11 cell is an ``ExperimentRun``, and the
defense and cluster matrices use their own run kinds.  The ablation
runners keep plain parameters because they change the machine in ways no
spec field describes; the campaign, crash-injection and chaos-matrix
runners return verdicts rather than run results.

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
# Replayable-run cell (the figure, defense and cluster sweeps)
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
