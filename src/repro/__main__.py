"""``python -m repro`` — the reproduction's command line.

With no command it runs a guided tour: the system inventory, one quick
sanity run of each server configuration, and pointers to the longer
drivers.  Every command is one :data:`COMMANDS` entry; ``python -m repro
-h`` lists them and ``python -m repro COMMAND -h`` shows one command's
flags.  A bad flag or spec exits 2 with ``error: ...`` before anything
runs; a sweep cell that produced no result exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, NamedTuple, Tuple

from repro.obs.cli import add_obs_commands, run_obs_command
from repro.perf.pool import parse_workers


def _integer(low=None):
    """An argparse ``type=`` for an integer flag, ``>= low`` when ``low``
    is given.  A bad value makes argparse exit 2 with ``error: argument
    --X: ...`` before anything runs."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def _comma_list(names=None, low=None):
    """An argparse ``type=`` for a comma-separated list flag: items are
    ``names`` when given, else :func:`_integer` values."""
    def name(text):
        if text in names:
            return text
        raise argparse.ArgumentTypeError(
            f"{text!r} is not one of {', '.join(names)}")

    item = _integer(low) if names is None else name
    return lambda text: [item(part.strip()) for part in text.split(",")]


def _seconds_above_zero(text):
    """An argparse ``type=`` for a finite number of seconds above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text} is not a finite number of seconds above 0")
    return value


def _configs_arg(parser, default) -> None:
    """The sweeps' ``--configs``: names :meth:`Testbed.by_name` builds."""
    from repro.experiments.figure8 import CONFIGS
    parser.add_argument("--configs", default=default,
                        type=_comma_list(names=CONFIGS),
                        help=f"comma-separated configurations (of "
                             f"{','.join(CONFIGS)})")


# ----------------------------------------------------------------------
# Shared flag groups
# ----------------------------------------------------------------------
def _obs_flags(parser) -> None:
    """``--obs`` / ``--obs-dir``: record one instrumented cell."""
    parser.add_argument("--obs", action="store_true",
                        help="record deterministic telemetry (metrics "
                             "series, causal spans, flight-recorder "
                             "sidecar) for one instrumented cell; query "
                             "it afterwards with `python -m repro obs`")
    parser.add_argument("--obs-dir", default="obs-out",
                        help="directory for the telemetry sidecar and "
                             "dumps (default: ./obs-out)")


def _perf_flags(parser) -> None:
    """``--workers`` / ``--profile``: the sweeps' process pool and
    cProfile hook."""
    parser.add_argument("--workers", "-j", type=parse_workers, default=0,
                        help="fan sweep cells over N worker processes "
                             "(0/1 = serial; results are byte-identical "
                             "either way)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the run and print the hottest "
                             "frames to stderr")


def _journal_flags(parser) -> None:
    """``--checkpoint-every`` / ``--checkpoint-dir`` / ``--resume``: one
    run journal per run (see :func:`_journaled`)."""
    parser.add_argument("--checkpoint-every", type=_checkpoint_every,
                        default=None, metavar="S",
                        help="journal the run to <checkpoint-dir>/"
                             "<stem>.jrnl with a checkpoint record every "
                             "S simulated seconds")
    parser.add_argument("--checkpoint-dir", default="checkpoints",
                        help="directory for run journals "
                             "(default: ./checkpoints)")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="resume a journaled run from its furthest "
                             "record (digest-verified) instead of "
                             "starting fresh")


def _checkpoint_every(text):
    """``--checkpoint-every``: seconds that round to at least one tick
    (:func:`~repro.snapshot.driver.checkpoint_ticks`), checked while
    parsing so no run starts with a cadence the journal refuses."""
    from repro.snapshot.driver import checkpoint_ticks

    try:
        every_s = float(text)
        checkpoint_ticks(every_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return every_s


def _journaled(driver, args, stem: str):
    """Run ``driver`` to its end; with ``--checkpoint-every``, journaled
    to ``<checkpoint-dir>/<stem>.jrnl``."""
    if args.checkpoint_every is None:
        return driver.run_all()
    result, journal = driver.run_with_checkpoints(
        args.checkpoint_every, args.checkpoint_dir, stem)
    print(f"(journal: {journal})")
    return result


def _replay_check(run, label: str) -> bool:
    """Record ``run``, then replay it in per-event lockstep."""
    from dataclasses import replace

    from repro.snapshot import record, replay

    _, recording = record(replace(run))
    report = replay(recording)
    if report.ok:
        print(f"replay check OK: {label} reproduced "
              f"{report.events_replayed} events bit for bit")
        return True
    print("REPLAY CHECK FAILED", file=sys.stderr)
    print(report.divergence.describe(), file=sys.stderr)
    return False


# ----------------------------------------------------------------------
# chaos / experiment
# ----------------------------------------------------------------------
def _chaos_flags(parser) -> None:
    parser.add_argument("--scenario", "-s", default=None,
                        help="scenario name (default: run every scenario)")
    parser.add_argument("--seed", "-n", type=int, default=1,
                        help="fault-schedule seed (default 1); the same "
                             "scenario+seed always reproduces the same run")
    parser.add_argument("--list", "-l", action="store_true",
                        dest="list_them", help="list scenarios and exit")
    parser.add_argument("--rollback", action="store_true",
                        help="arm the watchdog's snapshot/rollback rung")
    parser.add_argument("--workers", "-j", type=parse_workers, default=0,
                        help="run the scenario matrix on N worker "
                             "processes (ignored with --checkpoint-every "
                             "or --resume)")


def _chaos(args) -> int:
    from repro.chaos import ChaosRun, list_scenarios
    from repro.snapshot import RunDriver

    if args.list_them:
        for name, description in list_scenarios():
            print(f"{name}")
            print(f"    {description}")
        return 0

    if args.resume:
        driver, record = RunDriver.resume(args.resume)
        print(f"resumed {driver.run.spec()} at tick {record['tick']} "
              f"({record['events']} events); continuing...")
        report = _journaled(driver, args, "chaos")
        print(report.summary())
        return 0 if report.ok else 1

    names = ([args.scenario] if args.scenario
             else [n for n, _ in list_scenarios()])
    runs = [ChaosRun(name, args.seed, use_rollback=args.rollback)
            for name in names]

    if args.obs:
        from repro.obs import run_with_obs
        report, session = run_with_obs(runs[0], args.obs_dir)
        print(report.summary())
        print()
        print(session.describe())
        return 0 if report.ok else 1

    if args.workers > 1 and args.checkpoint_every is None and len(names) > 1:
        from repro.perf.pool import SweepCell, completed, run_cells
        merged = completed(run_cells(
            [SweepCell(key=name, runner="chaos",
                       params=dict(scenario=name, seed=args.seed,
                                   rollback=args.rollback))
             for name in names], workers=args.workers))
        for name in names:
            print(merged[name]["summary"])
            print()
        return 0 if all(cell["ok"] for cell in merged.values()) else 1

    failed = 0
    for run in runs:
        report = _journaled(RunDriver(run), args,
                            f"chaos-{run.scenario}-{args.seed}")
        print(report.summary())
        print()
        failed += not report.ok
    return 1 if failed else 0


def _experiment_flags(parser) -> None:
    parser.add_argument("--config", default="accounting",
                        choices=["scout", "accounting", "accounting_pd"])
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--document", default="/doc-1k")
    parser.add_argument("--syn-rate", type=int, default=0,
                        help="SYN flood rate/s (0 = no attack)")
    parser.add_argument("--untrusted-cap", type=int, default=16)
    parser.add_argument("--cgi-attackers", type=int, default=0,
                        help="runaway-CGI attackers, met by the 2 ms kill")
    parser.add_argument("--qos", action="store_true",
                        help="add the 1 MBps stream and its CPU "
                             "reservation")
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--measure", type=float, default=5.0)


def _experiment(args) -> int:
    from repro.snapshot import ExperimentRun, RunDriver

    if args.resume:
        driver, record = RunDriver.resume(args.resume)
        print(f"resumed at tick {record['tick']} "
              f"({record['events']} events, digest verified)")
    else:
        driver = RunDriver(ExperimentRun(
            args.config, clients=args.clients, document=args.document,
            syn_rate=args.syn_rate, untrusted_cap=args.untrusted_cap,
            cgi_attackers=args.cgi_attackers, qos=args.qos,
            warmup_s=args.warmup, measure_s=args.measure))
    session = None
    if args.obs:
        from repro.obs import attach_obs
        session = attach_obs(driver, args.obs_dir)
    result = _journaled(driver, args, "experiment")
    if session is not None:
        session.finish()
        print(session.describe())

    print(f"{result.connections_per_second:.1f} conn/s "
          f"({result.client_completions} completed, "
          f"{result.client_failures} failed)")
    if result.syn_sent:
        print(f"SYN flood: {result.syn_dropped_at_demux}/{result.syn_sent} "
              f"dropped at demux")
    return 0


# ----------------------------------------------------------------------
# The paper's sweeps
# ----------------------------------------------------------------------
def _figure8_flags(parser) -> None:
    from repro.experiments.figure8 import DOCUMENTS

    parser.add_argument("--clients", default="1,2,4,8,16,32,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _configs_arg(parser, "linux,scout,accounting,accounting_pd")
    parser.add_argument("--docs", default="1B,1KB,10KB",
                        type=_comma_list(names=DOCUMENTS),
                        help="document labels to sweep (of 1B,1KB,10KB)")
    parser.add_argument("--warmup", type=float, default=0.6)
    parser.add_argument("--measure", type=float, default=1.5)


def _figure8(args) -> int:
    from repro.experiments.figure8 import DOCUMENTS, run_figure8

    print(run_figure8(
        client_counts=args.clients, configs=args.configs,
        docs={label: DOCUMENTS[label] for label in args.docs},
        warmup_s=args.warmup, measure_s=args.measure,
        workers=args.workers).format())
    return 0


def _figure_cell_flags(parser, warmup: float, measure: float) -> None:
    """The flags Figures 9–11 share: configs, document and the window."""
    _configs_arg(parser, "accounting,accounting_pd")
    parser.add_argument("--document", default="/doc-1")
    parser.add_argument("--warmup", type=float, default=warmup)
    parser.add_argument("--measure", type=float, default=measure)


def _figure9_flags(parser) -> None:
    parser.add_argument("--clients", default="16,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _figure_cell_flags(parser, warmup=2.0, measure=2.0)
    parser.add_argument("--syn-rate", type=int, default=1000)
    parser.add_argument("--untrusted-cap", type=int, default=16)
    parser.add_argument("--checkpoint-dir", default=None,
                        help="cache finished cells here and resume an "
                             "interrupted sweep (with --supervised, "
                             "in-flight cells too)")
    parser.add_argument("--supervised", action="store_true",
                        help="run each cell in a crash-only supervised "
                             "child process (hang detection, "
                             "SIGKILL-anywhere resume, bounded retries)")


def _figure9(args) -> int:
    from repro.experiments.figure9 import run_figure9

    print(run_figure9(
        client_counts=args.clients, configs=args.configs,
        document=args.document, syn_rate=args.syn_rate,
        untrusted_cap=args.untrusted_cap, warmup_s=args.warmup,
        measure_s=args.measure, checkpoint_dir=args.checkpoint_dir,
        workers=args.workers, supervised=args.supervised).format())
    return 0


def _figure10_flags(parser) -> None:
    parser.add_argument("--clients", default="16,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _figure_cell_flags(parser, warmup=2.0, measure=3.0)


def _figure10(args) -> int:
    from repro.experiments.figure10 import run_figure10

    print(run_figure10(
        client_counts=args.clients, configs=args.configs,
        document=args.document, warmup_s=args.warmup,
        measure_s=args.measure, workers=args.workers).format())
    return 0


def _figure11_flags(parser) -> None:
    parser.add_argument("--attackers", default="0,1,10,50",
                        type=_comma_list(low=0),
                        help="comma-separated CGI attacker counts")
    parser.add_argument("--clients", type=int, default=64)
    _figure_cell_flags(parser, warmup=1.5, measure=3.0)


def _figure11(args) -> int:
    from repro.experiments.figure11 import run_figure11

    print(run_figure11(
        attacker_counts=args.attackers, configs=args.configs,
        clients=args.clients, document=args.document,
        warmup_s=args.warmup, measure_s=args.measure,
        workers=args.workers).format())
    return 0


def _ablation_flags(parser) -> None:
    parser.add_argument("--sweep", default="all",
                        choices=["all", "domains", "crossing", "early-drop"])
    parser.add_argument("--clients", type=_integer(low=0), default=64)


def _ablation(args) -> int:
    from repro.experiments.ablation import (
        run_crossing_cost_sweep,
        run_domain_sweep,
        run_early_drop_ablation,
    )

    if args.sweep in ("all", "domains"):
        print(run_domain_sweep(clients=args.clients,
                               workers=args.workers).format())
        print()
    if args.sweep in ("all", "crossing"):
        print(run_crossing_cost_sweep(clients=args.clients,
                                      workers=args.workers).format())
        print()
    if args.sweep in ("all", "early-drop"):
        print(run_early_drop_ablation(clients=min(args.clients, 32),
                                      workers=args.workers).format())
    return 0


# ----------------------------------------------------------------------
# defense / cluster
# ----------------------------------------------------------------------
def _attack_ramp_flags(parser) -> None:
    """The flags defense and cluster share: load and the SYN ramp."""
    parser.add_argument("--seeds", default="1", type=_comma_list(),
                        help="comma-separated seeds (default 1)")
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--document", default="/doc-1k")
    parser.add_argument("--syn-rate", type=int, default=200,
                        help="flood rate at the start of the ramp")
    parser.add_argument("--syn-ramp-to", type=int, default=4000,
                        help="flood rate at the end of the ramp")
    parser.add_argument("--syn-ramp-s", type=float, default=1.5)


def _defense_flags(parser) -> None:
    parser.add_argument("--attacks", default="synflood,runaway-cgi",
                        help="comma-separated attack profiles (of "
                             "synflood,runaway-cgi,mixed)")
    _attack_ramp_flags(parser)
    parser.add_argument("--cgi-attackers", type=int, default=8)
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--measure", type=float, default=2.0)
    parser.add_argument("--replay-check", action="store_true",
                        help="record one adaptive cell, replay it in "
                             "lockstep, and verify per-event "
                             "fingerprints match")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless adaptive meets the 80%% "
                             "recovery target on every attack")


def _defense(args) -> int:
    from dataclasses import replace

    from repro.defense.run import DefenseRun
    from repro.experiments.defense import run_defense

    attacks = [a.strip() for a in args.attacks.split(",") if a.strip()]
    if not attacks:
        raise ValueError(f"--attacks {args.attacks!r} names no attack "
                         f"profile")
    seeds = args.seeds
    fields = dict(clients=args.clients, document=args.document,
                  syn_rate=args.syn_rate, syn_ramp_to=args.syn_ramp_to,
                  syn_ramp_s=args.syn_ramp_s,
                  cgi_attackers=args.cgi_attackers,
                  warmup_s=args.warmup, measure_s=args.measure)
    # The instrumented cell; every flag is checked before a cell runs.
    base = DefenseRun(attacks[0], adaptive=True, seed=seeds[0], **fields)
    for attack in attacks[1:]:
        replace(base, attack=attack)

    if args.replay_check:
        if not _replay_check(base, f"{base.attack} seed={base.seed} "
                                   f"adaptive cell"):
            return 1
        print()

    if args.obs:
        from repro.obs import run_with_obs
        _, session = run_with_obs(base, args.obs_dir)
        print(f"instrumented adaptive cell: {attacks[0]} seed={seeds[0]}")
        print(session.describe())
        print()

    result = run_defense(attacks=attacks, seeds=seeds,
                         workers=args.workers, **fields)
    print(result.format())
    if args.strict:
        bad = [a for a in attacks if not result.adaptive_meets_target(a)]
        if bad:
            print(f"\nFAIL: adaptive below recovery target on: "
                  f"{', '.join(bad)}", file=sys.stderr)
            return 1
    return 0


def _cluster_flags(parser) -> None:
    parser.add_argument("--sizes", default="1,3", type=_comma_list(low=0),
                        help="comma-separated replica counts (default 1,3)")
    _attack_ramp_flags(parser)
    parser.add_argument("--chaos-at", type=float, default=0.5,
                        help="crash offset into the window (seconds)")
    parser.add_argument("--chaos-restore", type=float, default=1.7,
                        help="cold-restart offset into the window")
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--measure", type=float, default=2.5)
    parser.add_argument("--replay-check", action="store_true",
                        help="record one attacked cell at the largest "
                             "size, replay it in lockstep, and verify "
                             "per-event fingerprints match")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless the replicated cluster meets "
                             "the 70%% recovery target and the single "
                             "replica collapses")


def _cluster(args) -> int:
    from dataclasses import replace

    from repro.cluster.run import ClusterRun
    from repro.experiments.cluster import run_cluster

    sizes, seeds = args.sizes, args.seeds
    fields = dict(clients=args.clients, document=args.document,
                  syn_rate=args.syn_rate, syn_ramp_to=args.syn_ramp_to,
                  syn_ramp_s=args.syn_ramp_s, chaos_at_s=args.chaos_at,
                  chaos_restore_s=args.chaos_restore,
                  warmup_s=args.warmup, measure_s=args.measure)
    # The instrumented cell; every flag is checked before a cell runs.
    base = ClusterRun("crash", replicas=max(sizes), seed=seeds[0], **fields)
    for size in sizes:
        replace(base, replicas=size)

    if args.replay_check:
        if not _replay_check(base, f"crash cell (n={base.replicas}, "
                                   f"seed={base.seed})"):
            return 1
        print()

    if args.obs:
        from repro.obs import run_with_obs
        _, session = run_with_obs(base, args.obs_dir)
        print(f"instrumented crash cell: n={base.replicas} seed={base.seed}")
        print(session.describe())
        print()

    result = run_cluster(sizes=sizes, seeds=seeds, workers=args.workers,
                         **fields)
    print(result.format())
    if args.strict and not result.meets_target():
        print("\nFAIL: cluster recovery targets not met", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def _bench_flags(parser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke run)")
    parser.add_argument("--output", "-o", default="BENCH_sim.json",
                        help="report path (default BENCH_sim.json; '-' "
                             "to skip writing)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the multi-worker sweep benchmark")
    parser.add_argument("--skip-micro", action="store_true",
                        help="skip the microbenchmark section")
    parser.add_argument("--baseline", default=None, metavar="JSON",
                        help="compare against a committed BENCH_sim.json "
                             "and fail on events/sec regression")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        metavar="FRAC",
                        help="allowed events/sec slowdown vs the baseline "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--alloc-profile", action="store_true",
                        help="skip the benchmarks; profile allocation "
                             "sites of one end-to-end run via tracemalloc")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="also measure the events/sec cost of an "
                             "attached observability session (one "
                             "adaptive defense cell, obs-off vs obs-on)")
    parser.add_argument("--obs-budget", type=float, default=0.05,
                        metavar="FRAC",
                        help="with --obs-overhead: allowed throughput "
                             "fraction lost obs-on (default 0.05 = 5%%); "
                             "exceeding it fails the run")


def _bench(args) -> int:
    from repro.perf.bench import (
        alloc_profile, format_alloc_profile, format_report, run_bench)

    if args.alloc_profile:
        print(format_alloc_profile(alloc_profile()))
        return 0

    report = run_bench(quick=args.quick,
                       output=None if args.output == "-" else args.output,
                       skip_sweep=args.skip_sweep,
                       skip_micro=args.skip_micro,
                       obs_overhead=args.obs_overhead)
    print(format_report(report))
    if args.output != "-":
        print(f"wrote {args.output}")
    rc = 0
    if args.baseline:
        rc = _bench_guard(report, args.baseline, args.max_regression)
    if args.obs_overhead:
        obs = report["obs_overhead"]
        if not obs["digests_identical"]:
            print("FAIL: obs-on digest diverged from obs-off — the "
                  "observer perturbed the run", file=sys.stderr)
            return 1
        verdict = "OK" if obs["overhead_frac"] <= args.obs_budget \
            else "OVER BUDGET"
        print(f"obs guard: {obs['overhead_frac']:.1%} overhead vs "
              f"{args.obs_budget:.0%} budget: {verdict}")
        if obs["overhead_frac"] > args.obs_budget:
            print(f"FAIL: obs overhead {obs['overhead_frac']:.1%} "
                  f"exceeds budget {args.obs_budget:.0%}",
                  file=sys.stderr)
            return 1
    return rc


def _bench_guard(report, baseline_path: str, max_regression: float) -> int:
    """Fail when the end-to-end events/sec headline regressed past the
    allowance.

    Wall-clock benchmarks are noisy across machines, so the guard only
    compares the headline and only in the slower direction; the committed
    baseline stays put until someone deliberately re-bases it with
    ``python -m repro bench -o BENCH_sim.json``.
    """
    import json
    import os

    rebase_hint = (f"create/refresh it from a healthy checkout with:\n"
                   f"  python -m repro bench -o {baseline_path}")
    if not os.path.exists(baseline_path):
        print(f"error: baseline {baseline_path} does not exist — nothing "
              f"to guard against.\n{rebase_hint}", file=sys.stderr)
        return 2
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: baseline {baseline_path} is not valid JSON "
              f"({exc}) — it may be truncated or hand-edited.\n"
              f"{rebase_hint}", file=sys.stderr)
        return 2
    headline = (baseline.get("end_to_end")
                if isinstance(baseline, dict) else None)
    if not isinstance(headline, dict) or "events_per_sec" not in headline:
        shape = (", ".join(sorted(baseline)) or "(empty)") \
            if isinstance(baseline, dict) else type(baseline).__name__
        print(f"error: baseline {baseline_path} is valid JSON but does "
              f"not look like a bench report (no end_to_end."
              f"events_per_sec; top level: {shape}).  It may predate "
              f"the current report schema.\n{rebase_hint}",
              file=sys.stderr)
        return 2
    base = headline["events_per_sec"]
    cur = report.get("end_to_end", {}).get("events_per_sec")
    if cur is None:
        print("bench guard: baseline has an end-to-end headline but this "
              "run skipped that section; not compared")
        return 0
    floor = base * (1.0 - max_regression)
    verdict = "OK" if cur >= floor else "REGRESSION"
    print(f"bench guard: end-to-end {cur:,.0f} events/s vs baseline "
          f"{base:,.0f} (floor {floor:,.0f} at "
          f"-{max_regression:.0%}): {verdict}")
    if cur < floor:
        print(f"FAIL: end-to-end slowed more than {max_regression:.0%} "
              f"vs {baseline_path}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# record / replay
# ----------------------------------------------------------------------
def _record_flags(parser) -> None:
    parser.add_argument("--scenario", "-s", required=True)
    parser.add_argument("--seed", "-n", type=int, default=1)
    parser.add_argument("--every", type=int, default=2000,
                        help="full-digest journal cadence in events")
    parser.add_argument("--output", "-o", required=True)


def _record(args) -> int:
    from repro.chaos import ChaosRun
    from repro.snapshot import record

    report, recording = record(ChaosRun(args.scenario, args.seed),
                               every_events=args.every)
    recording.save(args.output)
    print(f"recorded {recording.events_total} events "
          f"({len(recording.entries)} digest entries) -> {args.output}")
    print(report.summary())
    return 0


def _replay_flags(parser) -> None:
    parser.add_argument("recording", nargs="?", default=None,
                        help="recording file written by `record`")
    parser.add_argument("--scenario", "-s", default=None,
                        help="self-check: record+replay this scenario "
                             "in-process instead of reading a file")
    parser.add_argument("--seed", "-n", type=int, default=1)
    parser.add_argument("--every", type=int, default=2000)


def _replay(args) -> int:
    from repro.snapshot import Recording, record, replay

    if args.recording:
        recording = Recording.load(args.recording)
    elif args.scenario:
        from repro.chaos import ChaosRun
        print(f"recording {args.scenario} seed={args.seed}...")
        _, recording = record(ChaosRun(args.scenario, args.seed),
                              every_events=args.every)
    else:
        raise ValueError("give a recording file or --scenario")
    report = replay(recording)

    if report.ok:
        print(f"replay OK: {report.events_replayed} events reproduced "
              f"bit for bit")
        return 0
    print("REPLAY DIVERGED")
    print(report.divergence.describe())
    return 1


# ----------------------------------------------------------------------
# resilience
# ----------------------------------------------------------------------
def _resilience_flags(parser) -> None:
    sub = parser.add_subparsers(dest="action", required=True)

    def add_target(p):
        p.add_argument("--target", "-t", default="chaos",
                       choices=["chaos", "defense", "cluster"],
                       help="which replayable run kind to stress")
        p.add_argument("--seed", "-n", type=int, default=7,
                       help="campaign seed (default 7); the same "
                            "target+seed+budget always samples the same "
                            "cases")

    p_explore = sub.add_parser(
        "explore", help="sample and grade a budget of fault schedules")
    add_target(p_explore)
    p_explore.add_argument("--budget", "-b", type=int, default=50,
                           help="number of cases to sample (default 50)")
    p_explore.add_argument("--intensity", default=None, metavar="K=V,...",
                           help="base intensity multipliers, e.g. "
                                "rate=2,magnitude=1.5,duration=2")
    p_explore.add_argument("--workers", "-j", type=parse_workers, default=0,
                           help="fan cases over N worker processes "
                                "(results byte-identical to serial)")
    p_explore.add_argument("--cache-dir", default=None,
                           help="persist finished verdicts here and "
                                "resume an interrupted campaign (with "
                                "--supervised, in-flight cases too)")
    p_explore.add_argument("--no-minimize", action="store_true",
                           help="report failures without shrinking them")
    p_explore.add_argument("--max-tests", type=_integer(low=1), default=400,
                           help="oracle-run budget per minimization")
    p_explore.add_argument("--bank", default=None, metavar="DIR",
                           help="bank minimized reproducers into this "
                                "corpus directory")
    p_explore.add_argument("--quiet", action="store_true",
                           help="suppress progress lines (final report "
                                "only)")
    p_explore.add_argument("--supervised", action="store_true",
                           help="run each case in a crash-only supervised "
                                "child process; harness deaths become "
                                "supervision:* verdicts instead of "
                                "killing the campaign")

    p_min = sub.add_parser(
        "minimize", help="shrink one failing sampled case")
    add_target(p_min)
    p_min.add_argument("--case-file", default=None,
                       help="minimize the case in this JSON file instead "
                            "of sampling one from target+seed")
    p_min.add_argument("--max-tests", type=_integer(low=1), default=400)
    p_min.add_argument("--output", "-o", default=None,
                       help="write the minimized case as JSON")

    p_corpus = sub.add_parser(
        "corpus", help="replay the banked regression corpus exactly")
    p_corpus.add_argument("--corpus-dir", default=None,
                          help="corpus directory (default: "
                               "./corpus/ESCORP-1)")


def _resilience(args) -> int:
    from repro.resilience import (Minimizer, default_corpus_dir, explore,
                                  load_entries, replay_corpus)

    if args.action == "explore":
        intensity = None
        if args.intensity:
            try:
                intensity = {k.strip(): float(v) for k, v in
                             (pair.split("=", 1)
                              for pair in args.intensity.split(","))}
            except ValueError:
                raise ValueError(f"bad --intensity {args.intensity!r} "
                                 f"(want rate=2,magnitude=1.5)") from None
        report = explore(args.target, args.seed, args.budget,
                         workers=args.workers, intensity=intensity,
                         cache_dir=args.cache_dir,
                         minimize=not args.no_minimize,
                         max_tests=args.max_tests, bank_dir=args.bank,
                         supervised=args.supervised,
                         log=None if args.quiet else print)
        print(report.format())
        return 1 if report.failures else 0

    if args.action == "minimize":
        import json as _json
        if args.case_file:
            from repro.resilience import case_to_spec
            try:
                with open(args.case_file) as fh:
                    payload = _json.load(fh)
                case = (payload.get("case", payload)
                        if isinstance(payload, dict) else payload)
                case_to_spec(case)  # a bad case fails here, not in a run
            except (OSError, ValueError) as exc:
                raise ValueError(f"{args.case_file}: {exc}") from None
        else:
            from repro.resilience import FaultSpace
            case = FaultSpace(args.target).sample(args.seed)
        result = Minimizer(case, max_tests=args.max_tests, log=print).run()
        print(result.summary())
        for entry in result.case["entries"]:
            print(f"  {entry}")
        if args.output:
            with open(args.output, "w") as fh:
                _json.dump({"case": result.case,
                            "fingerprint": result.fingerprint,
                            "one_minimal": result.one_minimal},
                           fh, sort_keys=True, indent=2)
                fh.write("\n")
            print(f"wrote {args.output}")
        return 0

    corpus_dir = args.corpus_dir or default_corpus_dir()
    entries = load_entries(corpus_dir)
    if not entries:
        print(f"no corpus entries under {corpus_dir}")
        return 2
    print(f"replaying {len(entries)} corpus entr"
          f"{'y' if len(entries) == 1 else 'ies'} from {corpus_dir}:")
    outcomes = replay_corpus(entries, log=print)
    bad = [o for o in outcomes if not o.ok]
    print(f"{len(outcomes) - len(bad)}/{len(outcomes)} replayed exactly")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# supervise
# ----------------------------------------------------------------------
def _supervise_flags(parser) -> None:
    parser.add_argument("--spec-file", default=None, metavar="JSON",
                        help="file holding the run spec to execute "
                             "(any kind: experiment, chaos, defense, "
                             "cluster)")
    parser.add_argument("--kind", default=None,
                        choices=["experiment", "chaos", "defense",
                                 "cluster"],
                        help="run the built-in small reference spec of "
                             "this kind instead of --spec-file")
    parser.add_argument("--state-dir", default=None,
                        help="state directory for job/journal/result "
                             "files (default: a fresh temp dir, which "
                             "--selftest removes when every case "
                             "passed); reusing one resumes its journal")
    parser.add_argument("--max-attempts", type=_integer(low=1), default=3)
    parser.add_argument("--heartbeat-timeout", type=_seconds_above_zero,
                        default=10.0, metavar="S",
                        help="wall-clock seconds without a heartbeat "
                             "before the child is declared hung and "
                             "SIGKILLed (default 10)")
    parser.add_argument("--checkpoint-every", type=_integer(low=1),
                        default=5000,
                        metavar="EVENTS",
                        help="checkpoint-record cadence inside the "
                             "child (default 5000 events)")
    parser.add_argument("--grade", action="store_true",
                        help="grade the finished run with the campaign "
                             "oracle (exit 1 on a failing verdict)")
    parser.add_argument("--inject-kill", type=_integer(low=0), default=None,
                        metavar="K",
                        help="rehearsal: SIGKILL the child after K "
                             "executed events (first attempt only) to "
                             "watch the resume")
    parser.add_argument("--inject-hang", type=_integer(low=0), default=None,
                        metavar="K",
                        help="rehearsal: hang the child after K executed "
                             "events (first attempt only) to watch hang "
                             "detection")
    parser.add_argument("--selftest", action="store_true",
                        help="run the deterministic crash-injection "
                             "selftest matrix (seeded kill points per "
                             "run kind, a hang, a retry-budget "
                             "exhaustion) and exit non-zero unless "
                             "every resume is byte-identical")
    parser.add_argument("--quick", action="store_true",
                        help="with --selftest: the CI smoke shape "
                             "(experiment + chaos kinds, no "
                             "retry-exhaustion case)")
    parser.add_argument("--kill-points", type=_integer(low=1), default=3,
                        help="with --selftest: seeded kill points per "
                             "kind (default 3)")
    parser.add_argument("--seed", type=int, default=990417,
                        help="with --selftest: the kill-point seed")


def _supervise(args) -> int:
    import shutil
    import tempfile

    from repro.supervise import Supervisor, supervision_verdict

    if args.selftest:
        from repro.supervise import crash_injection_selftest
        base = args.state_dir or tempfile.mkdtemp(
            prefix="supervise-selftest-")
        kinds = (("experiment", "chaos") if args.quick
                 else ("experiment", "chaos", "defense", "cluster"))
        report = crash_injection_selftest(
            base, kinds=kinds, kill_points=args.kill_points,
            gave_up=not args.quick, seed=args.seed, log=print)
        print()
        print(report.summary())
        if not args.state_dir:
            if report.ok:
                shutil.rmtree(base)
            else:
                print(f"state dir: {base}")
        return 0 if report.ok else 1

    if args.spec_file:
        import json

        from repro.snapshot.runs import run_from_spec
        try:
            with open(args.spec_file) as fh:
                spec = json.load(fh)
            run_from_spec(spec)  # a bad spec fails here, not in a child
        except (OSError, ValueError) as exc:
            raise ValueError(f"{args.spec_file}: {exc}") from None
    elif args.kind:
        from repro.supervise.harness import selftest_spec
        spec = selftest_spec(args.kind)
    else:
        raise ValueError("give --spec-file, --kind, or --selftest")

    inject = None
    if args.inject_kill is not None:
        inject = {"mode": "kill", "after_events": args.inject_kill,
                  "on_attempt": 1}
    elif args.inject_hang is not None:
        inject = {"mode": "hang", "after_events": args.inject_hang,
                  "on_attempt": 1}

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="supervise-")
    sup = Supervisor(state_dir, max_attempts=args.max_attempts,
                     heartbeat_timeout_s=args.heartbeat_timeout,
                     checkpoint_every_events=args.checkpoint_every)
    sres = sup.run(spec, grade=args.grade, inject=inject,
                   obs_dir=args.obs_dir if args.obs else None)

    for a in sres.attempts:
        line = (f"attempt {a.attempt}: {a.classification} "
                f"({a.duration_s:.2f}s, {a.heartbeats} heartbeats")
        if a.backoff_s:
            line += f"; backoff {a.backoff_s:.2f}s before retry"
        print(line + ")")
    print(f"state dir: {sres.state_dir}")
    if args.obs:
        print(f"telemetry: {args.obs_dir} (query with "
              f"`python -m repro obs summary --obs-dir {args.obs_dir}`)")
    if sres.ok:
        r = sres.result
        resumed = r["resume"]["resumed_events"]
        print(f"ok: {r['events']} events"
              + (f" (resumed at event {resumed})" if resumed else "")
              + f", digest {r['digest'][:16]}..., "
              f"fingerprint {r['fingerprint']}")
        verdict = r.get("verdict")
        if verdict is not None:
            status = ("ok" if verdict["ok"]
                      else ",".join(verdict["failures"]))
            detail = f" — {verdict['detail']}" if verdict["detail"] else ""
            print(f"oracle verdict: {status}{detail}")
            return 0 if verdict["ok"] else 1
        return 0
    verdict = supervision_verdict(sres)
    print(f"gave up: {verdict['detail']}", file=sys.stderr)
    if sres.error:
        print(f"last error: {sres.error['type']}: "
              f"{sres.error['message']}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------
class Command(NamedTuple):
    """One ``python -m repro`` command: its line in ``-h``, the function
    adding its own flags, its handler (parsed args -> exit code) and the
    shared flag groups it also takes."""

    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]
    groups: Tuple[Callable[[argparse.ArgumentParser], None], ...] = ()


COMMANDS: Dict[str, Command] = {
    "chaos": Command(
        "seeded chaos scenarios (watchdog + invariant checker), "
        "optionally journaled for resume", _chaos_flags, _chaos,
        (_journal_flags, _obs_flags)),
    "experiment": Command(
        "one figure-style cell (an ExperimentRun spec), optionally "
        "journaled for resume", _experiment_flags, _experiment,
        (_journal_flags, _obs_flags)),
    "figure8": Command(
        "Figure 8: web-server throughput vs parallel clients",
        _figure8_flags, _figure8, (_perf_flags,)),
    "figure9": Command(
        "Figure 9: best-effort throughput under a SYN flood (resumable "
        "cell cache, --supervised crash-only cells)",
        _figure9_flags, _figure9, (_perf_flags,)),
    "figure10": Command(
        "Figure 10: best-effort throughput with and without a 1 MBps "
        "QoS stream", _figure10_flags, _figure10, (_perf_flags,)),
    "figure11": Command(
        "Figure 11: runaway-CGI attackers against the clients plus the "
        "QoS stream", _figure11_flags, _figure11, (_perf_flags,)),
    "defense": Command(
        "legitimate goodput under attack: static policies vs the "
        "closed-loop mitigation ladder", _defense_flags, _defense,
        (_obs_flags, _perf_flags)),
    "cluster": Command(
        "1 vs N Escort replicas behind the health-checked dispatcher "
        "under a ramping SYN flood with a mid-window crash",
        _cluster_flags, _cluster, (_obs_flags, _perf_flags)),
    "ablation": Command(
        "ablation sweeps: domain grouping, crossing cost, early vs late "
        "SYN drop", _ablation_flags, _ablation, (_perf_flags,)),
    "bench": Command(
        "wall-clock benchmark suite; writes BENCH_sim.json",
        _bench_flags, _bench),
    "record": Command(
        "record a chaos run's per-event fingerprint journal",
        _record_flags, _record),
    "replay": Command(
        "replay a recording in lockstep; exit 1 at the first divergent "
        "event", _replay_flags, _replay),
    "resilience": Command(
        "fault-space campaigns (explore), reproducer shrinking "
        "(minimize) and exact corpus replay (corpus)",
        _resilience_flags, _resilience),
    "supervise": Command(
        "crash-only supervised execution of any run spec (--selftest: "
        "the crash-injection matrix)", _supervise_flags, _supervise,
        (_obs_flags,)),
    "obs": Command(
        "query a run's telemetry sidecar (summary, series, explain, "
        "diff)", add_obs_commands, run_obs_command),
}


def build_parser() -> argparse.ArgumentParser:
    """The one parser: a subparser per :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Escort reproduction. With no command: a guided tour "
                    "and a quick sanity run of each configuration.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                title="commands")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help,
                           description=command.help)
        command.add_flags(p)
        for group in command.groups:
            group(p)
        p.set_defaults(handler=command.handler)
    return parser


def _tour() -> int:
    """The guided tour: one quick sanity run per configuration."""
    from repro import __version__
    from repro.experiments.harness import Testbed

    print(f"Escort reproduction v{__version__}")
    print("Paper: Spatscheck & Peterson, 'Defending Against Denial of "
          "Service Attacks in Scout', OSDI 1999\n")

    print("Sanity run: 4 clients fetching /doc-1k for 0.5 s on each "
          "configuration...")
    for name in ("scout", "accounting", "accounting_pd", "linux"):
        bed = Testbed.by_name(name)
        bed.add_clients(4, document="/doc-1k")
        result = bed.run(warmup_s=0.3, measure_s=0.5)
        print(f"  {name:15s} {result.connections_per_second:6.0f} conn/s "
              f"({result.client_completions} completed, "
              f"{result.client_failures} failed)")

    print("\nNext steps:")
    print("  python examples/quickstart.py          accounting walkthrough")
    print("  python examples/reproduce_paper.py     every table and figure")
    print("  python -m repro chaos --list           chaos scenarios")
    print("  python -m repro replay -s domain-crash determinism self-check")
    print("  pytest benchmarks/ --benchmark-only    assertions vs the paper")
    return 0


def main(argv=None) -> int:
    """Parse ``argv`` and run its command; returns a process exit code.

    Bad input — a ``ValueError`` from a spec or flag, an unusable
    journal — prints ``error: ...`` and returns 2; a sweep whose cells
    did not all finish returns 1.  argparse exits 2 on its own for an
    unknown command or flag.
    """
    args = build_parser().parse_args(argv)
    if args.command is None:
        return _tour()

    from repro.perf import maybe_profiled
    from repro.perf.pool import SweepError
    from repro.snapshot.journal import JournalError

    try:
        with maybe_profiled(getattr(args, "profile", False)):
            return args.handler(args)
    except (JournalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
