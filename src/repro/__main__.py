"""``python -m repro`` — a guided tour of the reproduction.

Prints the system inventory, boots one of each server configuration for a
quick sanity run, and points at the longer drivers.

Subcommands:

* ``chaos`` — run the seeded chaos scenarios (``--list``), optionally
  writing one run journal with a checkpoint record every S simulated
  seconds (``--checkpoint-every``) and resuming an interrupted run from
  it (``--resume``); ``--workers N`` fans the scenario matrix over a
  process pool;
* ``experiment`` — one parameterized figure-style measurement cell, with
  the same checkpoint/resume support;
* ``figure8`` / ``figure9`` / ``figure10`` / ``figure11`` — the paper's
  sweeps; all take ``--workers N`` (parallel cells, byte-identical to
  serial) and ``--profile`` (cProfile the run); figure9 additionally has
  a per-cell resume cache (``--checkpoint-dir``) so a crashed sweep
  restarts where it died;
* ``defense`` — the closed-loop adaptive-defense comparison: legitimate
  goodput under a ramping SYN flood / runaway CGI with static policies vs
  the escalating mitigation ladder, plus a record/replay fingerprint
  self-check (``--replay-check``);
* ``cluster`` — the replicated-Escort comparison: 1 vs N replicas behind
  the health-checked dispatcher under a ramping SYN flood with a
  mid-window replica crash, reporting goodput recovery and failover
  latency (``--replay-check`` runs the record/replay self-check);
* ``ablation`` — the domain-grouping / crossing-cost / early-drop sweeps;
* ``bench`` — the wall-clock benchmark suite; writes ``BENCH_sim.json``;
  ``--baseline`` diffs against a committed report and fails on end-to-end
  events/sec regression;
* ``record`` / ``replay`` — deterministic-replay tooling: record a run's
  event-level fingerprint journal, then re-execute and pinpoint the first
  divergent event (exit 1 on divergence);
* ``resilience`` — the fault-space campaign runner: ``explore`` samples
  seeded fault schedules against the chaos/defense/cluster targets, fans
  them over the worker pool (crash-resumable via ``--cache-dir``), and
  delta-debugs every failure to a certified 1-minimal reproducer;
  ``minimize`` shrinks one case; ``corpus`` replays the banked regression
  corpus exactly (exit 1 on any fingerprint or digest drift);
* ``obs`` — query the telemetry a run with ``--obs`` left behind:
  ``summary`` / ``series`` / ``explain --kill <path>`` (the causal chain
  monitor signal → defense rung → watchdog detection → pathKill) /
  ``diff`` (byte-level determinism check between two runs' telemetry);
  the ``chaos``/``experiment``/``defense``/``cluster``/``supervise``
  entry points all take ``--obs [--obs-dir DIR]`` to record it;
* ``supervise`` — crash-only execution of any replayable run spec in a
  supervised child process: heartbeat-based hang detection, SIGKILL-
  anywhere resume from the write-ahead run journal, bounded
  backoff retries; ``--selftest`` runs the deterministic crash-injection
  matrix gating on byte-identical digests after resume.  ``figure9
  --supervised`` and ``resilience explore --supervised`` route their
  cells through the same machinery.
"""

from __future__ import annotations

import argparse
import sys


def _print_error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _comma_list(names=None, low=None):
    """An argparse ``type=`` for a comma-separated list flag.

    Items are ``names`` when given, else integers (``>= low`` when ``low``
    is given).  A bad item makes argparse exit 2 with ``error: argument
    --X: ...`` before anything runs.
    """
    def item(text):
        if names is not None:
            if text in names:
                return text
            raise argparse.ArgumentTypeError(
                f"{text!r} is not one of {', '.join(names)}")
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return lambda text: [item(part.strip()) for part in text.split(",")]


def _configs_arg(parser, default) -> None:
    """The sweeps' ``--configs``: names :meth:`Testbed.by_name` builds."""
    from repro.experiments.figure8 import CONFIGS
    parser.add_argument("--configs", default=default,
                        type=_comma_list(names=CONFIGS),
                        help=f"comma-separated configurations (of "
                             f"{','.join(CONFIGS)})")


def _add_obs_args(parser) -> None:
    """The shared ``--obs`` / ``--obs-dir`` options."""
    parser.add_argument("--obs", action="store_true",
                        help="record deterministic telemetry (metrics "
                             "series, causal spans, flight-recorder "
                             "sidecar) for one instrumented cell; query "
                             "it afterwards with `python -m repro obs`")
    parser.add_argument("--obs-dir", default="obs-out",
                        help="directory for the telemetry sidecar and "
                             "dumps (default: ./obs-out)")


def _add_perf_args(parser) -> None:
    """The shared ``--workers`` / ``--profile`` options of the sweeps."""
    parser.add_argument("--workers", "-j", type=int, default=0,
                        help="fan sweep cells over N worker processes "
                             "(0/1 = serial; results are byte-identical "
                             "either way)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the run and print the hottest "
                             "frames to stderr")


def chaos_main(argv) -> int:
    """``python -m repro chaos [--scenario NAME] [--seed N] [--list] ...``"""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run seeded chaos scenarios against the Escort server.")
    parser.add_argument("--scenario", "-s", default=None,
                        help="scenario name (default: run every scenario)")
    parser.add_argument("--seed", "-n", type=int, default=1,
                        help="fault-schedule seed (default 1); the same "
                             "scenario+seed always reproduces the same run")
    parser.add_argument("--list", "-l", action="store_true",
                        dest="list_them", help="list scenarios and exit")
    parser.add_argument("--rollback", action="store_true",
                        help="arm the watchdog's snapshot/rollback rung")
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="S",
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
    parser.add_argument("--workers", "-j", type=int, default=0,
                        help="run the scenario matrix on N worker "
                             "processes (ignored with --checkpoint-every "
                             "or --resume)")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.chaos import ChaosRun, list_scenarios
    from repro.snapshot import JournalError, RunDriver

    if args.list_them:
        for name, description in list_scenarios():
            print(f"{name}")
            print(f"    {description}")
        return 0

    if args.resume:
        try:
            driver, record = RunDriver.resume(args.resume)
        except (JournalError, ValueError) as exc:
            return _print_error(exc)
        print(f"resumed {driver.run.spec()} at tick {record['tick']} "
              f"({record['events']} events); continuing...")
        if args.checkpoint_every:
            report, _ = driver.run_with_checkpoints(
                args.checkpoint_every, args.checkpoint_dir, "chaos")
        else:
            report = driver.run_all()
        print(report.summary())
        return 0 if report.ok else 1

    names = ([args.scenario] if args.scenario
             else [n for n, _ in list_scenarios()])
    try:
        runs = [ChaosRun(name, args.seed, use_rollback=args.rollback)
                for name in names]
    except ValueError as exc:
        return _print_error(exc)

    if args.obs:
        from repro.obs import run_with_obs
        report, session = run_with_obs(runs[0], args.obs_dir)
        print(report.summary())
        print()
        print(session.describe())
        return 0 if report.ok else 1

    if args.workers > 1 and not args.checkpoint_every and len(names) > 1:
        from repro.perf.pool import SweepCell, run_cells
        cells = [SweepCell(key=name, runner="chaos",
                           params=dict(scenario=name, seed=args.seed,
                                       rollback=args.rollback))
                 for name in names]
        merged = run_cells(cells, workers=args.workers)
        failed = 0
        for name in names:
            print(merged[name]["summary"])
            print()
            if not merged[name]["ok"]:
                failed += 1
        return 1 if failed else 0

    failed = 0
    for run in runs:
        driver = RunDriver(run)
        if args.checkpoint_every:
            report, journal = driver.run_with_checkpoints(
                args.checkpoint_every, args.checkpoint_dir,
                f"chaos-{run.scenario}-{args.seed}")
            print(f"(journal: {journal})")
        else:
            report = driver.run_all()
        print(report.summary())
        print()
        if not report.ok:
            failed += 1
    return 1 if failed else 0


def experiment_main(argv) -> int:
    """One parameterized measurement cell with checkpoint/resume."""
    parser = argparse.ArgumentParser(
        prog="python -m repro experiment",
        description="Run one figure-style measurement (e.g. a Figure-9 "
                    "SYN-flood cell), optionally journaled for resume.")
    parser.add_argument("--config", default="accounting",
                        choices=["scout", "accounting", "accounting_pd"])
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--document", default="/doc-1k")
    parser.add_argument("--syn-rate", type=int, default=0,
                        help="SYN flood rate/s (0 = no attack)")
    parser.add_argument("--untrusted-cap", type=int, default=16)
    parser.add_argument("--cgi-attackers", type=int, default=0)
    parser.add_argument("--qos", action="store_true")
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--measure", type=float, default=5.0)
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="S")
    parser.add_argument("--checkpoint-dir", default="checkpoints")
    parser.add_argument("--resume", default=None, metavar="JOURNAL")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

    from repro.snapshot import ExperimentRun, JournalError, RunDriver

    try:
        if args.resume:
            driver, record = RunDriver.resume(args.resume)
            print(f"resumed at tick {record['tick']} "
                  f"({record['events']} events, digest verified)")
        else:
            run = ExperimentRun(
                args.config, clients=args.clients, document=args.document,
                syn_rate=args.syn_rate, untrusted_cap=args.untrusted_cap,
                cgi_attackers=args.cgi_attackers, qos=args.qos,
                warmup_s=args.warmup, measure_s=args.measure)
            driver = RunDriver(run)
        session = None
        if args.obs:
            from repro.obs import attach_obs
            session = attach_obs(driver, args.obs_dir)
        if args.checkpoint_every:
            result, journal = driver.run_with_checkpoints(
                args.checkpoint_every, args.checkpoint_dir, "experiment")
            print(f"(journal: {journal})")
        else:
            result = driver.run_all()
        if session is not None:
            session.finish()
            print(session.describe())
    except (JournalError, ValueError) as exc:
        return _print_error(exc)

    print(f"{result.connections_per_second:.1f} conn/s "
          f"({result.client_completions} completed, "
          f"{result.client_failures} failed)")
    if result.syn_sent:
        print(f"SYN flood: {result.syn_dropped_at_demux}/{result.syn_sent} "
              f"dropped at demux")
    return 0


def figure9_main(argv) -> int:
    """The Figure-9 sweep with a crash-resumable per-cell cache."""
    parser = argparse.ArgumentParser(
        prog="python -m repro figure9",
        description="Figure 9: best-effort throughput under a SYN flood.")
    parser.add_argument("--clients", default="16,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _configs_arg(parser, "accounting,accounting_pd")
    parser.add_argument("--document", default="/doc-1")
    parser.add_argument("--doc-label", default="1B")
    parser.add_argument("--syn-rate", type=int, default=1000)
    parser.add_argument("--untrusted-cap", type=int, default=16)
    parser.add_argument("--warmup", type=float, default=2.0)
    parser.add_argument("--measure", type=float, default=2.0)
    parser.add_argument("--checkpoint-dir", default=None,
                        help="cache finished cells here and resume an "
                             "interrupted sweep")
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="S",
                        help="also journal in-flight cells with a "
                             "checkpoint record every S simulated "
                             "seconds")
    parser.add_argument("--supervised", action="store_true",
                        help="run each cell in a crash-only supervised "
                             "child process (hang detection, "
                             "SIGKILL-anywhere resume, bounded retries)")
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from repro.experiments.figure9 import run_figure9
    from repro.perf import maybe_profiled
    from repro.snapshot import JournalError

    try:
        with maybe_profiled(args.profile):
            result = run_figure9(
                client_counts=args.clients, configs=args.configs,
                document=args.document, doc_label=args.doc_label,
                syn_rate=args.syn_rate, untrusted_cap=args.untrusted_cap,
                warmup_s=args.warmup, measure_s=args.measure,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every_s=args.checkpoint_every,
                workers=args.workers, supervised=args.supervised)
    except JournalError as exc:
        return _print_error(exc)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.format())
    return 0


def figure8_main(argv) -> int:
    """The base-performance sweep (Figure 8)."""
    from repro.experiments.figure8 import DOCUMENTS, run_figure8

    parser = argparse.ArgumentParser(
        prog="python -m repro figure8",
        description="Figure 8: web-server throughput vs parallel clients.")
    parser.add_argument("--clients", default="1,2,4,8,16,32,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _configs_arg(parser, "linux,scout,accounting,accounting_pd")
    parser.add_argument("--docs", default="1B,1KB,10KB",
                        type=_comma_list(names=DOCUMENTS),
                        help="document labels to sweep (of 1B,1KB,10KB)")
    parser.add_argument("--warmup", type=float, default=0.6)
    parser.add_argument("--measure", type=float, default=1.5)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from repro.perf import maybe_profiled

    docs = {label: DOCUMENTS[label] for label in args.docs}
    with maybe_profiled(args.profile):
        result = run_figure8(
            client_counts=args.clients, configs=args.configs,
            docs=docs, warmup_s=args.warmup, measure_s=args.measure,
            workers=args.workers)
    print(result.format())
    return 0


def figure10_main(argv) -> int:
    """The QoS-stream sweep (Figure 10)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro figure10",
        description="Figure 10: best-effort throughput with and without "
                    "a 1 MBps QoS stream.")
    parser.add_argument("--clients", default="16,64",
                        type=_comma_list(low=0),
                        help="comma-separated client counts")
    _configs_arg(parser, "accounting,accounting_pd")
    parser.add_argument("--document", default="/doc-1")
    parser.add_argument("--doc-label", default="1B")
    parser.add_argument("--warmup", type=float, default=2.0)
    parser.add_argument("--measure", type=float, default=3.0)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from repro.experiments.figure10 import run_figure10
    from repro.perf import maybe_profiled

    with maybe_profiled(args.profile):
        result = run_figure10(
            client_counts=args.clients, configs=args.configs,
            document=args.document, doc_label=args.doc_label,
            warmup_s=args.warmup, measure_s=args.measure,
            workers=args.workers)
    print(result.format())
    return 0


def figure11_main(argv) -> int:
    """The runaway-CGI sweep (Figure 11)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro figure11",
        description="Figure 11: runaway-CGI attackers against 64 clients "
                    "plus the QoS stream.")
    parser.add_argument("--attackers", default="0,1,10,50",
                        type=_comma_list(low=0),
                        help="comma-separated CGI attacker counts")
    _configs_arg(parser, "accounting,accounting_pd")
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--document", default="/doc-1")
    parser.add_argument("--doc-label", default="1B")
    parser.add_argument("--warmup", type=float, default=1.5)
    parser.add_argument("--measure", type=float, default=3.0)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from repro.experiments.figure11 import run_figure11
    from repro.perf import maybe_profiled

    with maybe_profiled(args.profile):
        result = run_figure11(
            attacker_counts=args.attackers, configs=args.configs,
            clients=args.clients, document=args.document,
            doc_label=args.doc_label,
            warmup_s=args.warmup, measure_s=args.measure,
            workers=args.workers)
    print(result.format())
    return 0


def defense_main(argv) -> int:
    """The static-vs-adaptive defense comparison."""
    parser = argparse.ArgumentParser(
        prog="python -m repro defense",
        description="Compare legitimate goodput under attack with static "
                    "policies vs the closed-loop mitigation ladder.")
    parser.add_argument("--attacks", default="synflood,runaway-cgi",
                        help="comma-separated attack profiles (of "
                             "synflood,runaway-cgi,mixed)")
    parser.add_argument("--seeds", default="1", type=_comma_list(),
                        help="comma-separated seeds (default 1)")
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--document", default="/doc-1k")
    parser.add_argument("--syn-rate", type=int, default=200,
                        help="flood rate at the start of the ramp")
    parser.add_argument("--syn-ramp-to", type=int, default=4000,
                        help="flood rate at the end of the ramp")
    parser.add_argument("--syn-ramp-s", type=float, default=1.5)
    parser.add_argument("--cgi-attackers", type=int, default=8)
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--measure", type=float, default=2.0)
    parser.add_argument("--replay-check", action="store_true",
                        help="record one adaptive cell, re-execute it, "
                             "and verify identical digests")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless adaptive meets the 80%% "
                             "recovery target on every attack")
    _add_obs_args(parser)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from dataclasses import replace

    from repro.defense.run import DefenseRun
    from repro.experiments.defense import run_defense
    from repro.perf import maybe_profiled

    attacks = [a.strip() for a in args.attacks.split(",") if a.strip()]
    seeds = args.seeds
    fields = dict(clients=args.clients, document=args.document,
                  syn_rate=args.syn_rate, syn_ramp_to=args.syn_ramp_to,
                  syn_ramp_s=args.syn_ramp_s,
                  cgi_attackers=args.cgi_attackers,
                  warmup_s=args.warmup, measure_s=args.measure)
    try:
        # The instrumented cell; every flag is checked before a cell runs.
        base = DefenseRun(attacks[0], adaptive=True, seed=seeds[0],
                          **fields)
        for attack in attacks[1:]:
            replace(base, attack=attack)
    except ValueError as exc:
        return _print_error(exc)

    if args.replay_check:
        if not _defense_replay_check(base):
            return 1
        print()

    if args.obs:
        from repro.obs import run_with_obs
        _, session = run_with_obs(base, args.obs_dir)
        print(f"instrumented adaptive cell: {attacks[0]} seed={seeds[0]}")
        print(session.describe())
        print()

    with maybe_profiled(args.profile):
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


def _defense_replay_check(base) -> bool:
    """Run one adaptive defense cell twice; compare full-machine digests."""
    from dataclasses import replace

    from repro.snapshot.driver import RunDriver

    digests = []
    for attempt in (1, 2):
        run = replace(base)
        RunDriver(run).run_all()
        digests.append(run.digest())
    if digests[0] == digests[1]:
        print(f"replay check OK: {base.attack} seed={base.seed} adaptive "
              f"cell digests identical ({digests[0][:16]}...)")
        return True
    print(f"REPLAY CHECK FAILED: {digests[0][:16]} != {digests[1][:16]}",
          file=sys.stderr)
    return False


def cluster_main(argv) -> int:
    """The 1-vs-N replicated-cluster comparison."""
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Compare 1 vs N Escort replicas behind the "
                    "health-checked dispatcher under a ramping SYN flood "
                    "with a mid-window replica crash.")
    parser.add_argument("--sizes", default="1,3", type=_comma_list(low=0),
                        help="comma-separated replica counts (default 1,3)")
    parser.add_argument("--seeds", default="1", type=_comma_list(),
                        help="comma-separated seeds (default 1)")
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--document", default="/doc-1k")
    parser.add_argument("--syn-rate", type=int, default=200,
                        help="flood rate at the start of the ramp")
    parser.add_argument("--syn-ramp-to", type=int, default=4000,
                        help="flood rate at the end of the ramp")
    parser.add_argument("--syn-ramp-s", type=float, default=1.5)
    parser.add_argument("--chaos-at", type=float, default=0.5,
                        help="crash offset into the window (seconds)")
    parser.add_argument("--chaos-restore", type=float, default=1.7,
                        help="cold-restart offset into the window")
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--measure", type=float, default=2.5)
    parser.add_argument("--replay-check", action="store_true",
                        help="record one attacked 3-replica cell, replay "
                             "it in lockstep, and verify per-event "
                             "fingerprints match")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless the replicated cluster meets "
                             "the 70%% recovery target and the single "
                             "replica collapses")
    _add_obs_args(parser)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from dataclasses import replace

    from repro.cluster.run import ClusterRun
    from repro.experiments.cluster import run_cluster
    from repro.perf import maybe_profiled

    sizes, seeds = args.sizes, args.seeds
    fields = dict(clients=args.clients, document=args.document,
                  syn_rate=args.syn_rate, syn_ramp_to=args.syn_ramp_to,
                  syn_ramp_s=args.syn_ramp_s, chaos_at_s=args.chaos_at,
                  chaos_restore_s=args.chaos_restore,
                  warmup_s=args.warmup, measure_s=args.measure)
    try:
        # The instrumented cell; every flag is checked before a cell runs.
        base = ClusterRun("crash", replicas=max(sizes), seed=seeds[0],
                          **fields)
        for size in sizes:
            replace(base, replicas=size)
    except ValueError as exc:
        return _print_error(exc)

    if args.replay_check:
        if not _cluster_replay_check(base):
            return 1
        print()

    if args.obs:
        from repro.obs import run_with_obs
        _, session = run_with_obs(base, args.obs_dir)
        print(f"instrumented crash cell: n={base.replicas} seed={base.seed}")
        print(session.describe())
        print()

    with maybe_profiled(args.profile):
        result = run_cluster(sizes=sizes, seeds=seeds,
                             workers=args.workers, **fields)
    print(result.format())
    if args.strict and not result.meets_target():
        print("\nFAIL: cluster recovery targets not met", file=sys.stderr)
        return 1
    return 0


def _cluster_replay_check(base) -> bool:
    """Record one attacked cluster cell and replay it in event lockstep."""
    from dataclasses import replace

    from repro.snapshot import record, replay

    _, recording = record(replace(base))
    report = replay(recording)
    if report.ok:
        print(f"replay check OK: crash cell (n={base.replicas}, "
              f"seed={base.seed}) reproduced {report.events_replayed} "
              f"events bit for bit")
        return True
    print("REPLAY CHECK FAILED", file=sys.stderr)
    print(report.divergence.describe(), file=sys.stderr)
    return False


def ablation_main(argv) -> int:
    """The design-choice ablations (domains / crossing cost / early drop)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro ablation",
        description="Ablation sweeps: domain grouping, crossing cost, "
                    "early vs late SYN drop.")
    parser.add_argument("--sweep", default="all",
                        choices=["all", "domains", "crossing", "early-drop"])
    parser.add_argument("--clients", type=int, default=64)
    _add_perf_args(parser)
    args = parser.parse_args(argv)

    from repro.experiments.ablation import (
        run_crossing_cost_sweep,
        run_domain_sweep,
        run_early_drop_ablation,
    )
    from repro.perf import maybe_profiled

    with maybe_profiled(args.profile):
        if args.sweep in ("all", "domains"):
            print(run_domain_sweep(clients=args.clients,
                                   workers=args.workers).format())
            print()
        if args.sweep in ("all", "crossing"):
            print(run_crossing_cost_sweep(clients=args.clients,
                                          workers=args.workers).format())
            print()
        if args.sweep in ("all", "early-drop"):
            print(run_early_drop_ablation(
                clients=min(args.clients, 32),
                workers=args.workers).format())
    return 0


def bench_main(argv) -> int:
    """The wall-clock benchmark suite; writes BENCH_sim.json."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark end-to-end run wall-clock, demux "
                    "dispatch, and sweep scaling at 1/2/4 workers.")
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
    args = parser.parse_args(argv)

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


def record_main(argv) -> int:
    """Record a chaos run's event-level journal for later replay."""
    parser = argparse.ArgumentParser(
        prog="python -m repro record",
        description="Execute a scenario while journaling per-event state "
                    "fingerprints, for divergence-bisecting replay.")
    parser.add_argument("--scenario", "-s", required=True)
    parser.add_argument("--seed", "-n", type=int, default=1)
    parser.add_argument("--every", type=int, default=2000,
                        help="full-digest journal cadence in events")
    parser.add_argument("--output", "-o", required=True)
    args = parser.parse_args(argv)

    from repro.chaos import ChaosRun
    from repro.snapshot import record

    try:
        run = ChaosRun(args.scenario, args.seed)
    except ValueError as exc:
        return _print_error(exc)
    report, recording = record(run, every_events=args.every)
    recording.save(args.output)
    print(f"recorded {recording.events_total} events "
          f"({len(recording.entries)} digest entries) -> {args.output}")
    print(report.summary())
    return 0


def replay_main(argv) -> int:
    """Replay a recording (or self-check a scenario); exit 1 on divergence."""
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Re-execute a recorded run in lockstep and pinpoint "
                    "the first divergent event, if any.")
    parser.add_argument("recording", nargs="?", default=None,
                        help="recording file written by `record`")
    parser.add_argument("--scenario", "-s", default=None,
                        help="self-check: record+replay this scenario "
                             "in-process instead of reading a file")
    parser.add_argument("--seed", "-n", type=int, default=1)
    parser.add_argument("--every", type=int, default=2000)
    args = parser.parse_args(argv)

    from repro.snapshot import JournalError, Recording, record, replay

    try:
        if args.recording:
            recording = Recording.load(args.recording)
        elif args.scenario:
            from repro.chaos import ChaosRun
            print(f"recording {args.scenario} seed={args.seed}...")
            _, recording = record(ChaosRun(args.scenario, args.seed),
                                  every_events=args.every)
        else:
            parser.error("give a recording file or --scenario")
        report = replay(recording)
    except (JournalError, ValueError) as exc:
        return _print_error(exc)

    if report.ok:
        print(f"replay OK: {report.events_replayed} events reproduced "
              f"bit for bit")
        return 0
    print("REPLAY DIVERGED")
    print(report.divergence.describe())
    return 1


def resilience_main(argv) -> int:
    """The fault-space campaign runner (explore / minimize / corpus)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro resilience",
        description="Explore the fault space against the replayable run "
                    "targets, shrink failures to 1-minimal reproducers, "
                    "and replay the banked regression corpus.")
    sub = parser.add_subparsers(dest="command", required=True)

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
    p_explore.add_argument("--workers", "-j", type=int, default=0,
                           help="fan cases over N worker processes "
                                "(results byte-identical to serial)")
    p_explore.add_argument("--cache-dir", default=None,
                           help="persist finished verdicts here and "
                                "resume an interrupted campaign")
    p_explore.add_argument("--no-minimize", action="store_true",
                           help="report failures without shrinking them")
    p_explore.add_argument("--max-tests", type=int, default=400,
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
    p_explore.add_argument("--supervise-dir", default=None, metavar="DIR",
                           help="keep per-case supervision state "
                                "(journals, attempt logs) "
                                "here for post-mortem")

    p_min = sub.add_parser(
        "minimize", help="shrink one failing sampled case")
    add_target(p_min)
    p_min.add_argument("--case-file", default=None,
                       help="minimize the case in this JSON file instead "
                            "of sampling one from target+seed")
    p_min.add_argument("--max-tests", type=int, default=400)
    p_min.add_argument("--output", "-o", default=None,
                       help="write the minimized case as JSON")

    p_corpus = sub.add_parser(
        "corpus", help="replay the banked regression corpus exactly")
    p_corpus.add_argument("--corpus-dir", default=None,
                          help="corpus directory (default: "
                               "./corpus/ESCORP-1)")
    args = parser.parse_args(argv)

    from repro.resilience import (Minimizer, default_corpus_dir, explore,
                                  load_entries, replay_corpus)

    if args.command == "explore":
        intensity = None
        if args.intensity:
            try:
                intensity = {k.strip(): float(v) for k, v in
                             (pair.split("=", 1)
                              for pair in args.intensity.split(","))}
            except ValueError:
                print(f"bad --intensity {args.intensity!r} "
                      f"(want rate=2,magnitude=1.5)", file=sys.stderr)
                return 2
        report = explore(args.target, args.seed, args.budget,
                         workers=args.workers, intensity=intensity,
                         cache_dir=args.cache_dir,
                         minimize=not args.no_minimize,
                         max_tests=args.max_tests, bank_dir=args.bank,
                         supervised=args.supervised,
                         supervise_dir=args.supervise_dir,
                         log=None if args.quiet else print)
        print(report.format())
        return 1 if report.failures else 0

    if args.command == "minimize":
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
                return _print_error(f"{args.case_file}: {exc}")
        else:
            from repro.resilience import FaultSpace
            case = FaultSpace(args.target).sample(args.seed)
        try:
            result = Minimizer(case, max_tests=args.max_tests,
                               log=print).run()
        except ValueError as exc:
            return _print_error(exc)
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
    outcomes = replay_corpus(corpus_dir, log=print)
    bad = [o for o in outcomes if not o.ok]
    print(f"{len(outcomes) - len(bad)}/{len(outcomes)} replayed exactly")
    return 1 if bad else 0


def obs_main(argv) -> int:
    """Query a run's telemetry sidecar (summary/series/explain/diff)."""
    from repro.obs.cli import obs_main as run_obs
    return run_obs(argv)


def supervise_main(argv) -> int:
    """Crash-only supervised execution of one replayable run spec."""
    parser = argparse.ArgumentParser(
        prog="python -m repro supervise",
        description="Execute a replayable run spec in a supervised child "
                    "process: heartbeat hang detection, SIGKILL-anywhere "
                    "resume from the write-ahead run journal, and "
                    "bounded backoff retries.")
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
                             "files (default: a fresh temp dir); "
                             "reusing one resumes its journal")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0,
                        metavar="S",
                        help="wall-clock seconds without a heartbeat "
                             "before the child is declared hung and "
                             "SIGKILLed (default 10)")
    parser.add_argument("--checkpoint-every", type=int, default=5000,
                        metavar="EVENTS",
                        help="checkpoint-record cadence inside the "
                             "child (default 5000 events)")
    parser.add_argument("--grade", action="store_true",
                        help="grade the finished run with the campaign "
                             "oracle (exit 1 on a failing verdict)")
    parser.add_argument("--inject-kill", type=int, default=None,
                        metavar="K",
                        help="rehearsal: SIGKILL the child after K "
                             "executed events (first attempt only) to "
                             "watch the resume")
    parser.add_argument("--inject-hang", type=int, default=None,
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
    parser.add_argument("--kill-points", type=int, default=3,
                        help="with --selftest: seeded kill points per "
                             "kind (default 3)")
    parser.add_argument("--seed", type=int, default=990417,
                        help="with --selftest: the kill-point seed")
    _add_obs_args(parser)
    args = parser.parse_args(argv)

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
        return 0 if report.ok else 1

    if args.spec_file:
        import json

        from repro.snapshot.runs import run_from_spec
        try:
            with open(args.spec_file) as fh:
                spec = json.load(fh)
            run_from_spec(spec)  # a bad spec fails here, not in a child
        except (OSError, ValueError) as exc:
            return _print_error(f"{args.spec_file}: {exc}")
    elif args.kind:
        from repro.supervise.harness import selftest_spec
        spec = selftest_spec(args.kind)
    else:
        parser.error("give --spec-file, --kind, or --selftest")

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


_SUBCOMMANDS = {
    "chaos": chaos_main,
    "experiment": experiment_main,
    "figure8": figure8_main,
    "figure9": figure9_main,
    "figure10": figure10_main,
    "figure11": figure11_main,
    "defense": defense_main,
    "cluster": cluster_main,
    "ablation": ablation_main,
    "bench": bench_main,
    "record": record_main,
    "replay": replay_main,
    "resilience": resilience_main,
    "supervise": supervise_main,
    "obs": obs_main,
}


def main(argv=None) -> int:
    """Run the guided tour; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        print("usage: python -m repro [--smoke]")
        for name in _SUBCOMMANDS:
            print(f"       python -m repro {name} [-h for options]")
        return 0

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


if __name__ == "__main__":
    raise SystemExit(main())
