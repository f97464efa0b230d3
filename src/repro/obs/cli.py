"""``python -m repro obs`` — query a run's telemetry sidecar.

Every subcommand reads the ``obs.jrnl`` flight-recorder sidecar (the
ESCJRNL-framed stream a run with ``--obs`` leaves behind) — including a
torn one from a SIGKILLed run, in which case the trustworthy prefix is
what you get:

* ``summary``            — record counts, final metric values, kills;
* ``series KEY``         — one metric's tick-stamped series;
* ``explain --kill PATH`` — the causal chain behind a path kill:
  monitor signal → defense rung → watchdog detection → pathKill;
* ``diff DIR_A DIR_B``   — compare two runs' final metrics (exit 1 on
  any difference; the determinism gate runs the same cell twice and
  expects exit 0).
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.recorder import SIDECAR_NAME, ObsScan, scan_obs
from repro.obs.spans import SpanLog
from repro.sim.clock import TICKS_PER_SECOND

__all__ = ["add_obs_commands", "run_obs_command", "obs_main"]


def _load(obs_dir: str) -> ObsScan:
    import os
    return scan_obs(os.path.join(obs_dir, SIDECAR_NAME))


def _span_log(scan: ObsScan) -> SpanLog:
    log = SpanLog()
    for record in scan.span_records:
        log.load(record)
    return log


def _summary_cmd(args) -> int:
    scan = _load(args.obs_dir)
    if not scan.records:
        print(f"no telemetry under {args.obs_dir} "
              f"(expected {args.obs_dir}/{SIDECAR_NAME})", file=sys.stderr)
        return 2
    for meta in scan.meta:
        spec = meta.get("spec")
        if spec is not None:
            kind = spec.get("kind") or spec.get("run") or "?"
            print(f"run: {kind} {spec}")
        if "attempt" in meta:
            print(f"attempt {meta['attempt']} "
                  f"(resume: {meta.get('resume')})")
    state = "complete" if scan.complete else \
        ("torn tail (crashed mid-run)" if scan.torn_tail else
         "no final record (crashed or still running)")
    print(f"sidecar: {scan.records} records, {len(scan.samples)} samples, "
          f"{len(scan.span_records)} spans — {state}")
    if scan.finals:
        final = scan.finals[-1]
        print(f"final: {final['samples']} registry samples, "
              f"{final['kills']} kill(s), metrics digest "
              f"{final['metrics_digest'][:16]}...")
    metrics = scan.final_metrics()
    shown = 0
    for key in sorted(metrics):
        if args.prefix and not key.startswith(args.prefix):
            continue
        print(f"  {key} = {metrics[key]}")
        shown += 1
    if args.prefix and not shown:
        print(f"  (no metrics match prefix {args.prefix!r})")
    return 0


def _series_cmd(args) -> int:
    scan = _load(args.obs_dir)
    if not scan.records:
        print(f"no telemetry under {args.obs_dir}", file=sys.stderr)
        return 2
    points = scan.series(args.key)
    if not points:
        known = sorted(scan.final_metrics())
        print(f"no series for {args.key!r}", file=sys.stderr)
        hits = [k for k in known if args.key in k]
        for key in hits[:20]:
            print(f"  did you mean: {key}", file=sys.stderr)
        return 2
    for tick, value in points:
        print(f"{tick / TICKS_PER_SECOND:10.6f}s  {value}")
    return 0


def _explain_cmd(args) -> int:
    scan = _load(args.obs_dir)
    if not scan.records:
        print(f"no telemetry under {args.obs_dir}", file=sys.stderr)
        return 2
    log = _span_log(scan)
    kills = log.find("pathKill", subject_contains=args.kill or "")
    if not kills:
        available = log.find("pathKill")
        if args.kill and available:
            print(f"no pathKill matching {args.kill!r}; kills in this run:")
            for span in available:
                print(f"  {span.subject}")
        else:
            print("no path kills in this run")
        return 2
    for n, kill in enumerate(kills):
        if n:
            print()
        chain = log.chain(kill)
        print(f"kill chain for {kill.subject} "
              f"({len(chain)} link{'s' if len(chain) != 1 else ''}):")
        for depth, span in enumerate(chain):
            indent = "  " * depth + ("└─ " if depth else "")
            line = f"{indent}{span}"
            if span.values:
                vals = ", ".join(f"{k}={v}"
                                 for k, v in sorted(span.values.items()))
                line += f"  [{vals}]"
            print(line)
    return 0


def _diff_cmd(args) -> int:
    scans = []
    for obs_dir in (args.dir_a, args.dir_b):
        scan = _load(obs_dir)
        if not scan.records:
            print(f"no telemetry under {obs_dir}", file=sys.stderr)
            return 2
        scans.append(scan)
    a, b = (s.final_metrics() for s in scans)
    differing = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            differing.append((key, va, vb))
    digests = [s.finals[-1]["metrics_digest"] if s.finals else None
               for s in scans]
    if not differing and None not in digests \
            and digests[0] == digests[1]:
        print(f"identical: {len(a)} metrics, metrics digest "
              f"{digests[0][:16]}... on both sides")
        return 0
    if not differing:
        if None in digests:
            print(f"final metrics identical ({len(a)} keys) but at least "
                  f"one side has no final record (crashed/running); "
                  f"digests not compared")
            return 1
        print(f"final metrics identical ({len(a)} keys) but metrics "
              f"digests differ: {digests[0][:16]} != {digests[1][:16]} "
              f"(series histories diverged)")
        return 1
    print(f"{len(differing)} metric(s) differ:")
    for key, va, vb in differing[:args.limit]:
        print(f"  {key}: {va} != {vb}")
    if len(differing) > args.limit:
        print(f"  ... and {len(differing) - args.limit} more")
    return 1


def add_obs_commands(parser: argparse.ArgumentParser) -> None:
    """Add ``summary`` / ``series`` / ``explain`` / ``diff`` to the
    ``python -m repro obs`` subparser."""
    sub = parser.add_subparsers(dest="obs_command", required=True)

    p_sum = sub.add_parser("summary",
                           help="record counts and final metric values")
    p_sum.add_argument("--obs-dir", default="obs-out")
    p_sum.add_argument("--prefix", default="",
                       help="only show metrics starting with this prefix")
    p_sum.set_defaults(obs_handler=_summary_cmd)

    p_ser = sub.add_parser("series",
                           help="one metric's tick-stamped series")
    p_ser.add_argument("key", help="metric key, e.g. "
                                   "'defense.half_open' or "
                                   "'sim.events_processed'")
    p_ser.add_argument("--obs-dir", default="obs-out")
    p_ser.set_defaults(obs_handler=_series_cmd)

    p_exp = sub.add_parser(
        "explain",
        help="walk the causal chain behind a path kill")
    p_exp.add_argument("--kill", default="", metavar="PATH",
                       help="substring of the killed path's name "
                            "(default: every kill in the run)")
    p_exp.add_argument("--obs-dir", default="obs-out")
    p_exp.set_defaults(obs_handler=_explain_cmd)

    p_diff = sub.add_parser(
        "diff", help="compare two runs' final metrics (exit 1 on drift)")
    p_diff.add_argument("dir_a")
    p_diff.add_argument("dir_b")
    p_diff.add_argument("--limit", type=int, default=40,
                        help="max differing keys to print (default 40)")
    p_diff.set_defaults(obs_handler=_diff_cmd)


def run_obs_command(args: argparse.Namespace) -> int:
    """Run the parsed ``obs`` subcommand."""
    try:
        return args.obs_handler(args)
    except BrokenPipeError:
        # Piped into `head` and the reader closed early — normal use.
        sys.stderr.close()
        return 0


def obs_main(argv) -> int:
    """``python -m repro obs ...``; an unusable sidecar exits 2."""
    from repro.__main__ import main
    return main(["obs", *argv])
