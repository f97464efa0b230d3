"""The repository benchmark: host time per simulated second under attack load.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig9-flood --seed 1 --seconds 30 \\
        --trace 0

Each repetition runs the workload in a fresh interpreter
(``perfbench/rep.py``), one after another, until ``--seconds`` of host
time are used (at least three).  With ``--trace 0`` the end-to-end metrics
come from the untraced repetitions, host times calibrated against the
probe (``probe.py``) and taken as each slice's median over the repetitions
(:func:`slices_ms`); with ``--trace 1`` every untraced repetition is
followed by a traced one, and the per-layer metrics come from the traced
runs (the end-to-end figures of the untraced ones are printed too).  Every
repetition goes through the output check (``check.py``).  The last line of
standard output is the JSON result.

``--record`` stores the run's semantic result as the expected value for
that workload and seed in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import check, probe  # noqa: E402
from perfbench.rep import MARKER  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(HERE, ".work")
REP = os.path.join(HERE, "rep.py")

#: Fewest repetitions (or traced pairs) one invocation makes.
MIN_REPS = 3
MIN_PAIRS = 1
#: Stop starting repetitions once this much host time has gone, so an
#: invocation ends well inside three minutes whatever ``--seconds`` says.
HARD_LIMIT_S = 140.0
REP_TIMEOUT_S = 60.0

END_TO_END = {
    "host_s_per_sim_s": "s/s",
    "requests_per_host_s": "1/s",
    "slice_ms_p50": "ms",
    "slice_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_cps": "1/s",
    "legit_ok_frac": "frac",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "engine.events": "count",
    "engine.events_per_request": "event/req",
    "engine.wheel_frac": "frac",
    "engine.fast_lane_frac": "frac",
    "engine.cancelled_frac": "frac",
    "engine.host_ns_per_event": "ns",
    "cpu.chunk_events": "count",
    "cpu.intr_events": "count",
    "cpu.busy_frac": "frac",
    "demux.classify_calls": "count",
    "demux.drop_frac": "frac",
    "workload.syn_sent": "count",
    "link.frames": "count",
    "freelist.hit_frac": "frac",
    "tcp.segments": "count",
    "tcp.rto_fires": "count",
    "cluster.forwarded": "count",
    "cluster.retry_frac": "frac",
    "path.creates": "count",
    "path.destroys": "count",
    "kernel.path_kills": "count",
    "kernel.runaway_traps": "count",
    "kernel.throttles": "count",
    "defense.escalations": "count",
    "driver.checkpoint_s": "s",
    "driver.journal_s": "s",
    "driver.obs_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead": "x",
    "legit_fail_frac": "frac",
    "error_rate": "frac",
}


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def spawn_rep(workload: str, seed: int, scale: float, traced: bool,
              trace_out: Optional[str] = None) -> Dict:
    """Run one repetition in a fresh interpreter; returns its report."""
    cfg = {"workload": workload, "seed": seed,
           "scale": scale, "traced": traced, "work_root": WORK_ROOT,
           "trace_out": trace_out}
    # Imports come from a bytecode cache kept in the benchmark's scratch
    # directory, so setup_s measures a warm start whatever the caller's
    # environment says about writing bytecode.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(WORK_ROOT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, REP, str(spawn_ns), json.dumps(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S:.0f} s"}
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def problems(rep: Dict, reference: Optional[Dict],
             expected: Optional[Dict]) -> List[str]:
    """Why ``rep`` fails the output check (empty when it passes)."""
    from repro.snapshot.digest import summary_diff

    if "error" in rep:
        return ["raised: " + rep["error"].strip().splitlines()[-1]]
    out = list(rep["failures"])
    if expected is not None:
        out += ["vs expected " + d
                for d in summary_diff(expected, rep["result"], "result")]
    if reference is not None:
        out += ["vs first run " + d for d in summary_diff(
            reference["result"], rep["result"], "result")]
        events = reference["counts"]["queue_health"]["events_processed"]
        if rep["counts"]["queue_health"]["events_processed"] != events:
            out.append("events processed differ from the first run")
    return out


def legit_ok_frac(window: Dict) -> float:
    attempts = (window["completions"] + window["aborted"]
                + window["refused"] + window["retried"])
    return window["completions"] / attempts if attempts else 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def slices_ms(reps: List[Dict]) -> List[float]:
    """Each slice's calibrated host time, the median over the repetitions,
    in ms.

    Every repetition of one seed does the same simulated work in slice
    ``i``.  Calibration (:func:`probe.calibrate`) takes out the host's
    slow phases, which last from under a second to minutes; the median
    over repetitions takes out what is left of them and single stalls.
    """
    calibrated = [probe.calibrate(rep["slices_ns"], rep["probes_ns"])
                  for rep in reps]
    return [statistics.median(column) / 1e6 for column in zip(*calibrated)]


def setup_s(rep: Dict) -> float:
    """A repetition's set-up time, calibrated by the probes of its first
    slices, the ones nearest to it."""
    first = rep["probes_ns"][:2 * probe.WINDOW + 1]
    return rep["setup_s"] * (probe.QUIET_NS
                             / statistics.median(first)) ** probe.ELASTICITY


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    per_slice = slices_ms(reps)
    run_s = sum(per_slice) / 1e3
    first = reps[0]
    return {
        "host_s_per_sim_s": run_s / first["sim_s"],
        "requests_per_host_s": first["counts"]["completions_total"] / run_s,
        "slice_ms_p50": statistics.median(per_slice),
        "slice_ms_p90": statistics.quantiles(per_slice, n=10,
                                             method="inclusive")[-1],
        "setup_s": statistics.median(setup_s(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "goodput_cps": first["window"]["goodput_cps"],
        "legit_ok_frac": legit_ok_frac(first["window"]),
    }


def per_layer(plain: List[Dict], traced: List[Dict],
              error_rate: float) -> Dict[str, float]:
    med = statistics.median
    rep = traced[0]
    counts = rep["counts"]
    health = counts["queue_health"]
    spans = rep["spans"]
    window = rep["window"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def span_s(name: str) -> float:
        return med(r["spans"].get(name, {}).get("total_s", 0.0)
                   for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(r["layers_s"][layer] for r in traced)
        out[f"{layer}.share"] = med(
            r["layers_s"][layer] / sum(r["layers_s"].values())
            for r in traced)
    events = health["events_processed"]
    scheduled = health["scheduled"]
    attempts = (window["completions"] + window["aborted"]
                + window["refused"] + window["retried"])
    classify = calls("demux.classify")
    out.update({
        "engine.events": events,
        "engine.events_per_request": ratio(events,
                                           counts["completions_total"]),
        "engine.wheel_frac": ratio(health["wheel_scheduled"], scheduled),
        "engine.fast_lane_frac": ratio(health["fast_lane_events"], events),
        "engine.cancelled_frac": ratio(
            health["cancelled_removed"] + health["cancelled_pending"]
            + health["cancelled_wheel"], scheduled),
        "engine.host_ns_per_event": sum(slices_ms(plain)) / events * 1e6,
        "cpu.chunk_events": rep["scheduled"].get("CPU._chunk_done", 0),
        "cpu.intr_events": rep["scheduled"].get("CPU._intr_done", 0),
        "cpu.busy_frac": counts["cpu_busy_frac"],
        "demux.classify_calls": classify,
        "demux.drop_frac": ratio(counts["demux_drops"], classify),
        "workload.syn_sent": counts["syn_sent"],
        "link.frames": calls("link.send"),
        "freelist.hit_frac": ratio(counts["pool_recycled"],
                                   counts["pool_acquired"]),
        "tcp.segments": calls("tcp.on_segment"),
        "tcp.rto_fires": calls("tcp.on_rto"),
        "cluster.forwarded": counts["forwarded"],
        "cluster.retry_frac": ratio(window["retried"], attempts),
        "path.creates": calls("path.create"),
        "path.destroys": calls("path.destroy"),
        "kernel.path_kills": counts["path_kills"],
        "kernel.runaway_traps": counts["runaway_traps"],
        "kernel.throttles": counts["throttles"],
        "defense.escalations": counts["escalations"],
        "driver.checkpoint_s": span_s("driver.checkpoint"),
        "driver.journal_s": span_s("driver.journal"),
        "driver.obs_s": span_s("driver.obs"),
        "gc.collections": med(r["gc"]["collections"] for r in plain),
        "gc.pause_s": med(r["gc"]["pause_s"] for r in plain),
        "trace.overhead": sum(slices_ms(traced)) / sum(slices_ms(plain)),
        "legit_fail_frac": 1.0 - legit_ok_frac(window),
        "error_rate": error_rate,
    })
    return out


def show(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Host time per simulated second on the attack-load "
                    "workloads, with a per-layer trace.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every simulated length (smoke tests; "
                             "no expected result applies)")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's result in expected.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    expected = (check.expected_for(args.workload, args.seed)
                if args.scale == 1.0 and not args.record else None)

    if args.record:
        rep = spawn_rep(args.workload, args.seed, args.scale, False)
        found = problems(rep, None, None)
        if found:
            print("error: not recording a failing run: " + "; ".join(found),
                  file=sys.stderr)
            return 1
        check.record(args.workload, args.seed, rep["result"])
        print(f"recorded {args.workload} seed {args.seed}")
        return 0

    started = time.monotonic()
    plain: List[Dict] = []
    traced: List[Dict] = []
    errors: List[str] = []
    reference = None
    trace_out = os.path.join(WORK_ROOT, f"spans-{args.workload}.jsonl")
    if args.trace:
        os.makedirs(WORK_ROOT, exist_ok=True)
    batches = 0
    while True:
        batch = [spawn_rep(args.workload, args.seed, args.scale, False)]
        if args.trace:
            batch.append(spawn_rep(args.workload, args.seed, args.scale,
                                   True, trace_out))
        for is_traced, rep in zip((False, True), batch):
            found = problems(rep, reference, expected)
            if found:
                errors.append("; ".join(found[:5]))
                continue
            if reference is None:
                reference = rep
            (traced if is_traced else plain).append(rep)
        batches += 1
        elapsed = time.monotonic() - started
        next_end = elapsed + elapsed / batches
        if next_end > HARD_LIMIT_S:
            break
        if batches >= (MIN_PAIRS if args.trace else MIN_REPS) \
                and next_end > args.seconds:
            break

    attempted = len(plain) + len(traced) + len(errors)
    for message in errors:
        print(f"output check FAILED: {message}")
    if not plain or (args.trace and not traced):
        print("error: no repetition passed the output check",
              file=sys.stderr)
        return 1

    e2e = end_to_end(plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetition(s) in "
          f"{time.monotonic() - started:.1f} s; output check "
          f"{'passed' if not errors else 'FAILED'}"
          f"{'' if expected is not None else ' (no recorded result)'}")
    print("end to end:")
    show(e2e, END_TO_END)
    metrics, units = e2e, END_TO_END
    if args.trace:
        layers = per_layer(plain, traced, len(errors) / attempted)
        print(f"per layer (spans in {os.path.relpath(trace_out, ROOT)}):")
        show(layers, PER_LAYER)
        metrics, units = layers, PER_LAYER
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
