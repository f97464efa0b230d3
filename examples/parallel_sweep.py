#!/usr/bin/env python
"""Scenario: a parallel Figure-9 sweep that survives being interrupted.

The Figure-9 grid is embarrassingly parallel — every (config, clients,
attack) cell boots its own machine — so ``run_figure9(workers=4)`` fans
the cells over a process pool.  Because workers share nothing and every
cell resets the id counters before building, the parallel sweep's numbers
are **byte-identical** to a serial run; this script proves it by running
the same small grid both ways and comparing.

It then demonstrates crash-safe resume: a sweep pointed at a checkpoint
directory persists every finished cell to ``figure9-cells.jrnl`` as it
completes.  We simulate an interruption by running only half the grid,
then issue the full sweep against the same directory — the finished cells
load from the cache without re-executing a single machine, and only the
missing ones fan out to the workers.

Run:
    python examples/parallel_sweep.py [workers]
"""

import json
import sys
import tempfile
import time

from repro.experiments.figure9 import run_figure9

GRID = dict(client_counts=(2, 4, 8), configs=("accounting",),
            syn_rate=500, warmup_s=0.2, measure_s=0.5)


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    n_cells = len(GRID["client_counts"]) * len(GRID["configs"]) * 2
    print("Parallel Figure-9 sweep demo")
    print("=" * 55)

    # 1. Serial vs parallel: same numbers, to the byte.
    t0 = time.perf_counter()
    serial = run_figure9(**GRID)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_figure9(workers=workers, **GRID)
    parallel_s = time.perf_counter() - t0

    identical = (serial.series == parallel.series
                 and serial.syn_stats == parallel.syn_stats)
    print(f"\n{n_cells} cells serial:        {serial_s:6.2f} s")
    print(f"{n_cells} cells x{workers} workers:    {parallel_s:6.2f} s"
          f"   (speedup {serial_s / parallel_s:.2f}x)")
    print(f"results byte-identical: {identical}")
    if not identical:
        raise SystemExit("BUG: parallel sweep diverged from serial")

    # 2. Resume after an interruption.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        partial = dict(GRID, client_counts=GRID["client_counts"][:2])
        print(f"\ninterrupted run: only {2 * len(partial['client_counts'])} "
              f"of {n_cells} cells finish, each persisted to "
              f"{ckpt_dir}/figure9-cells.jrnl")
        run_figure9(workers=workers, checkpoint_dir=ckpt_dir, **partial)

        t0 = time.perf_counter()
        resumed = run_figure9(workers=workers, checkpoint_dir=ckpt_dir,
                              **GRID)
        resumed_s = time.perf_counter() - t0
        print(f"re-issued full sweep:   {resumed_s:6.2f} s   "
              f"(cached cells skipped, only the missing ran)")
        if (resumed.series != serial.series
                or resumed.syn_stats != serial.syn_stats):
            raise SystemExit("BUG: resumed sweep diverged from serial")
        print("resumed results byte-identical to the serial run: True")

    print("\nfinal table:")
    print(parallel.format())
    print("\nper-cell JSON (what crosses the process boundary back):")
    print(json.dumps(parallel.series, indent=2))


if __name__ == "__main__":
    main()
