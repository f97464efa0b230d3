"""Targeted microbenchmark for the simulator's early-drop hot path.

**Demux dispatch** — repeated incremental demultiplexing of one spoofed SYN
frame through the eth -> ip -> tcp module chain of a freshly booted server.
``classify`` is side-effect free, so one frame can be classified
arbitrarily often; this is the per-packet cost the paper's early-drop
defense story rides on.  Reported as the ``microbench`` section of
``BENCH_sim.json``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict


def _best_of(fn: Callable[[], float], reps: int) -> float:
    return min(fn() for _ in range(max(1, reps)))


# ----------------------------------------------------------------------
# Demux dispatch: the early-drop hot path
# ----------------------------------------------------------------------
def bench_demux(n_classifications: int = 30_000, reps: int = 3) -> Dict:
    """Classify one spoofed SYN frame repeatedly through a booted server."""
    from repro.experiments.harness import SERVER_IP, Testbed
    from repro.net.packet import (
        ETHERTYPE_IP, EthFrame, FLAG_SYN, IPDatagram, IPPROTO_TCP,
        TCPSegment)
    from repro.sim.clock import seconds_to_ticks

    bed = Testbed.escort(accounting=True, protection_domains=False)
    bed.server.boot()
    # Let the boot-time listen paths finish assembling.
    bed.sim.run(bed.sim.now + seconds_to_ticks(0.05))

    seg = TCPSegment(4321, 80, seq=0, ack=0, flags=FLAG_SYN)
    dgram = IPDatagram("10.9.0.5", SERVER_IP, IPPROTO_TCP, seg)
    frame = EthFrame(bed.server.nic.mac, bed.server.nic.mac,
                     ETHERTYPE_IP, dgram)
    demux = bed.server.demultiplexer
    eth = bed.server.eth
    first = demux.classify(eth, frame)

    def once() -> float:
        classify = demux.classify
        t0 = time.perf_counter()
        for _ in range(n_classifications):
            classify(eth, frame)
        return time.perf_counter() - t0

    wall = _best_of(once, reps)
    return {
        "classifications": n_classifications,
        "result_kind": first.kind,
        "modules_consulted": first.modules_consulted,
        "wall_s": round(wall, 4),
        "classifications_per_sec": round(n_classifications / wall),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_microbench(quick: bool = False) -> Dict:
    """The full microbench section (see module docstring)."""
    scale = 5 if quick else 1
    return {
        "demux": bench_demux(
            n_classifications=30_000 // scale, reps=2 if quick else 3),
    }
