"""Discrete-event simulation substrate.

The paper's testbed is real hardware: a 300 MHz AlphaPC 21064 server, 200 MHz
PentiumPro clients, and a shared 100 Mbps Ethernet.  This package provides the
virtual equivalents: an integer-tick simulated clock (:mod:`repro.sim.clock`),
an event engine (:mod:`repro.sim.engine`), a virtual CPU that executes
non-preemptive threads and charges every consumed cycle to an owner
(:mod:`repro.sim.cpu`), and the calibrated cost model
(:mod:`repro.sim.costs`).
"""

from repro.sim.clock import (
    TICKS_PER_SECOND,
    SERVER_CYCLE_HZ,
    SERVER_TICKS_PER_CYCLE,
    seconds_to_ticks,
    millis_to_ticks,
    micros_to_ticks,
    ticks_to_seconds,
    server_cycles_to_ticks,
    ticks_to_server_cycles,
)
from repro.sim.engine import Event, Simulator
from repro.sim.cpu import (
    CPU,
    SimThread,
    Cycles,
    Block,
    Sleep,
    YieldCPU,
    Interrupt,
    ThreadKilled,
)
from repro.sim.costs import CostModel

__all__ = [
    "TICKS_PER_SECOND",
    "SERVER_CYCLE_HZ",
    "SERVER_TICKS_PER_CYCLE",
    "seconds_to_ticks",
    "millis_to_ticks",
    "micros_to_ticks",
    "ticks_to_seconds",
    "server_cycles_to_ticks",
    "ticks_to_server_cycles",
    "Event",
    "Simulator",
    "CPU",
    "SimThread",
    "Cycles",
    "Block",
    "Sleep",
    "YieldCPU",
    "Interrupt",
    "ThreadKilled",
    "CostModel",
]
