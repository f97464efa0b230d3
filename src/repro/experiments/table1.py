"""Table 1: accounting accuracy.

"Average number of cycles spent serving 100 serial requests of a one-byte
web document."  The measurement starts when the passive path accepts the
SYN (creating the active path) and concludes when the final FIN is
acknowledged; Escort's own counters are then compared against the measured
total.  The paper's claims:

* virtually 100 % of measured cycles are accounted for;
* more than 92 % of the non-idle cycles are charged to the active path
  serving the request;
* the passive path takes a small constant share per connection; the TCP
  master event and the softclock are nearly free.

We run one serial client, attribute every cycle through the global ledger,
and window "Total Measured" the same way the paper does (the sum of the
per-connection SYN-to-FIN windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.clock import ticks_to_server_cycles
from repro.experiments.harness import Testbed
from repro.experiments.report import format_table

#: Paper values (cycles per request) for reference columns.
PAPER = {
    "accounting": {
        "total_measured": 402_033,
        "idle": 201_493,
        "passive": 11_223,
        "active": 188_685,
        "tcp_master": 38,
        "softclock": 92,
    },
    "accounting_pd": {
        "total_measured": 1_123_195,
        "idle": 9_825,
        "passive": 78_882,
        "active": 1_033_772,
        "tcp_master": 514,
        "softclock": 200,
    },
}

#: Seconds of serial requests measured after a 0.5 s warmup.
MEASURE_S = 2.0


@dataclass
class Table1Result:
    config: str
    requests: int
    total_measured: int      # avg cycles per request window (SYN->FIN)
    idle: int
    passive: int
    active: int
    tcp_master: int
    softclock: int

    @property
    def total_accounted(self) -> int:
        return (self.idle + self.passive + self.active + self.tcp_master
                + self.softclock)

    @property
    def accounted_fraction(self) -> float:
        if self.total_measured == 0:
            return 0.0
        return self.total_accounted / self.total_measured

    @property
    def active_share_of_busy(self) -> float:
        busy = self.total_accounted - self.idle
        return self.active / busy if busy else 0.0

    def rows(self) -> List[Tuple[str, int]]:
        return [
            ("Total Measured", self.total_measured),
            ("Idle", self.idle),
            ("Passive SYN Path", self.passive),
            ("Main Active Path", self.active),
            ("TCP Master Event", self.tcp_master),
            ("Softclock", self.softclock),
            ("Total Accounted", self.total_accounted),
        ]


def run_table1(config: str = "accounting") -> Table1Result:
    """Serve serial one-byte requests and break down the cycles.

    The measurement windows are exactly the paper's: from the SYN being
    accepted (active-path creation) to the final FIN acknowledgement.  A
    timestamped charge log lets us integrate each owner category over just
    those windows — work outside them (client think time, connection
    teardown after the last ACK) is excluded, as in the paper.
    """
    from bisect import bisect_right

    bed = Testbed.by_name(config)
    bed.add_clients(1, document="/doc-1")

    charge_log = []  # (tick, category, cycles)
    ledger = bed.ledger

    def log_charge(owner, cycles):
        if ledger.recording and owner is not None:
            charge_log.append((bed.sim.now, owner.category, cycles))

    bed.server.kernel.cpu.charge_listeners.append(log_charge)
    run = bed.run(warmup_s=0.5, measure_s=MEASURE_S)

    tcp = bed.server.tcp
    windows = sorted(w for w in tcp.conn_windows
                     if run.window_start <= w[1] <= run.window_end)
    n = max(1, len(windows))
    window_cycles = sum(ticks_to_server_cycles(b - a) for a, b in windows)

    starts = [a for a, _ in windows]
    ends = [b for _, b in windows]

    def in_window(tick: int) -> bool:
        i = bisect_right(starts, tick) - 1
        return i >= 0 and tick <= ends[i]

    by_cat: Dict[str, int] = {}
    for tick, category, cycles in charge_log:
        if in_window(tick):
            by_cat[category] = by_cat.get(category, 0) + cycles

    passive = by_cat.get("passive-path", 0)
    active = by_cat.get("active-path", 0)
    tcp_pd = sum(v for k, v in by_cat.items() if k.startswith("pd:"))
    softclock = by_cat.get("kernel", 0)
    idle = by_cat.get("idle", 0)

    return Table1Result(
        config=config,
        requests=len(windows),
        total_measured=window_cycles // n,
        idle=idle // n,
        passive=passive // n,
        active=active // n,
        tcp_master=tcp_pd // n,
        softclock=softclock // n,
    )


def format_table1(results: List[Table1Result]) -> str:
    """Render Table 1 with the paper's reference columns alongside."""
    headers = ["Owner"] + [r.config for r in results] \
        + [f"paper:{r.config}" for r in results if r.config in PAPER]
    label_map = {
        "Total Measured": "total_measured", "Idle": "idle",
        "Passive SYN Path": "passive", "Main Active Path": "active",
        "TCP Master Event": "tcp_master", "Softclock": "softclock",
    }
    rows = []
    for label, _ in results[0].rows():
        row = [label]
        for r in results:
            row.append(dict(r.rows())[label])
        for r in results:
            if r.config in PAPER:
                key = label_map.get(label)
                row.append(PAPER[r.config][key] if key else
                           sum(PAPER[r.config].values())
                           - PAPER[r.config]["total_measured"])
        rows.append(row)
    notes = "; ".join(
        f"{r.config}: {r.accounted_fraction:.1%} accounted, "
        f"active={r.active_share_of_busy:.1%} of busy"
        for r in results)
    return format_table(
        "Table 1 — cycles per one-byte request (serial client)",
        headers, rows, note=notes)
