"""Ablations of the design choices DESIGN.md calls out.

Three sweeps, each probing one claim from the paper's analysis:

* **Domain grouping** — "each additional domain adds, on average, a 25 %
  performance penalty to the single domain case ... in practice, it might
  be reasonable to combine TCP, IP, and ETH in one protection domain" and
  "we expect the slowdown to be much less than a factor of two" (sections
  4.2 and 6).  We sweep the number of protection domains from 1 to 7 by
  grouping modules and measure the per-domain penalty directly.
* **Crossing cost** — the authors expected their PAL-code fixes to cut the
  per-domain overhead "by more than a factor of two"; we rerun the PD
  configuration with the crossing cost halved and quartered.
* **Early demux** — the SYN defence depends on dropping floods at
  demultiplexing time.  We compare against a server whose cap is enforced
  only at the passive path (late drop), measuring what early drop buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.report import format_table

#: Progressive grouping of the Figure 1 modules: index = domains used.
GROUPINGS: Dict[int, List[List[str]]] = {
    1: [["eth", "arp", "ip", "icmp", "tcp", "http", "fs", "scsi"]],
    2: [["eth", "arp", "ip", "icmp", "tcp"], ["http", "fs", "scsi"]],
    3: [["eth", "arp", "ip", "icmp", "tcp"], ["http"], ["fs", "scsi"]],
    4: [["eth", "arp", "ip", "icmp"], ["tcp"], ["http"], ["fs", "scsi"]],
    5: [["eth", "arp", "icmp"], ["ip"], ["tcp"], ["http"], ["fs", "scsi"]],
    6: [["eth", "arp", "icmp"], ["ip"], ["tcp"], ["http"], ["fs"],
        ["scsi"]],
    7: [["arp", "icmp"]],  # otherwise one domain per module (Figure 3)
}


@dataclass
class DomainSweepResult:
    domains: List[int]
    conn_per_second: List[float]

    def per_domain_penalty(self) -> float:
        """Average fractional throughput loss per extra domain."""
        base = self.conn_per_second[0]
        worst = self.conn_per_second[-1]
        steps = self.domains[-1] - self.domains[0]
        if steps == 0 or worst == 0:
            return 0.0
        # Solve base / worst = (1 + p) ** steps for p.
        return (base / worst) ** (1 / steps) - 1

    def format(self) -> str:
        rows = [[d, r] for d, r in zip(self.domains, self.conn_per_second)]
        return format_table(
            "Ablation — throughput vs number of protection domains "
            "(64 clients, 1 B documents)",
            ["domains", "conn/s"], rows,
            note=f"average per-domain penalty: "
                 f"{self.per_domain_penalty():.1%} "
                 f"(paper: ~25 % per additional domain)")


def run_domain_sweep(domain_counts: Sequence[int] = (1, 2, 4, 7),
                     clients: int = 64,
                     warmup_s: float = 0.5,
                     measure_s: float = 1.0,
                     workers: int = 0) -> DomainSweepResult:
    """Measure throughput while grouping modules into fewer domains."""
    from repro.perf.pool import SweepCell, completed, run_cells

    cells = [SweepCell(key=f"domains/{n}", runner="ablation-domains",
                       params=dict(domains=n, clients=clients,
                                   warmup_s=warmup_s, measure_s=measure_s))
             for n in domain_counts]
    merged = completed(run_cells(cells, workers=workers))
    return DomainSweepResult(
        domains=list(domain_counts),
        conn_per_second=[merged[f"domains/{n}"]["cps"]
                         for n in domain_counts])


@dataclass
class CrossingCostResult:
    crossing_costs: List[int]
    conn_per_second: List[float]

    def format(self) -> str:
        rows = [[c, r] for c, r in
                zip(self.crossing_costs, self.conn_per_second)]
        return format_table(
            "Ablation — Accounting_PD throughput vs crossing cost",
            ["crossing cycles", "conn/s"], rows,
            note="the paper expected PAL-code fixes to cut per-domain "
                 "overhead by more than 2x")


def run_crossing_cost_sweep(factors: Sequence[float] = (1.0, 0.5, 0.25),
                            clients: int = 64,
                            warmup_s: float = 0.5,
                            measure_s: float = 1.0,
                            workers: int = 0) -> CrossingCostResult:
    """Rerun Accounting_PD with cheaper protection-domain crossings."""
    from repro.perf.pool import SweepCell, completed, run_cells

    cells = [SweepCell(key=f"crossing/{factor}", runner="ablation-crossing",
                       params=dict(factor=factor, clients=clients,
                                   warmup_s=warmup_s, measure_s=measure_s))
             for factor in factors]
    merged = completed(run_cells(cells, workers=workers))
    return CrossingCostResult(
        crossing_costs=[merged[f"crossing/{f}"]["crossing"]
                        for f in factors],
        conn_per_second=[merged[f"crossing/{f}"]["cps"] for f in factors])


@dataclass
class EarlyDropResult:
    early_conn_per_second: float
    late_conn_per_second: float
    early_drops: int

    def format(self) -> str:
        rows = [["early (demux-time) drop", self.early_conn_per_second],
                ["late (passive-path) drop", self.late_conn_per_second]]
        return format_table(
            "Ablation — early vs late SYN-flood drop (Accounting, "
            "32 clients + 1000 SYN/s)",
            ["defence", "client conn/s"], rows,
            note=f"{self.early_drops} SYNs died at demux in the early "
                 f"configuration")


def run_early_drop_ablation(clients: int = 32, syn_rate: int = 1000,
                            warmup_s: float = 1.5,
                            measure_s: float = 1.5,
                            workers: int = 0) -> EarlyDropResult:
    """Compare demux-time vs passive-path SYN-cap enforcement."""
    from repro.perf.pool import SweepCell, completed, run_cells

    cells = [SweepCell(key=f"drop/{'early' if early else 'late'}",
                       runner="ablation-early-drop",
                       params=dict(early=early, clients=clients,
                                   syn_rate=syn_rate, warmup_s=warmup_s,
                                   measure_s=measure_s))
             for early in (True, False)]
    merged = completed(run_cells(cells, workers=workers))
    return EarlyDropResult(
        early_conn_per_second=merged["drop/early"]["cps"],
        late_conn_per_second=merged["drop/late"]["cps"],
        early_drops=merged["drop/early"]["early_drops"])
