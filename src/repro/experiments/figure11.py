"""Figure 11: the CGI attack.

64 clients plus the 1 MBps QoS stream, with 0-50 CGI attackers each
launching one runaway-CGI request per second.  The policy detects a
runaway after 2 ms of CPU and pathKills it, reclaiming everything.

Paper shape targets:

* the QoS stream stays within 1 % of its target in ALL cases;
* best-effort traffic degrades substantially with attacker count — each
  attack costs the 2 ms detection window plus the kill — and
  Accounting_PD suffers proportionally more (its kills cost ~6x);
* every attack is detected (kills track attacks launched).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.figure8 import document_label
from repro.experiments.report import format_table

QOS_TARGET_BPS = 1_000_000


@dataclass
class Figure11Result:
    attacker_counts: List[int]
    document: str
    clients: int
    #: config -> conn/s series over attacker counts.
    series: Dict[str, List[float]] = field(default_factory=dict)
    qos_series: Dict[str, List[float]] = field(default_factory=dict)
    kills: Dict[str, List[int]] = field(default_factory=dict)

    def degradation(self, config: str) -> float:
        base = self.series[config][0]
        worst = self.series[config][-1]
        return 1 - worst / base if base else 0.0

    def max_qos_error(self, config: str) -> float:
        return max(abs(bw - QOS_TARGET_BPS) / QOS_TARGET_BPS
                   for bw in self.qos_series[config])

    def format(self) -> str:
        headers = ["attackers"]
        for config in self.series:
            headers += [config, f"{config} QoS MB/s", f"{config} kills"]
        rows = []
        for i, n in enumerate(self.attacker_counts):
            row = [n]
            for config in self.series:
                row += [self.series[config][i],
                        round(self.qos_series[config][i] / 1e6, 3),
                        self.kills[config][i]]
            rows.append(row)
        notes = "; ".join(
            f"{c}: best-effort degrades {self.degradation(c):.1%} at "
            f"{self.attacker_counts[-1]} attackers, QoS error <= "
            f"{self.max_qos_error(c):.1%}"
            for c in self.series)
        table = format_table(
            f"Figure 11 — {document_label(self.document)} documents, "
            f"{self.clients} clients, 1 MBps QoS stream, runaway CGI "
            f"attackers (connections/second)",
            headers, rows, note=notes)
        if len(self.attacker_counts) > 1:
            from repro.experiments.plotting import figure11_chart
            table = table + "\n\n" + figure11_chart(self)
        return table


def run_figure11(attacker_counts: Sequence[int] = (0, 1, 10, 50),
                 configs: Sequence[str] = ("accounting", "accounting_pd"),
                 clients: int = 64,
                 document: str = "/doc-1",
                 warmup_s: float = 1.5,
                 measure_s: float = 3.0,
                 workers: int = 0) -> Figure11Result:
    """Sweep CGI attacker counts against 64 clients plus the stream.

    ``workers > 1`` runs the cells on a process pool; results are
    byte-identical to a serial sweep.
    """
    from repro.perf.pool import run_specs
    from repro.snapshot.runs import ExperimentRun

    base = ExperimentRun(clients=clients, document=document, qos=True,
                         warmup_s=warmup_s, measure_s=measure_s)
    merged = run_specs(
        {f"{config}/{n}": replace(base, config=config, cgi_attackers=n)
         for config in configs
         for n in attacker_counts}, workers)

    result = Figure11Result(attacker_counts=list(attacker_counts),
                            document=document, clients=clients)
    for config in configs:
        cells = [merged[f"{config}/{n}"] for n in attacker_counts]
        result.series[config] = [m["connections_per_second"] for m in cells]
        result.qos_series[config] = [m["qos_bandwidth_bps"] for m in cells]
        result.kills[config] = [m["runaway_kills"] for m in cells]
    return result
