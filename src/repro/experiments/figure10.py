"""Figure 10: sustaining a QoS stream under load.

A 1 MBps TCP stream with a proportional-share CPU reservation runs while
1-64 best-effort clients hammer the server.  Paper shape targets:

* the stream's ten-second averages stay within 1 % of the 1 MBps target;
* best-effort traffic slows ~15 % under Accounting and ~50 % under
  Accounting_PD (the stream simply needs that much more CPU when every
  segment pays protection-domain crossings).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.figure8 import document_label
from repro.experiments.report import paired_table

PAPER_SLOWDOWN = {"accounting": 0.15, "accounting_pd": 0.50}
QOS_TARGET_BPS = 1_000_000


@dataclass
class Figure10Result:
    client_counts: List[int]
    document: str
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    qos_bandwidth: Dict[str, float] = field(default_factory=dict)

    def slowdown(self, config: str) -> float:
        base = self.series[config]["base"][-1]
        with_qos = self.series[config]["qos"][-1]
        return 1 - with_qos / base if base else 0.0

    def qos_error(self, config: str) -> float:
        return abs(self.qos_bandwidth[config] - QOS_TARGET_BPS) \
            / QOS_TARGET_BPS

    def format(self) -> str:
        notes = "; ".join(
            f"{c}: stream {self.qos_bandwidth[c] / 1e6:.3f} MB/s "
            f"(err {self.qos_error(c):.1%}), best-effort slowdown "
            f"{self.slowdown(c):.1%} (paper ~{PAPER_SLOWDOWN.get(c, 0):.0%})"
            for c in self.series)
        return paired_table(
            f"Figure 10 — {document_label(self.document)} documents with a "
            f"1 MBps QoS stream (connections/second)",
            self.client_counts, self.series, "qos", "+QoS", notes)


def run_figure10(client_counts: Sequence[int] = (16, 64),
                 configs: Sequence[str] = ("accounting", "accounting_pd"),
                 document: str = "/doc-1",
                 warmup_s: float = 2.0,
                 measure_s: float = 3.0,
                 workers: int = 0) -> Figure10Result:
    """Measure best-effort throughput with and without the QoS stream.

    ``workers > 1`` runs the cells on a process pool; results are
    byte-identical to a serial sweep.
    """
    from repro.perf.pool import run_specs
    from repro.snapshot.runs import ExperimentRun

    modes = ("base", "qos")
    base = ExperimentRun(document=document, warmup_s=warmup_s,
                         measure_s=measure_s)
    merged = run_specs(
        {f"{config}/{n}/{mode}": replace(base, config=config, clients=n,
                                         qos=mode == "qos")
         for config in configs for n in client_counts for mode in modes},
        workers)

    result = Figure10Result(client_counts=list(client_counts),
                            document=document)
    for config in configs:
        result.series[config] = {
            mode: [merged[f"{config}/{n}/{mode}"]["connections_per_second"]
                   for n in client_counts]
            for mode in modes}
        last = (merged[f"{config}/{client_counts[-1]}/qos"]
                if client_counts else {})
        result.qos_bandwidth[config] = last.get("qos_bandwidth_bps", 0.0)
    return result
