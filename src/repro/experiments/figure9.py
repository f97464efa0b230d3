"""Figure 9: defending against a SYN attack.

One attacker floods 1000 SYN/s from the untrusted subnet while 1-64
trusted clients fetch documents.  The policy: separate passive paths for
the trusted and untrusted subnets, with a SYN_RCVD cap on the untrusted
one, enforced at demultiplexing time so flood packets are dropped for the
price of an interrupt plus a few demux calls.

Paper shape targets: best-effort traffic slows by <5 % under Accounting
and <15 % under Accounting_PD (the extra cost is TLB misses during demux),
for both the 1-byte and 10 KB documents (1 KB within 3 % of 1-byte).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.figure8 import document_label
from repro.experiments.report import paired_table

#: Slowdown bands from the paper's text.
PAPER_MAX_SLOWDOWN = {"accounting": 0.05, "accounting_pd": 0.15}


@dataclass
class Figure9Result:
    client_counts: List[int]
    document: str
    syn_rate: int
    #: config -> {"base": series, "attack": series}
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    syn_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def slowdown(self, config: str) -> float:
        base = self.series[config]["base"][-1]
        attacked = self.series[config]["attack"][-1]
        return 1 - attacked / base if base else 0.0

    def format(self) -> str:
        notes = "; ".join(
            f"{c}: slowdown {self.slowdown(c):.1%} "
            f"(paper <{PAPER_MAX_SLOWDOWN.get(c, 0):.0%}), "
            f"{self.syn_stats[c]['dropped']}/{self.syn_stats[c]['sent']} "
            f"SYNs dropped at demux"
            for c in self.series)
        return paired_table(
            f"Figure 9 — {document_label(self.document)} documents under a "
            f"{self.syn_rate} SYN/s attack (connections/second)",
            self.client_counts, self.series, "attack", "+SYN", notes)


def run_figure9(client_counts: Sequence[int] = (16, 64),
                configs: Sequence[str] = ("accounting", "accounting_pd"),
                document: str = "/doc-1",
                syn_rate: int = 1000,
                untrusted_cap: int = 16,
                warmup_s: float = 2.0,
                measure_s: float = 2.0,
                checkpoint_dir: Optional[str] = None,
                workers: int = 0,
                supervised: bool = False) -> Figure9Result:
    """Measure best-effort throughput with and without the SYN flood.

    With ``checkpoint_dir``, finished cells persist to a
    ``figure9-cells.jrnl`` cell cache there, and a re-run after a crash
    skips them; a cache file that cannot be used raises
    :class:`~repro.snapshot.journal.JournalError`.  ``workers > 1`` fans
    the cells out over a process pool, byte-identical to a serial run.
    ``supervised`` runs each cell in a crash-only supervised child that
    resumes from ``<checkpoint_dir>/supervise/``; a cell that exhausts
    its retries raises only after every other cell has been cached
    (:func:`repro.perf.pool.run_cells`).
    """
    from repro.perf.pool import run_specs
    from repro.snapshot.runs import ExperimentRun

    modes = ("base", "attack")
    base = ExperimentRun(document=document, untrusted_cap=untrusted_cap,
                         warmup_s=warmup_s, measure_s=measure_s)
    runs = {f"{config}/{n}/{mode}": replace(
                base, config=config, clients=n,
                syn_rate=syn_rate if mode == "attack" else 0)
            for config in configs for n in client_counts for mode in modes}
    cache_path = (os.path.join(checkpoint_dir, "figure9-cells.jrnl")
                  if checkpoint_dir else None)
    merged = run_specs(runs, workers, cache_path, supervised)

    result = Figure9Result(client_counts=list(client_counts),
                           document=document, syn_rate=syn_rate)
    for config in configs:
        cells = {mode: [merged[f"{config}/{n}/{mode}"]
                        for n in client_counts] for mode in modes}
        result.series[config] = {
            mode: [m["connections_per_second"] for m in cells[mode]]
            for mode in cells}
        last = cells["attack"][-1] if client_counts else {}
        result.syn_stats[config] = {
            "sent": last.get("syn_sent", 0),
            "dropped": last.get("syn_dropped_at_demux", 0)}
    return result
