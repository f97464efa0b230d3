"""Figure 8: base web-server performance.

"Performance of the web server as it retrieves documents of size 1-byte,
1K-bytes, and 10K-bytes, respectively, from between 1 and 64 parallel
clients" for the four configurations (Linux, Scout, Accounting,
Accounting_PD).

Paper shape targets:

* Scout plateaus over 2x the Linux/Apache rate (~800 vs ~400 conn/s);
* Accounting costs ~8 % over Scout;
* Accounting_PD is over 4x slower than Accounting (one domain per module);
* 1 KB tracks the 1-byte curve closely; 10 KB saturates at 50-60 % of the
  1 KB rate, and below ~16 clients it is further slowed by TCP congestion
  control (initial cwnd of 1 against the clients' delayed ACKs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.experiments.report import format_table
from repro.snapshot.runs import CONFIGS

DOCUMENTS = {"1B": "/doc-1", "1KB": "/doc-1k", "10KB": "/doc-10k"}
DEFAULT_CLIENTS = (1, 2, 4, 8, 16, 32, 64)

#: Eyeballed plateau values from the paper's Figure 8 (conn/s, 64 clients).
PAPER_PLATEAUS = {
    ("1B", "scout"): 800.0,
    ("1B", "accounting"): 740.0,
    ("1B", "accounting_pd"): 180.0,
    ("1B", "linux"): 400.0,
    ("10KB", "scout"): 440.0,
    ("10KB", "accounting"): 400.0,
    ("10KB", "accounting_pd"): 100.0,
    ("10KB", "linux"): 280.0,
}


@dataclass
class Figure8Result:
    """conn/s per (doc label, config) -> series over client counts."""

    client_counts: List[int]
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def plateau(self, doc: str, config: str) -> float:
        return self.series[doc][config][-1]

    def format(self, charts: bool = True) -> str:
        blocks = []
        for doc, per_config in self.series.items():
            rows = []
            for n_idx, n in enumerate(self.client_counts):
                row = [n] + [per_config[c][n_idx] for c in per_config]
                rows.append(row)
            blocks.append(format_table(
                f"Figure 8 — {doc} documents (connections/second)",
                ["clients"] + list(per_config),
                rows))
            if charts and len(self.client_counts) > 1:
                from repro.experiments.plotting import figure8_chart
                blocks.append(figure8_chart(self, doc))
        return "\n\n".join(blocks)


def run_figure8(client_counts: Sequence[int] = DEFAULT_CLIENTS,
                configs: Sequence[str] = CONFIGS,
                docs: Dict[str, str] = None,
                warmup_s: float = 0.6,
                measure_s: float = 1.5,
                workers: int = 0) -> Figure8Result:
    """Regenerate Figure 8's three panels.

    ``workers > 1`` runs the (document, config, clients) cells on a
    process pool; results are byte-identical to a serial sweep.
    """
    from repro.perf.pool import run_specs
    from repro.snapshot.runs import ExperimentRun

    docs = docs or DOCUMENTS
    base = ExperimentRun(warmup_s=warmup_s, measure_s=measure_s)
    runs = {f"{label}/{config}/{n}": replace(base, config=config, clients=n,
                                             document=uri)
            for label, uri in docs.items()
            for config in configs
            for n in client_counts}
    merged = run_specs(runs, workers)

    result = Figure8Result(client_counts=list(client_counts))
    for label in docs:
        result.series[label] = {
            config: [merged[f"{label}/{config}/{n}"]["connections_per_second"]
                     for n in client_counts]
            for config in configs}
    return result


def document_label(document: str) -> str:
    """A document's label in :data:`DOCUMENTS` (``"1B"``), else its URI."""
    return {uri: label for label, uri in DOCUMENTS.items()}.get(document,
                                                               document)
