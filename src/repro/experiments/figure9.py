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

#: Record kind of the cell cache: ``{cell key: RunResult fields}``.
CACHE_KIND = "figure9-runs"


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

    With ``checkpoint_dir``, every finished (config, clients, attack) cell
    is persisted to a one-record ``figure9-cells.jrnl`` journal file there,
    and a re-run after a crash skips the cells already done.  A cache file
    that cannot be used — an other format or format version, a corrupt
    record, a record of another kind — raises
    :class:`~repro.snapshot.journal.JournalError`.

    ``workers > 1`` fans the cells out over a process pool
    (:mod:`repro.perf.pool`); per-cell results are byte-identical to a
    serial run, and the resume cache works the same way — a restarted
    parallel sweep skips finished cells.

    ``supervised`` executes each cell in a crash-only supervised child
    process (:mod:`repro.supervise`): a cell killed or hung mid-run is
    retried with journal resume from ``<checkpoint_dir>/supervise/``,
    finished cells persist to the same cache, and only after every
    recoverable cell has been persisted does a cell that exhausted its
    retries raise.
    """
    from repro.perf.pool import run_specs
    from repro.snapshot.journal import load_record, write_journal
    from repro.snapshot.runs import ExperimentRun

    cache: Dict[str, Dict] = {}
    cache_path = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        cache_path = os.path.join(checkpoint_dir, "figure9-cells.jrnl")
        if os.path.exists(cache_path):
            cache = load_record(cache_path, CACHE_KIND)["cells"]

    # A cell's cache key names the whole grid it was measured in.
    grid = f"{document}/{syn_rate}/{untrusted_cap}/{warmup_s}/{measure_s}"
    modes = ("base", "attack")
    base = ExperimentRun(document=document, untrusted_cap=untrusted_cap,
                         warmup_s=warmup_s, measure_s=measure_s)
    runs = {f"{config}/{n}/{mode}/{grid}": replace(
                base, config=config, clients=n,
                syn_rate=syn_rate if mode == "attack" else 0)
            for config in configs for n in client_counts for mode in modes}

    def persist(cell_key: str, value: Dict) -> None:
        cache[cell_key] = value
        if cache_path:
            write_journal(cache_path, [{"kind": CACHE_KIND,
                                        "cells": cache}])

    if supervised:
        merged = _run_supervised(runs, cache, persist, checkpoint_dir)
    else:
        merged = run_specs(runs, workers, cache=cache,
                           on_cell_done=lambda c, v: persist(c.key, v))

    result = Figure9Result(client_counts=list(client_counts),
                           document=document, syn_rate=syn_rate)
    for config in configs:
        cells = {mode: [merged[f"{config}/{n}/{mode}/{grid}"]
                        for n in client_counts] for mode in modes}
        result.series[config] = {
            mode: [m["connections_per_second"] for m in cells[mode]]
            for mode in cells}
        last = cells["attack"][-1] if client_counts else {}
        result.syn_stats[config] = {
            "sent": last.get("syn_sent", 0),
            "dropped": last.get("syn_dropped_at_demux", 0)}
    return result


def _run_supervised(runs: Dict, cache: Dict, persist,
                    checkpoint_dir: Optional[str]) -> Dict:
    """Run the uncached cells in crash-only supervised children.

    A cell that exhausts its retry budget becomes a
    :class:`~repro.perf.pool.CellFailure`, so every recoverable cell
    completes and is persisted before :func:`~repro.perf.pool.completed`
    raises — the re-run after fixing the environment only faces the cells
    that actually failed.
    """
    import hashlib
    import tempfile

    from repro.perf.pool import CellFailure, completed
    from repro.supervise import Supervisor

    state_root = (os.path.join(checkpoint_dir, "supervise")
                  if checkpoint_dir
                  else tempfile.mkdtemp(prefix="figure9-supervise-"))
    merged = {}
    for key, run in runs.items():
        if key not in cache:
            # Cell keys contain "/" (they are table coordinates); hash
            # them into flat state-directory names.
            digest = hashlib.sha1(key.encode()).hexdigest()[:12]
            sres = Supervisor(os.path.join(state_root, digest)).run(
                run.spec())
            if sres.gave_up:
                merged[key] = CellFailure(
                    key, "run", f"supervision:{sres.classification}",
                    f"gave up after {len(sres.attempts)} attempts (state "
                    f"in {sres.state_dir})")
                continue
            persist(key, sres.result["measurement"])
        merged[key] = cache[key]
    return completed(merged)
