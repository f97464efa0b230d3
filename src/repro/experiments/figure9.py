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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import TRUSTED_SUBNET, Testbed
from repro.experiments.report import format_table
from repro.policy import SynFloodPolicy

#: Slowdown bands from the paper's text.
PAPER_MAX_SLOWDOWN = {"accounting": 0.05, "accounting_pd": 0.15}


@dataclass
class Figure9Result:
    client_counts: List[int]
    doc_label: str
    #: config -> {"base": series, "attack": series}
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    syn_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def slowdown(self, config: str) -> float:
        base = self.series[config]["base"][-1]
        attacked = self.series[config]["attack"][-1]
        return 1 - attacked / base if base else 0.0

    def format(self) -> str:
        headers = ["clients"]
        for config in self.series:
            headers += [config, f"{config}+SYN"]
        rows = []
        for i, n in enumerate(self.client_counts):
            row = [n]
            for config in self.series:
                row += [self.series[config]["base"][i],
                        self.series[config]["attack"][i]]
            rows.append(row)
        notes = "; ".join(
            f"{c}: slowdown {self.slowdown(c):.1%} "
            f"(paper <{PAPER_MAX_SLOWDOWN.get(c, 0):.0%}), "
            f"{self.syn_stats[c]['dropped']}/{self.syn_stats[c]['sent']} "
            f"SYNs dropped at demux"
            for c in self.series)
        return format_table(
            f"Figure 9 — {self.doc_label} documents under a 1000 SYN/s "
            f"attack (connections/second)", headers, rows, note=notes)


def _cell_key(config: str, n: int, attack: bool, document: str,
              syn_rate: int, untrusted_cap: int, warmup_s: float,
              measure_s: float) -> str:
    """The stable cache-key format of the per-cell resume cache."""
    return (f"{config}/{n}/{'attack' if attack else 'base'}/{document}"
            f"/{syn_rate}/{untrusted_cap}/{warmup_s}/{measure_s}")


def run_figure9(client_counts: Sequence[int] = (16, 64),
                configs: Sequence[str] = ("accounting", "accounting_pd"),
                document: str = "/doc-1", doc_label: str = "1B",
                syn_rate: int = 1000,
                untrusted_cap: int = 16,
                warmup_s: float = 2.0,
                measure_s: float = 2.0,
                checkpoint_dir: Optional[str] = None,
                checkpoint_every_s: Optional[float] = None,
                workers: int = 0,
                supervised: bool = False) -> Figure9Result:
    """Measure best-effort throughput with and without the SYN flood.

    With ``checkpoint_dir``, every finished (config, clients, attack) cell
    is persisted to a one-record ``figure9-cells.jrnl`` journal file there,
    and a re-run after a crash skips the cells already done; with
    ``checkpoint_every_s`` each in-flight cell additionally journals to
    ``<cell>.jrnl`` with a checkpoint record at that cadence, so even a
    single long cell survives an interruption (resume it with ``python -m
    repro experiment --resume``).  A cache file that cannot be used — an
    other format or format version, a corrupt record — raises
    :class:`~repro.snapshot.journal.JournalError`.

    ``workers > 1`` fans the cells out over a process pool
    (:mod:`repro.perf.pool`); per-cell results are byte-identical to a
    serial run, and the resume cache works the same way — a restarted
    parallel sweep skips finished cells.

    ``supervised`` executes each cell in a crash-only supervised child
    process (:mod:`repro.supervise`): a cell killed or hung mid-run is
    retried with journal resume, finished cells persist to
    the same cache, and only after every recoverable cell has been
    persisted does a cell that exhausted its retries raise.
    """
    from repro.perf.pool import SweepCell, run_cells
    from repro.snapshot.journal import load_record, write_journal

    cache: Dict[str, Dict] = {}
    cache_path = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        cache_path = os.path.join(checkpoint_dir, "figure9-cells.jrnl")
        if os.path.exists(cache_path):
            cache = load_record(cache_path, "figure9-cells")["cells"]

    cells = []
    for config in configs:
        for n in client_counts:
            for attack in (False, True):
                params = dict(config=config, clients=n, attack=attack,
                              document=document, syn_rate=syn_rate,
                              untrusted_cap=untrusted_cap,
                              warmup_s=warmup_s, measure_s=measure_s)
                if checkpoint_dir and checkpoint_every_s:
                    params["checkpoint_dir"] = checkpoint_dir
                    params["checkpoint_every_s"] = checkpoint_every_s
                cells.append(SweepCell(
                    key=_cell_key(config, n, attack, document, syn_rate,
                                  untrusted_cap, warmup_s, measure_s),
                    runner="figure9", params=params))

    def persist(cell: "SweepCell", value: Dict) -> None:
        cache[cell.key] = value
        if cache_path:
            write_journal(cache_path, [{"kind": "figure9-cells",
                                        "cells": cache}])

    if supervised:
        merged = _run_cells_supervised(cells, cache, persist,
                                       checkpoint_dir)
    else:
        merged = run_cells(cells, workers=workers, cache=cache,
                           on_cell_done=persist)

    result = Figure9Result(client_counts=list(client_counts),
                           doc_label=doc_label)
    for config in configs:
        base_series, attack_series = [], []
        sent = dropped = 0
        for n in client_counts:
            for attack in (False, True):
                cell = merged[_cell_key(config, n, attack, document,
                                        syn_rate, untrusted_cap,
                                        warmup_s, measure_s)]
                if attack:
                    attack_series.append(cell["cps"])
                    sent = cell["syn_sent"]
                    dropped = cell["syn_dropped"]
                else:
                    base_series.append(cell["cps"])
        result.series[config] = {"base": base_series,
                                 "attack": attack_series}
        result.syn_stats[config] = {"sent": sent, "dropped": dropped}
    return result


def _cell_spec(params: Dict) -> Dict:
    """The spec of one cell (exactly the machine the ``figure9`` cell
    runner builds)."""
    from repro.perf.cells import figure9_run

    return figure9_run(**{k: v for k, v in params.items()
                          if not k.startswith("checkpoint_")}).spec()


def _run_cells_supervised(cells, cache: Dict, persist,
                          checkpoint_dir: Optional[str]) -> Dict:
    """Run figure9 cells through supervised children, degrade gracefully.

    Every recoverable cell completes and is persisted before a cell that
    exhausted its retry budget raises — so the re-run after fixing the
    environment only faces the cells that actually failed.
    """
    import hashlib
    import tempfile

    from repro.supervise import Supervisor

    state_root = (os.path.join(checkpoint_dir, "supervise")
                  if checkpoint_dir
                  else tempfile.mkdtemp(prefix="figure9-supervise-"))
    merged = {}
    gave_up = []
    for cell in cells:
        if cell.key in cache:
            merged[cell.key] = cache[cell.key]
            continue
        # Cell keys contain "/" (they are table coordinates); hash them
        # into flat state-directory names.
        digest = hashlib.sha1(cell.key.encode()).hexdigest()[:12]
        sup = Supervisor(os.path.join(state_root, digest))
        sres = sup.run(_cell_spec(cell.params))
        if sres.gave_up:
            gave_up.append((cell.key, sres))
            continue
        m = sres.result["measurement"]
        value = {"cps": m["connections_per_second"],
                 "syn_sent": m["syn_sent"],
                 "syn_dropped": m["syn_dropped_at_demux"]}
        merged[cell.key] = value
        persist(cell, value)
    if gave_up:
        details = "; ".join(
            f"{key}: {sres.classification} after "
            f"{len(sres.attempts)} attempts (state in {sres.state_dir})"
            for key, sres in gave_up)
        raise RuntimeError(
            f"{len(gave_up)} figure9 cell(s) exhausted their supervised "
            f"retry budget — every other cell is persisted; re-run to "
            f"retry only the failed ones.  {details}")
    return merged
