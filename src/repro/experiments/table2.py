"""Table 2: the cost of killing a non-cooperating path.

"A client requests a document and the server enters an endless loop after
the GET request is received.  Escort then times out the thread after 2ms
and destroys the owner."  The number reported is the cycles from detection
until every resource the path holds — in every protection domain — has been
reclaimed.

Paper values: 17,951 cycles (Accounting), 111,568 (Accounting_PD), and
11,003 for a kill+waitpid on the Linux baseline (reported "to give a
general idea", not directly comparable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.harness import Testbed
from repro.experiments.report import format_table
from repro.policy import RunawayPolicy
from repro.sim.costs import CostModel

PAPER = {
    "accounting": 17_951,
    "accounting_pd": 111_568,
    "linux": 11_003,
}

#: Kill reports averaged, and the seconds of one CGI attacker that
#: produce them (one runaway request per second, after a 0.2 s warmup).
ATTACKS = 3
MEASURE_S = 4.0


@dataclass
class Table2Result:
    config: str
    kill_cycles: float
    kills: int
    pages: float = 0.0
    threads: float = 0.0
    stacks: float = 0.0
    domains: float = 0.0


def run_table2(config: str = "accounting") -> Table2Result:
    """Launch runaway-CGI requests and average the pathKill reports."""
    if config == "linux":
        # The Linux number is the constant cost of kill+waitpid; the
        # baseline has no pathKill to measure.
        return Table2Result(config="linux",
                            kill_cycles=CostModel.default().linux_kill_process,
                            kills=0)
    bed = Testbed.by_name(config, policies=[RunawayPolicy(2.0)])
    bed.add_cgi_attackers(1)
    bed.run(warmup_s=0.2, measure_s=MEASURE_S)
    reports = bed.server.kernel.kill_reports[:ATTACKS]
    if not reports:
        raise RuntimeError("no paths were killed; runaway policy broken?")
    n = len(reports)
    return Table2Result(
        config=config,
        kill_cycles=sum(r.cycles for r in reports) / n,
        kills=len(bed.server.kernel.kill_reports),
        pages=sum(r.pages for r in reports) / n,
        threads=sum(r.threads for r in reports) / n,
        stacks=sum(r.stacks for r in reports) / n,
        domains=sum(r.domains_visited for r in reports) / n,
    )


def format_table2(results: List[Table2Result]) -> str:
    """Render Table 2 next to the paper's cycle counts."""
    rows = []
    for r in results:
        rows.append([r.config, round(r.kill_cycles), PAPER.get(r.config, "-")])
    return format_table(
        "Table 2 — cycles to destroy a non-cooperating path",
        ["configuration", "measured cycles", "paper cycles"],
        rows,
        note="Linux row is kill+waitpid, 'reported to give a general idea' "
             "(paper section 4.3.2).")
