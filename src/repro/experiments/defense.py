"""The static-vs-adaptive defense comparison.

For each attack profile (ramping trusted-subnet SYN flood, runaway CGI,
both at once) three cells run on the same seed:

* **no attack** — the reference goodput the legitimate clients achieve
  with the static policies and nobody attacking;
* **static** — the same machine under attack with only the pre-tuned
  policies (the flood spoofs *inside* the trusted subnet, where a static
  SYN cap cannot be applied without throttling the real clients);
* **adaptive** — the same machine and attack with the closed-loop
  :class:`~repro.defense.DefenseController` layered on top.

The table reports each attacked cell's goodput as a percentage of the
no-attack reference, plus the adaptive run's ladder trace — which rungs
escalated, and whether they released again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.report import format_table

#: The ISSUE's acceptance bar: adaptive must recover at least this share
#: of the no-attack goodput under the ramping SYN flood.
ADAPTIVE_RECOVERY_TARGET = 0.80

#: The three cells run per (attack, seed): no attack, static, adaptive.
MODES = ("none", "static", "adaptive")


@dataclass
class DefenseComparison:
    """Three-cell comparison for every (attack, seed) combination."""

    attacks: List[str]
    seeds: List[int]
    #: (attack, seed) -> {"none": cell, "static": cell, "adaptive": cell}
    cells: Dict[tuple, Dict[str, Dict]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def recovery(self, attack: str, mode: str, seed: int) -> float:
        """Attacked goodput as a fraction of the no-attack reference."""
        group = self.cells[(attack, seed)]
        reference = group["none"]["goodput_cps"]
        if not reference:
            return 0.0
        return group[mode]["goodput_cps"] / reference

    def mean_recovery(self, attack: str, mode: str) -> float:
        return sum(self.recovery(attack, mode, s)
                   for s in self.seeds) / len(self.seeds)

    def adaptive_meets_target(self, attack: str = "synflood") -> bool:
        return self.mean_recovery(attack, "adaptive") >= \
            ADAPTIVE_RECOVERY_TARGET

    # ------------------------------------------------------------------
    def format(self) -> str:
        headers = ["attack", "seed", "no-attack c/s", "static c/s",
                   "static %", "adaptive c/s", "adaptive %", "ladder"]
        rows = []
        for attack in self.attacks:
            for seed in self.seeds:
                group = self.cells[(attack, seed)]
                ladder = group["adaptive"].get("ladder") or []
                rows.append([
                    attack, seed,
                    group["none"]["goodput_cps"],
                    group["static"]["goodput_cps"],
                    f"{self.recovery(attack, 'static', seed):.0%}",
                    group["adaptive"]["goodput_cps"],
                    f"{self.recovery(attack, 'adaptive', seed):.0%}",
                    _compact_ladder(ladder),
                ])
        notes = []
        for attack in self.attacks:
            static = self.mean_recovery(attack, "static")
            adaptive = self.mean_recovery(attack, "adaptive")
            verdict = ("meets" if adaptive >= ADAPTIVE_RECOVERY_TARGET
                       else "MISSES")
            notes.append(
                f"{attack}: static recovers {static:.0%}, adaptive "
                f"{adaptive:.0%} of no-attack goodput ({verdict} the "
                f"{ADAPTIVE_RECOVERY_TARGET:.0%} target)")
        extra = self._ladder_notes()
        if extra:
            notes.append(extra)
        table = format_table(
            "Defense — legitimate goodput under attack, static vs "
            "adaptive (connections/second)",
            headers, rows, note="\n".join(notes))
        return table + self._trace_section()

    def _trace_section(self) -> str:
        lines = []
        for attack in self.attacks:
            if attack == "none":
                continue
            trace = self.cells[(attack, self.seeds[0])]["adaptive"].get(
                "ladder") or []
            if not trace:
                continue
            lines.append(f"\n{attack} (seed {self.seeds[0]}, adaptive) "
                         "ladder trace:")
            lines += [f"  {entry}" for entry in trace]
        return "\n" + "\n".join(lines) if lines else ""

    def _ladder_notes(self) -> str:
        parts = []
        for attack in self.attacks:
            if attack == "none":
                continue
            cell = self.cells[(attack, self.seeds[0])]["adaptive"]
            esc, deesc = cell.get("escalations", 0), \
                cell.get("deescalations", 0)
            parts.append(f"{attack}: {esc} escalations / "
                         f"{deesc} de-escalations"
                         + (f", {cell['syncookies_accepted']}"
                            f"/{cell['syncookies_sent']} cookies accepted"
                            if cell.get("syncookies_sent") else ""))
        return ("adaptive ladder (seed "
                f"{self.seeds[0]}): " + "; ".join(parts)) if parts else ""


def _compact_ladder(trace: List[str]) -> str:
    """``ratelimit+2 syncookies+1 quota+2-1`` from a full ladder trace."""
    up: Dict[str, int] = {}
    down: Dict[str, int] = {}
    for entry in trace:
        # Entries look like "[0.2s] escalate ratelimit: ...".
        try:
            kind, rung = entry.split("] ", 1)[1].split(":", 1)[0].split()
        except (IndexError, ValueError):
            continue
        if kind == "escalate":
            up[rung] = up.get(rung, 0) + 1
        elif kind == "deescalate":
            down[rung] = down.get(rung, 0) + 1
    parts = []
    for rung in sorted(set(up) | set(down)):
        text = rung + (f"+{up[rung]}" if rung in up else "")
        if rung in down:
            text += f"-{down[rung]}"
        parts.append(text)
    return " ".join(parts) or "-"


def _cell_key(attack: str, mode: str, seed: int) -> str:
    return f"{attack}/{mode}/{seed}"


def run_defense(attacks: Sequence[str] = ("synflood", "runaway-cgi"),
                seeds: Sequence[int] = (1,), workers: int = 0,
                **fields) -> DefenseComparison:
    """Run the static-vs-adaptive matrix of :class:`~repro.defense.run.
    DefenseRun` ``fields``; ``workers > 1`` fans cells out."""
    from dataclasses import replace

    from repro.defense.run import DefenseRun
    from repro.perf.pool import run_specs

    base = DefenseRun(**fields)
    merged = run_specs(
        {_cell_key(attack, mode, seed): replace(
            base, attack="none" if mode == "none" else attack,
            adaptive=(mode == "adaptive"), seed=seed)
         for attack in attacks
         for seed in seeds
         for mode in MODES}, workers)

    result = DefenseComparison(attacks=list(attacks), seeds=list(seeds))
    for attack in attacks:
        for seed in seeds:
            result.cells[(attack, seed)] = {
                mode: merged[_cell_key(attack, mode, seed)]
                for mode in MODES}
    return result
