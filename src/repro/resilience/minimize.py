"""Schedule minimization: ddmin + parameter shrinking + certification.

Given a failing case, :class:`Minimizer` produces the smallest schedule
it can that still fails *with the same fingerprint* (the sorted failure
rule set — preserving it keeps the shrink from sliding off one bug onto
another):

1. **ddmin** over the entry list (Zeller's delta debugging: remove
   chunks at increasing granularity, keep any complement that still
   reproduces);
2. **greedy parameter shrinking** per surviving entry: every numeric
   field is repeatedly offered smaller candidates (zero, half, fewer
   digits) and keeps the smallest that still reproduces;
3. **1-minimality certification**: every single-entry deletion is tested
   to pass; any that still fails is taken (and the loop restarts), so
   the certificate is earned, not assumed.

Every candidate evaluation is memoized on the canonical JSON of the
entry list — runs are pure functions of their specs, so equal entries
imply an equal verdict — which makes the certification pass nearly free
when ddmin already probed the single deletions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.oracle import evaluate_case
from repro.resilience.space import case_with_entries

#: Hard ceiling on oracle executions per minimization (memoized tests
#: are free); generous — typical schedules certify in well under 100.
DEFAULT_MAX_TESTS = 400


def _canon(entries: List[Dict]) -> str:
    return json.dumps(entries, sort_keys=True, separators=(",", ":"))


@dataclass
class MinimizationResult:
    """What one minimization produced."""

    case: Dict                      #: the case with minimized entries
    fingerprint: List[str]          #: the preserved failure rule set
    verdict: Dict                   #: oracle verdict of the minimized case
    original_entries: int
    minimized_entries: int
    one_minimal: bool               #: certificate: no single deletion fails
    tests_run: int
    cache_hits: int
    log: List[str] = field(default_factory=list)

    def summary(self) -> str:
        cert = "1-minimal" if self.one_minimal else "NOT certified"
        return (f"{self.original_entries} -> {self.minimized_entries} "
                f"entries ({cert}), fingerprint "
                f"{','.join(self.fingerprint)}, "
                f"{self.tests_run} oracle runs "
                f"(+{self.cache_hits} cached)")


class BudgetExceeded(RuntimeError):
    """The oracle-execution budget ran out mid-minimization."""


class Minimizer:
    """Shrink one failing case to a 1-minimal reproducer; every candidate
    is judged by the campaign oracle, :func:`evaluate_case`."""

    def __init__(self, case: Dict,
                 max_tests: int = DEFAULT_MAX_TESTS,
                 log: Optional[Callable[[str], None]] = None):
        self.case = case
        self.max_tests = max_tests
        self.tests_run = 0
        self.cache_hits = 0
        self._cache: Dict[str, Dict] = {}
        self._log_lines: List[str] = []
        self._emit = log
        self.fingerprint: Optional[List[str]] = None

    # ------------------------------------------------------------------
    def _log(self, line: str) -> None:
        self._log_lines.append(line)
        if self._emit is not None:
            self._emit(line)

    def _verdict(self, entries: List[Dict]) -> Dict:
        key = _canon(entries)
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        if self.tests_run >= self.max_tests:
            raise BudgetExceeded(
                f"minimization exceeded {self.max_tests} oracle runs")
        self.tests_run += 1
        verdict = evaluate_case(case_with_entries(self.case, entries))
        self._cache[key] = verdict
        return verdict

    def _fails(self, entries: List[Dict]) -> bool:
        """Does this entry list reproduce the original fingerprint?"""
        return self._verdict(entries)["failures"] == self.fingerprint

    # ------------------------------------------------------------------
    def _ddmin(self, entries: List[Dict]) -> List[Dict]:
        n = 2
        while len(entries) >= 2:
            chunk = max(1, (len(entries) + n - 1) // n)
            reduced = False
            for start in range(0, len(entries), chunk):
                complement = entries[:start] + entries[start + chunk:]
                if complement and self._fails(complement):
                    self._log(f"ddmin: {len(entries)} -> "
                              f"{len(complement)} entries")
                    entries = complement
                    n = max(2, n - 1)
                    reduced = True
                    break
            if not reduced:
                if n >= len(entries):
                    break
                n = min(len(entries), 2 * n)
        return entries

    # ------------------------------------------------------------------
    def _shrink_candidates(self, value):
        """Smaller candidates for one numeric field, best first."""
        out = []
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return out
        if isinstance(value, int):
            if value > 0:
                out += [0, value // 2] if value > 1 else [0]
        else:
            if value > 0.0:
                out += [0.0, round(value / 2, 4), round(value, 2)]
        return [c for c in dict.fromkeys(out) if c != value]

    def _shrink_params(self, entries: List[Dict]) -> List[Dict]:
        changed = True
        while changed:
            changed = False
            for i, entry in enumerate(entries):
                for name in sorted(entry):
                    for candidate in self._shrink_candidates(entry[name]):
                        trial = [dict(e) for e in entries]
                        trial[i][name] = candidate
                        if self._fails(trial):
                            self._log(f"shrink: entry {i} {name} "
                                      f"{entry[name]} -> {candidate}")
                            entries = trial
                            entry = trial[i]
                            changed = True
                            break
        return entries

    # ------------------------------------------------------------------
    def _certify(self, entries: List[Dict]) -> Tuple[List[Dict], bool]:
        """Test every single deletion; take any that still fails."""
        progressed = True
        while progressed and len(entries) > 1:
            progressed = False
            for i in range(len(entries)):
                smaller = entries[:i] + entries[i + 1:]
                if self._fails(smaller):
                    self._log(f"certify: single deletion of entry {i} "
                              f"still fails; taking it")
                    entries = smaller
                    progressed = True
                    break
        # Earned certificate: every single deletion was just tested (or
        # is cached) and passed.
        one_minimal = all(
            not self._fails(entries[:i] + entries[i + 1:])
            for i in range(len(entries))) if len(entries) > 1 else True
        return entries, one_minimal

    # ------------------------------------------------------------------
    def run(self) -> MinimizationResult:
        """Minimize; raises ``ValueError`` if the case does not fail."""
        entries = list(self.case["entries"])
        baseline = self._verdict(entries)
        if baseline["ok"]:
            raise ValueError("case passes its oracle; nothing to minimize")
        self.fingerprint = baseline["failures"]
        self._log(f"minimizing {len(entries)} entries, fingerprint "
                  f"{','.join(self.fingerprint)}")
        try:
            entries = self._ddmin(entries)
            entries = self._shrink_params(entries)
            entries, one_minimal = self._certify(entries)
            if one_minimal:
                # Parameter shrinking may have opened new deletions;
                # re-shrink once after certification for a fixpoint.
                entries = self._shrink_params(entries)
        except BudgetExceeded as exc:
            self._log(str(exc))
            one_minimal = False
        verdict = self._verdict(entries)
        return MinimizationResult(
            case=case_with_entries(self.case, entries),
            fingerprint=list(self.fingerprint),
            verdict=verdict,
            original_entries=len(self.case["entries"]),
            minimized_entries=len(entries),
            one_minimal=one_minimal,
            tests_run=self.tests_run,
            cache_hits=self.cache_hits,
            log=list(self._log_lines))


def replay_fingerprint(result: MinimizationResult) -> Dict:
    """Record + lockstep-replay the minimized run; report determinism.

    Returns ``{"replay_ok": bool, "events": int, "final_digest": str,
    "divergence": str | None}`` — the first-divergence fingerprint from
    the replay layer when the minimized spec is *not* deterministic
    (which is itself a bug worth banking).
    """
    from repro.resilience.space import case_to_spec
    from repro.snapshot.replay import record, replay
    from repro.snapshot.runs import run_from_spec

    spec = case_to_spec(result.case)
    try:
        _, recording = record(run_from_spec(spec))
    except Exception as exc:
        # run-crash fingerprints cannot be recorded to completion; the
        # crash itself already reproduces from the spec.
        return {"replay_ok": False, "events": 0, "final_digest": "",
                "divergence": f"record aborted: {type(exc).__name__}"}
    report = replay(recording)
    return {"replay_ok": report.ok,
            "events": recording.events_total,
            "final_digest": recording.final_digest,
            "divergence": (None if report.ok
                           else report.divergence.describe())}
