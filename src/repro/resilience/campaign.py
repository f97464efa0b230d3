"""The campaign driver: sample, fan out, grade, minimize, bank.

:func:`explore` samples ``budget`` cases from a :class:`FaultSpace`,
executes them over the shared sweep pool (:mod:`repro.perf.pool` — the
same shared-nothing workers the figure sweeps use, so serial and
``--workers N`` campaigns are byte-identical), grades each with the
oracle, then serially minimizes every failure and optionally banks the
reproducers into the regression corpus.

Crash-safe resume: with a cache directory, the sweep pool keeps every
finished verdict in ``resilience-cells.jrnl`` there, filed by the spec
its case runs, so a restarted campaign re-runs only the missing cases
and never reads the verdict of a case that runs another spec.  A
supervised campaign keeps each case's state directory under the same
cache directory.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.resilience.minimize import Minimizer, replay_fingerprint
from repro.resilience.space import FaultSpace, case_to_spec

_CACHE_FILE = "resilience-cells.jrnl"


def campaign_cases(target: str, seed: int, budget: int,
                   intensity: Optional[Dict[str, float]] = None
                   ) -> List[Dict]:
    """The campaign's case list — pure function of its arguments.

    Per-case seeds are drawn from one seeded stream (not ``seed + i``)
    so campaigns with different base seeds explore disjoint schedules.
    """
    space = FaultSpace(target, intensity)
    stream = random.Random(f"ESCORP-campaign/{target}/{seed}")
    cases = []
    for i in range(budget):
        case = space.sample(stream.randrange(2**31))
        case["key"] = f"{target}-s{seed}-{i:04d}"
        cases.append(case)
    return cases


@dataclass
class CampaignFailure:
    """One failing case plus (optionally) its minimized reproducer."""

    key: str
    case: Dict
    verdict: Dict
    minimized: Optional[Dict] = None          #: minimized case
    fingerprint: List[str] = field(default_factory=list)
    one_minimal: bool = False
    tests_run: int = 0
    original_entries: int = 0
    minimized_entries: int = 0
    replay: Optional[Dict] = None             #: record/replay fingerprint
    banked_path: Optional[str] = None


@dataclass
class CampaignReport:
    """What one exploration produced."""

    target: str
    seed: int
    budget: int
    verdicts: Dict[str, Dict]                 #: key -> oracle verdict
    failures: List[CampaignFailure]

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts.values() if v["ok"])

    def format(self) -> str:
        lines = [f"resilience campaign: target={self.target} "
                 f"seed={self.seed} budget={self.budget}",
                 f"  {self.passed}/{len(self.verdicts)} cases passed"]
        for failure in self.failures:
            fp = ",".join(failure.verdict["failures"])
            lines.append(f"  FAIL {failure.key}: {fp}")
            if failure.minimized is not None:
                cert = ("1-minimal" if failure.one_minimal
                        else "uncertified")
                lines.append(
                    f"       minimized {failure.original_entries} -> "
                    f"{failure.minimized_entries} entries ({cert}, "
                    f"{failure.tests_run} oracle runs)")
                for entry in failure.minimized["entries"]:
                    lines.append(f"         {entry}")
            if failure.replay is not None:
                if failure.replay["replay_ok"]:
                    lines.append(
                        f"       replay OK: {failure.replay['events']} "
                        f"events, digest "
                        f"{failure.replay['final_digest'][:16]}...")
                else:
                    lines.append(f"       REPLAY DIVERGED: "
                                 f"{failure.replay['divergence']}")
            if failure.banked_path:
                lines.append(f"       banked -> {failure.banked_path}")
        if not self.failures:
            lines.append("  no failures found")
        return "\n".join(lines)


# ----------------------------------------------------------------------
#: Failure fingerprints the in-process oracle cannot reproduce — they
#: name how the *harness* around the run died, not what the run did —
#: so the minimizer (which replays cases through the oracle) skips them.
_UNMINIMIZABLE_PREFIXES = ("supervision:", "cell-")


def _is_minimizable(verdict: Dict) -> bool:
    return not any(f.startswith(_UNMINIMIZABLE_PREFIXES)
                   for f in verdict["failures"])


def explore(target: str = "chaos", seed: int = 7, budget: int = 50, *,
            workers: int = 0,
            intensity: Optional[Dict[str, float]] = None,
            cache_dir: Optional[str] = None,
            minimize: bool = True,
            max_tests: int = 400,
            bank_dir: Optional[str] = None,
            supervised: bool = False,
            log: Optional[Callable[[str], None]] = None
            ) -> CampaignReport:
    """Run one campaign; returns a :class:`CampaignReport`.

    ``bank_dir`` writes each minimized reproducer into the corpus (named
    by its campaign key).  Minimization runs serially in-process after
    the sweep, so its memoized oracle calls stay deterministic.

    ``supervised`` routes every case through a crash-only supervised
    child (:mod:`repro.supervise`): a case that SIGKILLs, hangs or
    crashes its process is retried with resume and — if it keeps dying —
    recorded as a ``supervision:<classification>`` verdict, whose detail
    names the kept state directory, while the campaign continues.  A
    ``budget`` below 1 raises ``ValueError`` before any case is sampled.
    """
    from repro.perf.pool import CellFailure, SweepCell, cached_keys, run_cells

    if budget < 1:
        raise ValueError(f"budget must be at least 1 case, got {budget}")

    say = log or (lambda line: None)
    cases = campaign_cases(target, seed, budget, intensity)
    by_key = {c["key"]: c for c in cases}
    cells = [SweepCell(key=c["key"], runner="resilience",
                       params={"spec": case_to_spec(c)}) for c in cases]
    cache_path = os.path.join(cache_dir, _CACHE_FILE) if cache_dir else None

    hits = cached_keys(cells, cache_path)
    if hits is not None:
        say(f"resumed {len(hits)}/{len(cells)} cases from cache")

    verdicts = run_cells(cells, workers, cache_path, supervised)
    # A worker that died twice running a cell surfaces as a CellFailure
    # value; shape it like a verdict so the campaign degrades to one
    # recorded failure instead of a KeyError.
    verdicts = {
        key: ({"ok": False, "failures": [f"cell-{v.kind}"],
               "digest": "", "events": 0, "detail": v.error}
              if isinstance(v, CellFailure) else v)
        for key, v in verdicts.items()}

    failures: List[CampaignFailure] = []
    for key in sorted(k for k, v in verdicts.items() if not v["ok"]):
        failure = CampaignFailure(key=key, case=by_key[key],
                                  verdict=verdicts[key])
        failures.append(failure)
        say(f"FAIL {key}: {','.join(verdicts[key]['failures'])}")
        if not minimize:
            continue
        if not _is_minimizable(verdicts[key]):
            say(f"  not minimizable: the failure names how the harness "
                f"died, not what the run did ({verdicts[key]['detail']})")
            continue
        minimizer = Minimizer(by_key[key], max_tests=max_tests,
                              log=lambda line: say(f"  {line}"))
        result = minimizer.run()
        failure.minimized = result.case
        failure.fingerprint = result.fingerprint
        failure.one_minimal = result.one_minimal
        failure.tests_run = result.tests_run
        failure.original_entries = result.original_entries
        failure.minimized_entries = result.minimized_entries
        failure.replay = replay_fingerprint(result)
        say(f"  {result.summary()}")
        if bank_dir:
            from repro.resilience.corpus import save_entry
            expected = {"failures": result.fingerprint,
                        "digest": result.verdict["digest"],
                        "events": result.verdict["events"]}
            failure.banked_path = save_entry(
                bank_dir, key, target=target, case=result.case,
                spec=case_to_spec(result.case), expected=expected,
                provenance={"campaign_seed": seed,
                            "budget": budget,
                            "tests_run": result.tests_run,
                            "original_entries": result.original_entries,
                            "one_minimal": result.one_minimal,
                            "replay_ok": (failure.replay or {}).get(
                                "replay_ok")})
            say(f"  banked -> {failure.banked_path}")

    return CampaignReport(target=target, seed=seed, budget=budget,
                          verdicts=dict(verdicts), failures=failures)

