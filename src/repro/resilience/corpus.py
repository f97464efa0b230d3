"""The banked regression corpus (format ``ESCORP-1``).

Every minimized reproducer the campaign banks becomes one JSON file in
``corpus/ESCORP-1/``::

    {"format": "ESCORP-1", "name": "...", "target": "chaos",
     "case": {...}, "spec": {...},
     "expected": {"failures": [...], "digest": "...", "events": N},
     "provenance": {...}}

``python -m repro resilience corpus`` (and the CI job) re-executes each
entry's spec and verifies it still fails with the **same fingerprint**
and reaches the **same final state digest** after the **same number of
events** — "replays exactly", not "still fails somehow".  A fingerprint
change means the banked bug mutated or was fixed without retiring the
entry; a digest/event drift means determinism broke, which is its own
regression.

Files are written with sorted keys and a trailing newline so the corpus
diffs cleanly under version control.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.resilience.space import TARGETS
from repro.snapshot.runs import run_from_spec

CORPUS_FORMAT = "ESCORP-1"


def default_corpus_dir(root: str = ".") -> str:
    """The conventional corpus location: ``<root>/corpus/<format>``."""
    return os.path.join(root, "corpus", CORPUS_FORMAT)


class CorpusFormatError(ValueError):
    """A corpus file is malformed or from an unknown format version."""


# ----------------------------------------------------------------------
def save_entry(corpus_dir: str, name: str, *, target: str, case: Dict,
               spec: Dict, expected: Dict,
               provenance: Optional[Dict] = None) -> str:
    """Write one corpus entry; returns its path."""
    os.makedirs(corpus_dir, exist_ok=True)
    payload = {"format": CORPUS_FORMAT, "name": name, "target": target,
               "case": case, "spec": spec, "expected": expected,
               "provenance": provenance or {}}
    path = os.path.join(corpus_dir, f"{name}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _entry_problem(payload) -> Optional[str]:
    """What keeps ``payload`` from being an entry :func:`replay_entry`
    can run, if anything.  The spec is built (not run) to check it."""
    if not isinstance(payload, dict):
        return f"an entry must be a JSON object, got {payload!r:.60}"
    if payload.get("format") != CORPUS_FORMAT:
        return (f"format {payload.get('format')!r:.60}, "
                f"expected {CORPUS_FORMAT!r}")
    for key in ("name", "target", "spec", "expected"):
        if key not in payload:
            return f"field {key!r} is missing"
    if type(payload["name"]) is not str:
        return f"field 'name' must be a string, got {payload['name']!r:.60}"
    if payload["target"] not in TARGETS:
        return (f"field 'target' must be one of {', '.join(TARGETS)}, "
                f"got {payload['target']!r:.60}")
    try:
        run_from_spec(payload["spec"])
    except ValueError as exc:
        return f"field 'spec' does not build: {exc}"
    expected = payload["expected"]
    if not isinstance(expected, dict):
        return f"field 'expected' must be an object, got {expected!r:.60}"
    failures = expected.get("failures")
    if not isinstance(failures, list) \
            or not all(type(f) is str for f in failures):
        return (f"field 'expected.failures' must be a list of strings, "
                f"got {failures!r:.60}")
    if "digest" in expected and type(expected["digest"]) is not str:
        return (f"field 'expected.digest' must be a string, "
                f"got {expected['digest']!r:.60}")
    events = expected.get("events", 0)
    if type(events) is not int or events < 0:
        return (f"field 'expected.events' must be an int >= 0, "
                f"got {events!r:.60}")
    return None


def load_entries(corpus_dir: str) -> List[Dict]:
    """Load every entry in ``corpus_dir``, sorted by file name.

    A file that is not an entry :func:`replay_entry` can run raises
    :class:`CorpusFormatError` naming the file and the field.
    """
    if not os.path.isdir(corpus_dir):
        return []
    entries = []
    for fname in sorted(os.listdir(corpus_dir)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(corpus_dir, fname)
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise CorpusFormatError(f"{path}: not JSON: {exc}") from None
        problem = _entry_problem(payload)
        if problem is not None:
            raise CorpusFormatError(f"{path}: {problem}")
        payload["_path"] = path
        entries.append(payload)
    return entries


# ----------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """One corpus entry's replay verdict."""

    name: str
    ok: bool
    problems: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"  OK   {self.name}"
        lines = [f"  FAIL {self.name}"] + [f"       {p}"
                                           for p in self.problems]
        return "\n".join(lines)


def replay_entry(entry: Dict) -> ReplayOutcome:
    """Re-execute one banked spec and compare against expectations."""
    from repro.resilience.oracle import evaluate_spec

    expected = entry["expected"]
    verdict = evaluate_spec(entry["spec"])
    problems = []
    if verdict["failures"] != expected["failures"]:
        problems.append(
            f"fingerprint mismatch: expected "
            f"{','.join(expected['failures']) or '(none)'}, got "
            f"{','.join(verdict['failures']) or '(none)'}")
    if expected.get("digest") and verdict["digest"] != expected["digest"]:
        problems.append(
            f"digest drift: expected {expected['digest'][:16]}..., got "
            f"{(verdict['digest'] or '(crash)')[:16]}...")
    if expected.get("events") and verdict["events"] != expected["events"]:
        problems.append(
            f"event-count drift: expected {expected['events']}, got "
            f"{verdict['events']}")
    return ReplayOutcome(entry["name"], not problems, problems)


def replay_corpus(entries: List[Dict],
                  log=None) -> List[ReplayOutcome]:
    """Replay entries from :func:`load_entries`; returns outcomes in
    order."""
    outcomes = []
    for entry in entries:
        outcome = replay_entry(entry)
        if log is not None:
            log(outcome.describe())
        outcomes.append(outcome)
    return outcomes
