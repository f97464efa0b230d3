"""The output check: is the simulated result still the right one?

A run passes when

* its *semantic* result — the run kind's result dataclass, normalised
  through JSON — equals the value recorded in ``expected.json`` for that
  workload and seed (when one is recorded), and equals every other run of
  the same seed in the invocation, traced or not;
* ``resilience.oracle.grade_run`` finds no failure;
* ``InvariantChecker(kernel).check_now()`` finds no violation on any
  kernel of the machine.

``run.digest()`` is deliberately not compared: it folds in ``sim.seq`` and
``events_processed``, engine bookkeeping that a faster engine may change
while the simulated behaviour stays the same.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def semantic(result) -> Dict:
    """The JSON-normalised field dict of a run's result dataclass."""
    return json.loads(json.dumps(dataclasses.asdict(result), sort_keys=True))


def load_expected() -> Dict[str, Dict[str, Dict]]:
    """``{workload: {str(seed): semantic result}}``."""
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def expected_for(workload: str, seed: int) -> Optional[Dict]:
    return load_expected().get(workload, {}).get(str(seed))


def record(workload: str, seed: int, result: Dict) -> None:
    """Store ``result`` as the expected value for ``(workload, seed)``."""
    table = load_expected()
    table.setdefault(workload, {})[str(seed)] = result
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def grade(run, result, kernels) -> List[str]:
    """Oracle failures plus invariant violations on every kernel."""
    from repro.chaos.invariants import InvariantChecker
    from repro.resilience.oracle import grade_run

    if result is None:
        return ["no-result"]
    failures, _detail = grade_run(run, result)
    for index, kernel in enumerate(kernels):
        failures += [f"kernel{index}:invariant:{v.rule}"
                     for v in InvariantChecker(kernel).check_now()]
    return failures
