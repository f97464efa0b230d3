"""Run specs are validated where the run is constructed.

A journal's spec record is rebuilt into a run by ``RunDriver.resume``, so
a malformed experiment spec — a wrong type, an out-of-range value, a
missing or unknown key — must fail up front with a ``ValueError`` naming
the field, not deep inside the build or as a run that "succeeds" with
nonsense numbers.
"""

from __future__ import annotations

import pytest

from repro.snapshot import ExperimentRun, RunDriver, run_from_spec
from repro.snapshot.journal import write_journal

GOOD = ExperimentRun("accounting", clients=2, syn_rate=200,
                     untrusted_cap=16, warmup_s=0.1, measure_s=0.3).spec()

BAD_VALUES = [
    ("clients", -3), ("clients", "8"), ("clients", 2.0), ("clients", True),
    ("syn_rate", -1), ("syn_rate", None), ("cgi_attackers", -2),
    ("cgi_attackers", "1"), ("warmup_s", -0.5), ("warmup_s", float("nan")),
    ("measure_s", -1.0), ("measure_s", 0), ("measure_s", float("inf")),
    ("measure_s", "5"),
]


def test_good_spec_round_trips():
    assert run_from_spec(GOOD).spec() == GOOD


@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_bad_value_is_a_value_error_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"'{name}'"):
        ExperimentRun(**{name: value})
    with pytest.raises(ValueError, match=f"'{name}'"):
        run_from_spec({**GOOD, name: value})


@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_resume_refuses_a_journal_whose_spec_is_malformed(tmp_path, name,
                                                          value):
    path = str(tmp_path / "bad.jrnl")
    write_journal(path, [
        {"kind": "spec", "spec": {**GOOD, name: value}},
        {"kind": "milestone", "tick": 0, "seq": 2, "events": 0,
         "milestones_done": 1, "digest": "0" * 64},
    ])
    with pytest.raises(ValueError, match=f"'{name}'"):
        RunDriver.resume(path)


def test_missing_and_unknown_keys_are_errors():
    missing = {k: v for k, v in GOOD.items() if k != "config"}
    with pytest.raises(ValueError, match="'config' is missing"):
        run_from_spec(missing)
    with pytest.raises(ValueError, match="'warp' is unknown"):
        run_from_spec({**GOOD, "warp": 9})


def test_non_object_spec_is_a_value_error():
    with pytest.raises(ValueError, match="JSON object"):
        run_from_spec(["experiment"])
