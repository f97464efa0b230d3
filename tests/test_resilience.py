"""Tests for the resilience campaign runner, minimizer, and corpus.

The minimizer's algorithmic properties (ddmin reduction, fingerprint
preservation, 1-minimality certification) are tested against stub
oracles — pure functions over entry lists — so they run in microseconds;
the campaign and corpus paths are additionally smoke-tested against the
real simulator with tiny budgets.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.resilience.campaign import campaign_cases, explore
from repro.resilience.corpus import (CORPUS_FORMAT, CorpusFormatError,
                                     ReplayOutcome, load_entries,
                                     replay_entry, save_entry)
from repro.resilience import minimize
from repro.resilience.minimize import Minimizer
from repro.resilience.space import (TARGETS, FaultSpace, case_to_spec,
                                    case_with_entries, sample_case)
from tests.test_snapshot_runs import JSON

pytestmark = pytest.mark.resilience

#: The banked regression corpus.
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus",
                          CORPUS_FORMAT)


# ----------------------------------------------------------------------
# The grammar
# ----------------------------------------------------------------------
def test_sample_case_is_seed_deterministic():
    for target in TARGETS:
        a = sample_case(target, 42)
        b = sample_case(target, 42)
        assert a == b
        c = sample_case(target, 43)
        assert a != c
        # JSON-clean: survives a round trip bit for bit.
        assert json.loads(json.dumps(a)) == a


def test_sample_case_rejects_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        sample_case("kernel", 1)
    with pytest.raises(ValueError, match="unknown target"):
        FaultSpace("kernel")


def test_faultspace_jitters_intensity_per_case():
    space = FaultSpace("chaos")
    a, b = space.sample(1), space.sample(2)
    assert a["intensity"] != b["intensity"]
    # The base multiplier scales through: a hotter space samples more
    # entries on average (rate feeds the event count directly).
    hot = FaultSpace("chaos", {"rate": 4.0})
    assert sum(len(hot.sample(s)["entries"]) for s in range(10)) > \
        sum(len(space.sample(s)["entries"]) for s in range(10))


@pytest.mark.parametrize("intensity,message", [
    ({"rate": -1.0}, "intensity 'rate' must be a finite number > 0"),
    ({"magnitude": 0}, "intensity 'magnitude' must be a finite number > 0"),
    ({"duration": float("nan")},
     "intensity 'duration' must be a finite number > 0"),
    ({"rate": float("inf")}, "intensity 'rate' must be a finite number > 0"),
    ({"rate": True}, "intensity 'rate' must be a finite number > 0"),
    ({"bogus": 2.0}, "unknown intensity 'bogus'"),
], ids=["negative", "zero", "nan", "inf", "bool", "unknown-key"])
def test_faultspace_rejects_a_bad_intensity(intensity, message):
    with pytest.raises(ValueError, match=message):
        FaultSpace("chaos", intensity)


@pytest.mark.parametrize("flag,message", [
    ("rate=-1", "intensity 'rate' must be a finite number > 0, got -1.0"),
    ("bogus=2", "unknown intensity 'bogus'"),
    ("rate=nan", "intensity 'rate' must be a finite number > 0, got nan"),
    ("rate", "bad --intensity 'rate'"),
], ids=["negative", "unknown-key", "nan", "no-value"])
def test_explore_rejects_a_bad_intensity_before_any_case(monkeypatch, capsys,
                                                         flag, message):
    import repro.perf.pool

    def refuse(*args, **kwargs):
        raise AssertionError("a case was run")

    monkeypatch.setattr(repro.perf.pool, "run_cells", refuse)
    assert main(["resilience", "explore", "--budget", "1",
                 "--intensity", flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_case_specs_rebuild_as_runs():
    from repro.snapshot.runs import run_from_spec

    for target in TARGETS:
        for seed in (1, 5):
            case = FaultSpace(target).sample(seed)
            spec = case_to_spec(case)
            assert spec == json.loads(json.dumps(spec))
            run = run_from_spec(spec)  # validates every parameter
            assert run.KIND == spec["run"]


def test_chaos_case_schedule_rides_in_spec():
    case = sample_case("chaos", 3)
    spec = case_to_spec(case)
    assert spec["schedule"]["events"] == case["entries"]
    smaller = case_with_entries(case, case["entries"][:1])
    assert case_to_spec(smaller)["schedule"]["events"] == \
        case["entries"][:1]
    # The original is untouched (minimizer relies on copy semantics).
    assert len(case["entries"]) >= 1


def test_defense_entries_map_to_attack_kinds():
    base = sample_case("defense", 1)
    syn = {"kind": "syn-ramp", "rate": 100, "ramp_to": 1000,
           "ramp_s": 1.0, "spoof_hosts": 10}
    cgi = {"kind": "cgi-runaway", "attackers": 3}
    for entries, attack in [([syn, cgi], "mixed"), ([syn], "synflood"),
                            ([cgi], "runaway-cgi"), ([], "none")]:
        spec = case_to_spec(case_with_entries(base, entries))
        assert spec["attack"] == attack


def test_cluster_entries_map_to_chaos_kind():
    base = sample_case("cluster", 1)
    hit = {"kind": "replica-chaos", "chaos": "partition",
           "at_s": 0.4, "restore_s": 1.0}
    spec = case_to_spec(case_with_entries(base, [hit]))
    assert spec["chaos"] == "partition"
    assert spec["chaos_at_s"] == 0.4
    assert case_to_spec(case_with_entries(base, []))["chaos"] == "none"


# ----------------------------------------------------------------------
# The minimizer, against stub oracles
# ----------------------------------------------------------------------
def _entries(*kinds):
    return [{"kind": k, "magnitude": 0.8, "at_s": 0.5} for k in kinds]


def _stub_oracle(predicate):
    """An oracle whose failure set is ``predicate(entries)``."""
    def oracle(case):
        failures = sorted(predicate(case["entries"]))
        return {"ok": not failures, "failures": failures,
                "digest": "stub", "events": 1, "detail": ""}
    return oracle


def _minimize(case, oracle, **kwargs):
    """Run the minimizer with ``oracle`` in place of the campaign's."""
    with mock.patch.object(minimize, "evaluate_case", oracle):
        return Minimizer(case, **kwargs).run()


def test_minimizer_finds_minimal_pair_in_noise():
    # Known-bad: the failure needs A and B together; C/D/E are noise.
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("C", "A", "D", "B", "E", "C", "D")}
    oracle = _stub_oracle(
        lambda es: ["boom"] if {"A", "B"} <= {e["kind"] for e in es}
        else [])
    result = _minimize(case, oracle)
    assert [e["kind"] for e in result.case["entries"]] == ["A", "B"]
    assert result.one_minimal
    assert result.minimized_entries == 2
    assert result.original_entries == 7
    assert result.fingerprint == ["boom"]


def test_minimizer_preserves_failure_fingerprint():
    # A alone fails differently than A+B; the minimizer must not slip
    # from the {x, y} bug onto the {x} bug by deleting B.
    def predicate(es):
        kinds = {e["kind"] for e in es}
        if {"A", "B"} <= kinds:
            return ["x", "y"]
        if "A" in kinds:
            return ["x"]
        return []
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("A", "C", "B")}
    result = _minimize(case, _stub_oracle(predicate))
    assert sorted(e["kind"] for e in result.case["entries"]) == ["A", "B"]
    assert result.fingerprint == ["x", "y"]
    assert result.one_minimal


def test_minimizer_shrinks_numeric_parameters():
    # Fails as long as one A entry has magnitude >= 0.2: the shrinker
    # should walk 0.8 down to the smallest still-failing candidate.
    oracle = _stub_oracle(
        lambda es: ["boom"] if any(e["kind"] == "A"
                                   and e["magnitude"] >= 0.2
                                   for e in es) else [])
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("A", "B")}
    result = _minimize(case, oracle)
    entry = result.case["entries"][0]
    assert entry["kind"] == "A"
    assert 0.2 <= entry["magnitude"] < 0.8
    assert entry["at_s"] == 0.0  # irrelevant time shrunk to zero
    assert result.minimized_entries == 1


def test_minimizer_memoizes_repeat_verdicts():
    calls = []
    def oracle(case):
        calls.append(1)
        fails = ["boom"] if any(e["kind"] == "A"
                                for e in case["entries"]) else []
        return {"ok": not fails, "failures": fails, "digest": "",
                "events": 0, "detail": ""}
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("A", "B", "C")}
    result = _minimize(case, oracle)
    assert result.tests_run == len(calls)
    assert result.cache_hits > 0
    assert result.tests_run + result.cache_hits > len(calls)


def test_minimizer_rejects_passing_case():
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("A")}
    with pytest.raises(ValueError, match="nothing to minimize"):
        _minimize(case, _stub_oracle(lambda es: []))


def test_minimizer_budget_yields_uncertified_result():
    case = {"target": "chaos", "seed": 1, "params": {},
            "entries": _entries("A", "B", "C", "D", "E", "F")}
    oracle = _stub_oracle(
        lambda es: ["boom"] if any(e["kind"] == "A" for e in es) else [])
    result = _minimize(case, oracle, max_tests=3)
    assert not result.one_minimal  # budget ran out before certification
    assert result.fingerprint == ["boom"]


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def test_campaign_cases_are_deterministic_and_keyed():
    a = campaign_cases("chaos", 7, 5)
    b = campaign_cases("chaos", 7, 5)
    assert a == b
    assert [c["key"] for c in a] == [f"chaos-s7-{i:04d}" for i in range(5)]
    assert campaign_cases("chaos", 8, 5) != a


def test_explore_smoke_is_deterministic(tmp_path):
    kwargs = dict(workers=0, minimize=False)
    r1 = explore("chaos", seed=7, budget=2, **kwargs)
    r2 = explore("chaos", seed=7, budget=2, **kwargs)
    assert r1.verdicts == r2.verdicts
    assert set(r1.verdicts) == {"chaos-s7-0000", "chaos-s7-0001"}
    for verdict in r1.verdicts.values():
        assert verdict["digest"]
        assert verdict["events"] > 0


def test_explore_resumes_from_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    r1 = explore("chaos", seed=7, budget=2, workers=0, minimize=False,
                 cache_dir=cache_dir)
    # Second run must come entirely from the persisted cache: poison the
    # cell runner so any real execution would blow up.
    from repro.perf import cells
    real = cells.CELL_RUNNERS["resilience"]
    cells.CELL_RUNNERS["resilience"] = lambda **kw: (_ for _ in ()).throw(
        AssertionError("cache miss: cell re-ran"))
    try:
        lines = []
        r2 = explore("chaos", seed=7, budget=2, workers=0, minimize=False,
                     cache_dir=cache_dir, log=lines.append)
        assert r1.verdicts == r2.verdicts
        assert any("resumed 2/2" in line for line in lines)
    finally:
        cells.CELL_RUNNERS["resilience"] = real


def test_explore_cache_never_answers_for_other_cases(tmp_path):
    # Same target, seed and budget, so the same case keys: only what the
    # cases run differs, and a rerun must not read the first verdicts.
    cache_dir = str(tmp_path / "cache")
    explore("chaos", seed=7, budget=2, minimize=False, cache_dir=cache_dir)
    hot = {"rate": 3, "magnitude": 3}
    fresh = explore("chaos", seed=7, budget=2, minimize=False,
                    intensity=hot)
    lines = []
    rerun = explore("chaos", seed=7, budget=2, minimize=False,
                    intensity=hot, cache_dir=cache_dir, log=lines.append)
    assert "resumed 0/2 cases from cache" in lines
    assert rerun.verdicts == fresh.verdicts


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
def _fake_entry_kwargs():
    case = sample_case("chaos", 1)
    return dict(target="chaos", case=case, spec=case_to_spec(case),
                expected={"failures": ["invariant:page-consistency"],
                          "digest": "d" * 64, "events": 123})


def test_corpus_round_trips(tmp_path):
    corpus = str(tmp_path / "corpus")
    path = save_entry(corpus, "chaos-s1-0000", **_fake_entry_kwargs())
    entries = load_entries(corpus)
    assert len(entries) == 1
    assert entries[0]["format"] == CORPUS_FORMAT
    assert entries[0]["name"] == "chaos-s1-0000"
    assert entries[0]["_path"] == path
    # Stable bytes: re-saving writes the identical file.
    before = Path(path).read_bytes()
    save_entry(corpus, "chaos-s1-0000", **_fake_entry_kwargs())
    assert Path(path).read_bytes() == before


def test_corpus_rejects_foreign_formats(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.json").write_text('{"format": "ESCORP-99"}')
    with pytest.raises(CorpusFormatError, match="ESCORP-99"):
        load_entries(str(corpus))
    (corpus / "bad.json").write_text("not json")
    with pytest.raises(CorpusFormatError, match="not JSON"):
        load_entries(str(corpus))


def _banked_entry():
    with open(os.path.join(CORPUS_DIR, "chaos-s7-0006.json")) as fh:
        return json.load(fh)


ENTRY = _banked_entry()


@pytest.mark.parametrize("payload,field", [
    ([], "an entry must be a JSON object, got []"),
    ({k: v for k, v in ENTRY.items() if k != "spec"},
     "field 'spec' is missing"),
    ({**ENTRY, "name": 7}, "field 'name' must be a string"),
    ({**ENTRY, "target": "kernel"}, "field 'target' must be one of"),
    ({**ENTRY, "spec": {**ENTRY["spec"], "scenario": "nope"}},
     "field 'spec' does not build: chaos spec field 'scenario'"),
    ({**ENTRY, "spec": []}, "field 'spec' does not build"),
    ({**ENTRY, "expected": []}, "field 'expected' must be an object"),
    ({**ENTRY, "expected": {"digest": "d" * 64}},
     "field 'expected.failures' must be a list of strings"),
    ({**ENTRY, "expected": {"failures": [1]}},
     "field 'expected.failures' must be a list of strings"),
    ({**ENTRY, "expected": {"failures": [], "digest": 5}},
     "field 'expected.digest' must be a string"),
    ({**ENTRY, "expected": {"failures": [], "events": -1}},
     "field 'expected.events' must be an int >= 0"),
], ids=["list", "no-spec", "name-int", "target-unknown", "spec-scenario",
        "spec-list", "expected-list", "no-failures", "failures-int",
        "digest-int", "events-negative"])
def test_corpus_rejects_a_malformed_entry_before_any_run(
        tmp_path, monkeypatch, capsys, payload, field):
    from repro.resilience import oracle as oracle_mod

    def refuse(spec):
        raise AssertionError("an entry was run")

    monkeypatch.setattr(oracle_mod, "evaluate_spec", refuse)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorpusFormatError) as info:
        load_entries(str(corpus))
    assert str(info.value).startswith(f"{path}: ") and field in str(info.value)
    assert main(["resilience", "corpus", "--corpus-dir", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and field in err


@st.composite
def edited_entries(draw):
    """A banked entry with one key, at its top level or inside its
    ``expected`` or ``spec``, deleted, added or replaced by any JSON."""
    entry = copy.deepcopy(ENTRY)
    node = entry
    for key in draw(st.sampled_from([(), ("expected",), ("spec",)])):
        node = node[key]
    action = draw(st.sampled_from(["delete", "add", "replace"]))
    if action == "add":
        node[draw(st.text(max_size=6))] = draw(JSON)
    else:
        key = draw(st.sampled_from(sorted(node)))
        if action == "delete":
            del node[key]
        else:
            node[key] = draw(JSON)
    return entry


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode()


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | JSON.map(_json_bytes)
       | edited_entries().map(_json_bytes))
@example(b"[" * 100_000)
def test_fuzzed_corpus_file_loads_or_raises_a_format_error(tmp_path_factory,
                                                           content):
    corpus = tmp_path_factory.mktemp("corpus")
    (corpus / "entry.json").write_bytes(content)
    try:
        entries = load_entries(str(corpus))
    except CorpusFormatError:
        return
    verdict = {"ok": False, "failures": [], "digest": "", "events": 0,
               "detail": ""}
    with mock.patch("repro.resilience.oracle.evaluate_spec",
                    return_value=verdict):
        for entry in entries:
            replay_entry(entry)


def test_corpus_replay_flags_fingerprint_mismatch(tmp_path, monkeypatch):
    corpus = str(tmp_path / "corpus")
    save_entry(corpus, "chaos-s1-0000", **_fake_entry_kwargs())
    from repro.resilience import oracle as oracle_mod
    monkeypatch.setattr(
        oracle_mod, "evaluate_spec",
        lambda spec: {"ok": True, "failures": [], "digest": "e" * 64,
                      "events": 99, "detail": ""})
    outcome = replay_entry(load_entries(corpus)[0])
    assert not outcome.ok
    assert any("fingerprint mismatch" in p for p in outcome.problems)
    assert any("digest drift" in p for p in outcome.problems)
    assert any("event-count drift" in p for p in outcome.problems)


def test_corpus_command_loads_the_corpus_once(monkeypatch, capsys):
    import repro.resilience
    from repro.resilience import corpus as corpus_mod

    calls = []

    def counted(corpus_dir):
        calls.append(corpus_dir)
        return load_entries(corpus_dir)

    monkeypatch.setattr(repro.resilience, "load_entries", counted)
    monkeypatch.setattr(corpus_mod, "load_entries", counted)
    monkeypatch.setattr(corpus_mod, "replay_entry",
                        lambda entry: ReplayOutcome(entry["name"], True))
    assert main(["resilience", "corpus", "--corpus-dir", CORPUS_DIR]) == 0
    assert calls == [CORPUS_DIR]
    out = capsys.readouterr().out
    assert f"replaying 3 corpus entries from {CORPUS_DIR}:" in out
    assert out.endswith("3/3 replayed exactly\n")


def test_banked_corpus_replays_exactly():
    """The committed regression corpus must stay green (chaos entry only
    here — CI replays the full corpus)."""
    import os
    corpus_dir = os.path.join(os.path.dirname(__file__), "..",
                              "corpus", CORPUS_FORMAT)
    entries = [e for e in load_entries(corpus_dir)
               if e["target"] == "chaos"]
    assert entries, "the banked corpus should hold at least 1 chaos entry"
    for entry in entries:
        outcome = replay_entry(entry)
        assert outcome.ok, "\n".join(outcome.problems)
