"""Run specs are validated where the run is constructed.

A journal's spec record is rebuilt into a run by ``RunDriver.resume``, so
a malformed spec of any kind — a wrong type, an out-of-range value, an
unknown choice, a missing or unknown key — must fail up front with a
``ValueError`` naming the kind and the field, not deep inside the build
or as a run that "succeeds" with nonsense numbers.  The CLI entry points
that take specs or run fields report the same error and exit 2.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import COMMANDS, main
from repro.resilience.space import case_to_spec, sample_case
from repro.snapshot import (ExperimentRun, Recording, RunDriver,
                            run_from_spec)
from repro.snapshot.journal import write_journal
from repro.snapshot.runs import run_class
from repro.supervise.harness import selftest_spec

KINDS = ("experiment", "chaos", "defense", "cluster")

GOOD = ExperimentRun("accounting", clients=2, syn_rate=200,
                     untrusted_cap=16, warmup_s=0.1, measure_s=0.3).spec()

#: ``(kind, field, value)``; each kind starts from its selftest spec.
BAD_VALUES = [("experiment", name, value) for name, value in [
    ("clients", -3), ("clients", "8"), ("clients", 2.0), ("clients", True),
    ("syn_rate", -1), ("syn_rate", None), ("cgi_attackers", -2),
    ("cgi_attackers", "1"), ("warmup_s", -0.5), ("warmup_s", float("nan")),
    ("measure_s", -1.0), ("measure_s", 0), ("measure_s", float("inf")),
    ("measure_s", "5"), ("config", "windows"), ("config", "Accounting"),
    ("document", "/nope"), ("cgi_script", "nope"),
]] + [("defense", "adaptive", "no"), ("defense", "config", "linux"),
      ("defense", "document", "/doc-2k"), ("cluster", "replicas", 0),
      ("cluster", "document", "/nope"), ("chaos", "scenario", "nope")]
BAD_IDS = [f"{name}-{value}" if kind == "experiment"
           else f"{kind}-{name}-{value}" for kind, name, value in BAD_VALUES]


def _good(kind):
    return GOOD if kind == "experiment" else selftest_spec(kind)


def test_good_spec_round_trips():
    assert run_from_spec(GOOD).spec() == GOOD
    for kind in KINDS:
        assert run_from_spec(selftest_spec(kind)).spec() == \
            selftest_spec(kind)


def test_experiment_qos_applies_the_cpu_reservation():
    from repro.policy import QosPolicy

    run = ExperimentRun(qos=True)
    run.build()
    assert run.bed.server.http.stream_tickets == QosPolicy().tickets(False)


def test_experiment_cgi_attackers_apply_the_runaway_kill():
    from repro.policy import RunawayPolicy

    run = ExperimentRun(cgi_attackers=1)
    run.build()
    assert run.bed.server.tcp.active_path_runtime_limit == \
        RunawayPolicy().limit_cycles


@pytest.mark.parametrize("kind,name,value", BAD_VALUES, ids=BAD_IDS)
def test_bad_value_is_a_value_error_naming_the_field(kind, name, value):
    required = {"scenario": "domain-crash"} if kind == "chaos" else {}
    with pytest.raises(ValueError, match=f"{kind} spec field '{name}'"):
        run_class(kind)(**{**required, name: value})
    with pytest.raises(ValueError, match=f"{kind} spec field '{name}'"):
        run_from_spec({**_good(kind), name: value})


@pytest.mark.parametrize("kind,name,value", BAD_VALUES, ids=BAD_IDS)
def test_resume_refuses_a_journal_whose_spec_is_malformed(tmp_path, kind,
                                                          name, value):
    path = str(tmp_path / "bad.jrnl")
    write_journal(path, [
        {"kind": "spec", "spec": {**_good(kind), name: value}},
        {"kind": "milestone", "tick": 0, "seq": 2, "events": 0,
         "milestones_done": 1, "digest": "0" * 64},
    ])
    with pytest.raises(ValueError, match=f"{kind} spec field '{name}'"):
        RunDriver.resume(path)


def test_spec_choices_match_what_the_testbed_builds():
    """The literal choice lists stand in for the server's own tables,
    which the snapshot layer must not import."""
    from repro.experiments.harness import Testbed
    from repro.server.webserver import DEFAULT_DOCUMENTS
    from repro.snapshot.runs import CGI_SCRIPTS, CONFIGS, DOCUMENTS

    assert DOCUMENTS == tuple(DEFAULT_DOCUMENTS)
    for config in CONFIGS:
        Testbed.by_name(config)
    with pytest.raises(ValueError, match="unknown configuration"):
        Testbed.by_name("windows")
    server = Testbed.by_name("accounting").server
    assert CGI_SCRIPTS == tuple(server.http.cgi_scripts)


def test_banked_corpus_specs_validate():
    import os

    from repro.resilience.corpus import default_corpus_dir, load_entries

    entries = load_entries(default_corpus_dir(
        os.path.join(os.path.dirname(__file__), os.pardir)))
    assert entries
    for entry in entries:
        assert run_from_spec(entry["spec"]).spec() == entry["spec"]


def test_missing_and_unknown_keys_are_errors():
    missing = {k: v for k, v in GOOD.items() if k != "config"}
    with pytest.raises(ValueError, match="'config' is missing"):
        run_from_spec(missing)
    with pytest.raises(ValueError, match="'warp' is unknown"):
        run_from_spec({**GOOD, "warp": 9})


def test_non_object_spec_is_a_value_error():
    with pytest.raises(ValueError, match="JSON object"):
        run_from_spec(["experiment"])


def test_cross_field_and_schedule_errors_name_the_field():
    with pytest.raises(ValueError, match="cluster spec field 'victim'"):
        run_from_spec({**selftest_spec("cluster"), "victim": 2})
    spec = case_to_spec(sample_case("chaos", 1))
    late, early = ({**spec["schedule"]["events"][0], "at_s": at}
                   for at in (0.5, 0.1))
    for schedule in ({"seed": 1}, {"seed": 1, "events": [{"at_s": 0}]},
                     {"seed": 1, "events": [late, early]}, None):
        with pytest.raises(ValueError, match="chaos spec field 'schedule'"):
            run_from_spec({**spec, "schedule": schedule})


# ----------------------------------------------------------------------
# Fuzzed specs: a run whose spec() is its input, or a ValueError
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6)

#: Each kind's selftest spec, plus a chaos spec carrying a schedule.
STARTS = [selftest_spec(kind) for kind in KINDS] + [
    case_to_spec(sample_case("chaos", 1))]


@st.composite
def mutated_specs(draw):
    """A start spec with one key deleted, added or given any JSON value;
    a chaos schedule and its events are mutated the same way."""
    spec = copy.deepcopy(draw(st.sampled_from(STARTS)))
    targets = [spec]
    if "schedule" in spec:
        targets += [spec["schedule"], *spec["schedule"]["events"]]
    target = draw(st.sampled_from(targets))
    op = draw(st.sampled_from(("delete", "add", "replace")))
    if op == "add":
        key = draw(st.text(max_size=6).filter(lambda k: k not in target))
    else:
        key = draw(st.sampled_from(sorted(target)))
    if op == "delete":
        del target[key]
    else:
        target[key] = draw(JSON)
    return spec


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_specs(), JSON))
def test_fuzzed_spec_round_trips_or_is_a_value_error(spec):
    try:
        run = run_from_spec(spec)
    except ValueError as exc:
        kind = spec.get("run") if isinstance(spec, dict) else None
        prefix = f"{kind} spec field " if kind in KINDS else ""
        assert "spec" in str(exc) and str(exc).startswith(prefix)
        return
    assert run.spec() == spec


# ----------------------------------------------------------------------
# The CLI reports a bad spec or flag as an error and exits 2
# ----------------------------------------------------------------------
@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if any run is built (a cell, a child or a
    minimization started)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run was started")

    import repro.perf.pool
    import repro.resilience
    import repro.supervise
    monkeypatch.setattr(RunDriver, "__init__", refuse)
    monkeypatch.setattr(repro.supervise, "Supervisor", refuse)
    monkeypatch.setattr(repro.perf.pool, "run_cells", refuse)
    monkeypatch.setattr(repro.resilience, "Minimizer", refuse)


@pytest.mark.parametrize("content,field", [
    (json.dumps({"run": "defense", "adaptive": True, "seed": 2,
                 "clients": 6}), "'attack' is missing"),
    (json.dumps({**selftest_spec("cluster"), "clients": "6"}), "'clients'"),
    ('{"run": "chaos", ', "Expecting"),
], ids=["missing-key", "wrong-type", "not-json"])
def test_supervise_rejects_a_bad_spec_file_before_forking(
        tmp_path, capsys, no_runs, content, field):
    path = tmp_path / "spec.json"
    path.write_text(content)
    assert main(["supervise", "--spec-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("spec,field", [
    ({**GOOD, "clients": -3}, "experiment spec field 'clients'"),
    ({**selftest_spec("chaos"), "scenario": "nope"},
     "chaos spec field 'scenario'"),
], ids=["experiment-clients", "chaos-scenario"])
def test_replay_reports_a_malformed_recording_spec(tmp_path, capsys, spec,
                                                   field):
    path = str(tmp_path / "bad.rec")
    Recording(spec, 2000).save(path)
    assert main(["replay", path]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["defense", "--attacks", "synflood", "--seeds", "1", "--measure", "0"],
     "defense spec field 'measure_s'"),
    (["defense", "--attacks", "synfood"], "defense spec field 'attack'"),
    (["defense", "--attacks", "synflood,synfood", "--replay-check"],
     "defense spec field 'attack'"),
    (["cluster", "--sizes", "0"], "cluster spec field 'replicas'"),
    (["cluster", "--sizes", "1,0", "--replay-check"],
     "cluster spec field 'replicas'"),
    (["figure8", "--measure", "0"], "experiment spec field 'measure_s'"),
    (["figure9", "--warmup", "-1"], "experiment spec field 'warmup_s'"),
    (["figure10", "--measure", "-1"], "experiment spec field 'measure_s'"),
    (["figure11", "--clients", "-1"], "experiment spec field 'clients'"),
    (["experiment", "--document", "/nope"],
     "experiment spec field 'document'"),
    (["figure9", "--document", "/nope"], "experiment spec field 'document'"),
    (["defense", "--document", "/nope"], "defense spec field 'document'"),
    (["cluster", "--document", "/nope"], "cluster spec field 'document'"),
    (["defense", "--attacks", ""], "--attacks '' names no attack profile"),
    (["record", "-s", "domain-crash", "--every", "0", "-o", "unused.rec"],
     "every_events must be an int >= 1, got 0"),
    (["replay", "-s", "domain-crash", "--every", "-5"],
     "every_events must be an int >= 1, got -5"),
    (["resilience", "explore", "--target", "chaos", "--budget", "-3"],
     "budget must be at least 1 case, got -3"),
    (["resilience", "explore", "--target", "chaos", "--budget", "0"],
     "budget must be at least 1 case, got 0"),
], ids=["defense-measure", "defense-attack", "defense-later-attack",
        "cluster-size", "cluster-later-size", "figure8-measure",
        "figure9-warmup", "figure10-measure", "figure11-clients",
        "experiment-document", "figure9-document", "defense-document",
        "cluster-document", "defense-no-attack", "record-every",
        "replay-every", "explore-budget-negative", "explore-budget-zero"])
def test_sweeps_reject_out_of_range_flags_before_any_cell(capsys, no_runs,
                                                          argv, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv,message", [
    (["figure8", "--docs", "2KB"], "argument --docs: '2KB' is not one of"),
    (["figure9", "--clients", "16,x"],
     "argument --clients: 'x' is not an integer"),
    (["defense", "--seeds", "1,x"], "argument --seeds: 'x' is not an integer"),
    (["cluster", "--seeds", "x"], "argument --seeds: 'x' is not an integer"),
    (["figure10", "--configs", "accounting,nope"],
     "argument --configs: 'nope' is not one of"),
    (["figure11", "--attackers", "-1"], "argument --attackers: -1 is below 0"),
    (["experiment", "--clients", "2", "--warmup", "0.1", "--measure", "0.2",
      "--checkpoint-every", "-1"],
     "argument --checkpoint-every: checkpoint interval must be"),
    (["experiment", "--checkpoint-every", "0"],
     "argument --checkpoint-every: checkpoint interval must be"),
    (["chaos", "-s", "oom-cgi", "--checkpoint-every", "1e-12"],
     "argument --checkpoint-every: checkpoint interval must be"),
    (["figure9", "--workers", "-1"],
     "argument --workers/-j: invalid parse_workers value: '-1'"),
    (["chaos", "-j", "-2"],
     "argument --workers/-j: invalid parse_workers value: '-2'"),
    (["resilience", "explore", "--workers", "-1"],
     "argument --workers/-j: invalid parse_workers value: '-1'"),
    (["supervise", "--kind", "experiment", "--checkpoint-every", "-1"],
     "argument --checkpoint-every: -1 is below 1"),
    (["supervise", "--kind", "experiment", "--checkpoint-every", "0"],
     "argument --checkpoint-every: 0 is below 1"),
    (["supervise", "--kind", "experiment", "--heartbeat-timeout", "-1"],
     "argument --heartbeat-timeout: -1 is not a finite number of seconds"),
    (["supervise", "--kind", "experiment", "--heartbeat-timeout", "0"],
     "argument --heartbeat-timeout: 0 is not a finite number of seconds"),
    (["supervise", "--kind", "experiment", "--heartbeat-timeout", "nan"],
     "argument --heartbeat-timeout: nan is not a finite number of seconds"),
    (["supervise", "--kind", "experiment", "--heartbeat-timeout", "inf"],
     "argument --heartbeat-timeout: inf is not a finite number of seconds"),
    (["supervise", "--kind", "experiment", "--max-attempts", "0"],
     "argument --max-attempts: 0 is below 1"),
    (["supervise", "--selftest", "--quick", "--kill-points", "0"],
     "argument --kill-points: 0 is below 1"),
    (["supervise", "--kind", "experiment", "--inject-kill", "-1"],
     "argument --inject-kill: -1 is below 0"),
    (["supervise", "--kind", "experiment", "--inject-hang", "-1"],
     "argument --inject-hang: -1 is below 0"),
    (["resilience", "explore", "--max-tests", "0"],
     "argument --max-tests: 0 is below 1"),
    (["resilience", "minimize", "--max-tests", "-1"],
     "argument --max-tests: -1 is below 1"),
    (["ablation", "--clients", "-3"], "argument --clients: -3 is below 0"),
], ids=["figure8-docs", "figure9-clients", "defense-seeds", "cluster-seeds",
        "figure10-configs", "figure11-attackers",
        "experiment-checkpoint-every", "experiment-checkpoint-every-zero",
        "chaos-checkpoint-every-sub-tick", "figure9-workers", "chaos-workers",
        "explore-workers", "supervise-checkpoint-every-negative",
        "supervise-checkpoint-every-zero", "supervise-heartbeat-negative",
        "supervise-heartbeat-zero", "supervise-heartbeat-nan",
        "supervise-heartbeat-inf", "supervise-max-attempts-zero",
        "supervise-kill-points-zero", "supervise-inject-kill-negative",
        "supervise-inject-hang-negative", "explore-max-tests-zero",
        "minimize-max-tests-negative", "ablation-clients-negative"])
def test_list_flags_reject_bad_items_before_any_cell(capsys, no_runs, argv,
                                                     message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err


@pytest.mark.parametrize("argv", [["figure12"], ["--smoke"]],
                         ids=["unknown-command", "unknown-flag"])
def test_unknown_command_or_flag_exits_2(capsys, no_runs, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_has_help(capsys, name):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: python -m repro {name}")


@pytest.mark.parametrize("content,message", [
    (None, "No such file"),
    ("{\"case\": ", "Expecting"),
    (json.dumps({"case": 5}), "a case must be a JSON object"),
    (json.dumps({"case": {"target": "chaos"}}), "is missing"),
], ids=["missing-file", "not-json", "not-an-object", "missing-field"])
def test_minimize_rejects_a_bad_case_file_before_any_run(tmp_path, capsys,
                                                         no_runs, content,
                                                         message):
    path = tmp_path / "case.json"
    if content is not None:
        path.write_text(content)
    assert main(["resilience", "minimize", "--case-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {path}: ") and message in err
    assert out == ""


def test_minimize_reports_a_passing_case_on_stderr(tmp_path, capsys,
                                                   monkeypatch):
    import repro.resilience

    class Passing:
        def __init__(self, case, **kwargs):
            pass

        def run(self):
            raise ValueError("case passes its oracle; nothing to minimize")

    monkeypatch.setattr(repro.resilience, "Minimizer", Passing)
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"case": sample_case("chaos", 1)}))
    assert main(["resilience", "minimize", "--case-file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: case passes its oracle; nothing to minimize\n"
