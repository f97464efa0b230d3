"""Tests for ``python -m repro obs`` (summary / series / explain / diff)."""

import contextlib
import io
import os
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.defense.run import DefenseRun
from repro.obs import run_with_obs
from repro.obs.cli import obs_main
from repro.obs.recorder import SIDECAR_NAME, scan_obs
from repro.snapshot.journal import (JOURNAL_HEADER_LINE, JournalError,
                                    scan_journal, write_journal)
from tests.test_snapshot_runs import JSON

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def obs_dirs(tmp_path_factory):
    """Two byte-identical telemetry dirs plus one from a different seed."""
    base = tmp_path_factory.mktemp("obs-cli")

    def go(name, seed):
        run = DefenseRun("runaway-cgi", adaptive=True, seed=seed,
                         clients=6, cgi_attackers=4,
                         warmup_s=0.3, measure_s=1.0)
        out = str(base / name)
        run_with_obs(run, out)
        return out

    return {"a": go("a", 1), "b": go("b", 1), "other": go("other", 2)}


def test_summary(obs_dirs, capsys):
    assert obs_main(["summary", "--obs-dir", obs_dirs["a"]]) == 0
    out = capsys.readouterr().out
    assert "complete" in out
    assert "metrics digest" in out
    assert "defense.scans" in out


def test_summary_prefix_filter(obs_dirs, capsys):
    assert obs_main(["summary", "--obs-dir", obs_dirs["a"],
                     "--prefix", "kernel."]) == 0
    out = capsys.readouterr().out
    assert "kernel.kills" in out
    assert "\n  defense." not in out


def test_summary_missing_dir(tmp_path, capsys):
    assert obs_main(["summary", "--obs-dir", str(tmp_path / "nope")]) == 2
    assert "no telemetry" in capsys.readouterr().err


def test_series(obs_dirs, capsys):
    assert obs_main(["series", "defense.scans",
                     "--obs-dir", obs_dirs["a"]]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 2
    assert all("s" in l for l in lines)


def test_series_unknown_key_suggests(obs_dirs, capsys):
    assert obs_main(["series", "scans", "--obs-dir", obs_dirs["a"]]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err


def test_explain_all_kills(obs_dirs, capsys):
    assert obs_main(["explain", "--obs-dir", obs_dirs["a"]]) == 0
    out = capsys.readouterr().out
    assert "kill chain for" in out
    assert "pathKill" in out


def test_explain_specific_kill(obs_dirs, capsys):
    # Find one killed path name from the unfiltered output first.
    obs_main(["explain", "--obs-dir", obs_dirs["a"]])
    out = capsys.readouterr().out
    name = out.split("kill chain for ", 1)[1].split(" ", 1)[0]
    assert obs_main(["explain", "--kill", name,
                     "--obs-dir", obs_dirs["a"]]) == 0
    out = capsys.readouterr().out
    assert f"kill chain for {name}" in out


def test_explain_no_match_lists_kills(obs_dirs, capsys):
    assert obs_main(["explain", "--kill", "no-such-path",
                     "--obs-dir", obs_dirs["a"]]) == 2
    out = capsys.readouterr().out
    assert "kills in this run" in out


def test_diff_identical(obs_dirs, capsys):
    assert obs_main(["diff", obs_dirs["a"], obs_dirs["b"]]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_divergent(obs_dirs, capsys):
    assert obs_main(["diff", obs_dirs["a"], obs_dirs["other"]]) == 1
    assert "differ" in capsys.readouterr().out


def test_alien_sidecar_is_a_clean_error(tmp_path, capsys):
    os.makedirs(tmp_path / "bad", exist_ok=True)
    with open(tmp_path / "bad" / "obs.jrnl", "w") as fh:
        fh.write("garbage\n")
    assert obs_main(["summary", "--obs-dir", str(tmp_path / "bad")]) == 2
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# A sidecar record of the wrong shape is an input error, not a crash
# ----------------------------------------------------------------------
SAMPLE = {"kind": "sample", "tick": 10, "metrics": {"a": 1}}


@pytest.mark.parametrize("record,field,argv", [
    ({"kind": "sample", "metrics": {"a": 1}}, "'tick' is missing",
     ["series", "a"]),
    ({**SAMPLE, "tick": -1}, "'tick' must be an int >= 0", ["series", "a"]),
    ({**SAMPLE, "metrics": []},
     "'metrics' must be an object mapping strings to finite numbers",
     ["summary"]),
    ({**SAMPLE, "metrics": {"a": "x"}},
     "'metrics' must be an object mapping strings to finite numbers",
     ["summary"]),
    ({"kind": "span", "id": 1, "span": "pathKill", "subject": "p"},
     "'tick' is missing", ["explain"]),
    ({"kind": "span", "id": 1, "tick": 5, "span": "pathKill",
      "parent": "x"}, "'parent' must be an int or null", ["explain"]),
    ({"kind": "span", "id": "1", "tick": 5, "span": "pathKill"},
     "'id' must be an int", ["explain"]),
    ({"kind": "span", "id": 1, "tick": 5, "span": "pathKill", "values": []},
     "'values' must be an object", ["explain"]),
    ({"kind": "obs-final", "spans": 0, "kills": 0, "metrics_digest": "ab"},
     "'samples' is missing", ["summary"]),
    ({"kind": "obs-final", "samples": 1, "spans": 0, "kills": 0,
      "metrics_digest": None}, "'metrics_digest' must be a string",
     ["summary"]),
    ({"kind": "obs-meta", "spec": []}, "'spec' must be an object",
     ["summary"]),
    ({"kind": "obs-meta", "attempt": "2"}, "'attempt' must be an int",
     ["summary"]),
], ids=["sample-no-tick", "sample-tick-negative", "sample-metrics-list",
        "sample-metric-str", "span-no-tick", "span-parent-str",
        "span-id-str", "span-values-list", "final-no-samples",
        "final-digest-null", "meta-spec-list", "meta-attempt-str"])
def test_malformed_sidecar_record_is_a_journal_error(tmp_path, capsys,
                                                     record, field, argv):
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    path = str(obs_dir / SIDECAR_NAME)
    write_journal(path, [SAMPLE, record])
    where = f"{path}: record 2 ({record['kind']}) field {field}"
    with pytest.raises(JournalError) as info:
        scan_obs(path)
    assert str(info.value).startswith(where)
    assert obs_main([*argv, "--obs-dir", str(obs_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")


#: One record of every shape ``ObsSession`` and ``FlightRecorder`` write,
#: with the fields its reader cannot do without.
WRITER_SHAPES = [
    ({"kind": "obs-meta", "spec": {"run": "defense"}}, ()),
    ({"kind": "obs-meta", "attempt": 2}, ()),
    ({"kind": "obs-meta", "attempt": 2, "resume": {"tick": 5}}, ()),
    ({**SAMPLE, "metrics": {"a": 1, "b": 0.5}}, ("tick", "metrics")),
    ({"kind": "span", "id": 1, "parent": None, "tick": 10,
      "span": "signal", "subject": "x"}, ("id", "tick", "span")),
    ({"kind": "span", "id": 2, "parent": 1, "tick": 11, "span": "pathKill",
      "subject": "p", "detail": "d", "values": {"k": [1]}},
     ("id", "tick", "span")),
    ({"kind": "obs-final", "samples": 1, "spans": 2, "kills": 1,
      "metrics_digest": "ab" * 32},
     ("samples", "spans", "kills", "metrics_digest")),
]


def test_writer_shapes_scan_and_each_required_field_is_checked(tmp_path):
    path = str(tmp_path / SIDECAR_NAME)
    write_journal(path, [record for record, _ in WRITER_SHAPES])
    scan = scan_obs(path)
    assert (len(scan.meta), len(scan.samples), len(scan.span_records),
            len(scan.finals)) == (3, 1, 2, 1)
    for record, required in WRITER_SHAPES:
        for key in required:
            cut = {k: v for k, v in record.items() if k != key}
            write_journal(path, [cut])
            with pytest.raises(JournalError, match=f"field '{key}'"):
                scan_obs(path)


def _frame(body: bytes) -> bytes:
    return format(zlib.crc32(body), "08x").encode() + b" " + body + b"\n"


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300)
       | st.binary(max_size=300).map(lambda b: JOURNAL_HEADER_LINE + b))
@example(JOURNAL_HEADER_LINE + _frame(b'{"kind":"spec"}') + _frame(
    b'{"kind":"sample","x":' + b"[" * 100_000 + b"]" * 100_000 + b"}"))
def test_arbitrary_bytes_scan_or_raise_a_journal_error(tmp_path_factory,
                                                       content):
    path = tmp_path_factory.mktemp("bytes") / SIDECAR_NAME
    path.write_bytes(content)
    for scan in (scan_journal, scan_obs):
        try:
            scan(str(path))
        except JournalError:
            pass


#: Well-typed values for every field an ``obs`` reader uses.
FIELD_VALUES = {
    "tick": st.integers(0, 10 ** 12),
    "metrics": st.dictionaries(
        st.sampled_from(["a", "b.c", "kernel.kills"]),
        st.integers() | st.floats(allow_nan=False, allow_infinity=False),
        max_size=3),
    "id": st.integers(0, 5),
    "parent": st.none() | st.integers(0, 5),
    "span": st.sampled_from(["pathKill", "signal", "rung"]),
    "subject": st.text(max_size=6),
    "detail": st.text(max_size=6),
    "values": st.dictionaries(st.text(max_size=4), JSON, max_size=3),
    "samples": st.integers(0, 100),
    "spans": st.integers(0, 100),
    "kills": st.integers(0, 100),
    "metrics_digest": st.text(max_size=70),
    "spec": st.dictionaries(st.sampled_from(["run", "kind", "seed"]), JSON,
                            max_size=3),
    "attempt": st.integers(),
    "resume": JSON,
}


#: The fields each record kind's writer emits.
KIND_FIELDS = {
    "sample": ("tick", "metrics"),
    "span": ("id", "parent", "tick", "span", "subject", "detail", "values"),
    "obs-final": ("samples", "spans", "kills", "metrics_digest"),
    "obs-meta": ("spec", "attempt", "resume"),
}


@st.composite
def sidecar_records(draw):
    """A JSON object of a sidecar record kind (or any other) whose
    writer's fields are each mostly present and well-typed, but may be
    left out or hold any JSON, plus at most one field of another kind."""
    kind = draw(st.sampled_from(sorted(KIND_FIELDS)) | JSON)
    record = {"kind": kind}
    keys = list(KIND_FIELDS.get(kind, ())) if type(kind) is str else []
    keys += draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)),
                          max_size=1))
    for key in keys:
        roll = draw(st.integers(0, 9))
        if roll == 0:
            continue
        record[key] = draw(JSON if roll == 1 else FIELD_VALUES[key])
    return record


def _obs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = obs_main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(sidecar_records(), max_size=6))
def test_framed_json_scans_or_raises_and_obs_commands_only_read_it(
        tmp_path_factory, records):
    obs_dir = tmp_path_factory.mktemp("obs")
    path = str(obs_dir / SIDECAR_NAME)
    write_journal(path, records)
    try:
        scan = scan_obs(path)
    except JournalError:
        return
    key = next(iter(scan.final_metrics()), "a")
    for argv, codes in ((["summary"], {0 if scan.records else 2}),
                        (["series", key], {0, 2}), (["explain"], {0, 2})):
        code, err = _obs([*argv, "--obs-dir", str(obs_dir)])
        assert code in codes and not err.startswith("error:"), (argv, err)
