"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs shrink every simulated length (``--scale``), so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, ROOT)

from perfbench import check, probe, run, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SCALE = 0.1


def bench_main(*args: str, cwd: str = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_layer_map():
    assert tracer.layer_of("/x/src/repro/sim/engine.py") == "engine"
    assert tracer.layer_of("/x/src/repro/core/patterndemux.py") == "demux"
    assert tracer.layer_of("/x/src/repro/core/path.py") == "path"
    assert tracer.layer_of("/x/src/repro/net/freelist.py") == "link"
    assert tracer.layer_of("/x/src/repro/policy/runaway.py") == "defense"
    assert tracer.layer_of("/x/src/repro/server/webserver.py") == "other"
    assert tracer.layer_of("/x/perfbench/rep.py") == "trace"
    assert tracer.layer_of("~") == "runtime"
    assert tracer.layer_of("/usr/lib/python3.11/heapq.py") == "runtime"


def test_calibration():
    quiet = [probe.QUIET_NS] * 40
    assert probe.calibrate([1000] * 40, quiet) == [1000] * 40
    # A host twice as slow for the second half: those slices are scaled
    # down by 2 ** ELASTICITY once the window lies wholly inside it.
    probes = quiet[:20] + [2 * probe.QUIET_NS] * 20
    out = probe.calibrate([1000] * 40, probes)
    assert out[0] == 1000
    assert out[-1] == pytest.approx(1000 / 2 ** probe.ELASTICITY)
    assert probe.probe() > 0


def test_expected_results_recorded_for_default_and_held_out_seed():
    table = check.load_expected()
    for workload in WORKLOADS:
        assert set(table[workload]) >= {"1", "97"}, workload


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    code, out, err = bench_main("--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", trace,
                                "--scale", str(SMOKE_SCALE))
    assert code == 0, out + err
    result = last_json(out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    # Every end-to-end metric is printed by name with its unit either way.
    for name, unit in run.END_TO_END.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         out, re.M), name


def test_perturbed_result_fails_the_check():
    rep = run.spawn_rep("fig9-flood", 3, SMOKE_SCALE, False)
    assert run.problems(rep, None, rep["result"]) == []
    perturbed = json.loads(json.dumps(rep["result"]))
    perturbed["client_completions"] += 1
    found = run.problems(rep, None, perturbed)
    assert found and "client_completions" in found[0]
    # The determinism half of the check trips the same way.
    other = dict(rep, result=perturbed)
    assert run.problems(rep, other, None)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, out, _err = bench_main("--workload", "fig9-flood", "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 cwd=str(tmp_path))
    assert code != 0
    assert '"correct"' not in out
