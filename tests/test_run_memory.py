"""A run's memory follows its live state, not the requests it served.

Escort's claim is that destroying a path reclaims everything charged to
it (§2.2, Table 2); the simulator has to keep that promise for its own
Python objects, or a long run's RSS grows with every connection.  One
holder may still reach a destroyed path after a run, and it is bounded:
a cancelled softclock entry waiting for its lazy purge
(``Softclock.note_cancel``).  Purging those entries must leave no
destroyed path alive.  Demux keeps nothing: each ``demux`` call returns
a fresh result.  The scheduler is not a holder either: the kernel has
it forget an owner as soon as the owner is destroyed, so a path killed
last before the CPU idles is not kept.

Digests use the interpreter's built-in SHA-256, so no run loads OpenSSL,
whether it digests, journals, checkpoints, records telemetry or resumes,
and neither does a supervised sweep that caches its cells.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.scenarios import ChaosRun
from repro.cluster.run import ClusterRun
from repro.core.path import Path
from repro.defense.run import DefenseRun
from repro.snapshot import ExperimentRun, RunDriver
from repro.snapshot.digest import sha256_hex

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

RUNS = {
    "chaos-oom-cgi": lambda: ChaosRun("oom-cgi"),
    "experiment-synflood": lambda: ExperimentRun(
        "accounting", clients=4, syn_rate=1000, untrusted_cap=8,
        warmup_s=0.3, measure_s=0.6),
    "defense-mixed": lambda: DefenseRun("mixed", warmup_s=0.3,
                                        measure_s=0.6),
    "cluster-crash": lambda: ClusterRun("crash", warmup_s=0.3,
                                        measure_s=1.5, chaos_at_s=0.4,
                                        chaos_restore_s=1.0),
}


def _servers(bed):
    replicas = getattr(bed, "replicas", None)
    return [r.server for r in replicas] if replicas else [bed.server]


def _destroyed_paths(kernels) -> int:
    mine = {id(kernel) for kernel in kernels}
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, Path) and obj.destroyed
               and id(obj.kernel) in mine)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_destroyed_path_outlives_its_bounded_holders(name):
    driver = RunDriver(RUNS[name]())
    driver.run_all()
    servers = _servers(driver.run.bed)
    destroyed = sum(s.path_manager.paths_created - len(s.path_manager.paths)
                    for s in servers)
    assert destroyed > 20          # the run did destroy paths
    for server in servers:
        wheel = server.kernel.softclock._wheel
        wheel[:] = [entry for entry in wheel if not entry[2].cancelled]
    gc.collect()
    assert _destroyed_paths(s.kernel for s in servers) == 0


def test_a_bare_run_loads_openssl_only_to_digest(tmp_path):
    # Every digest goes through the interpreter's built-in SHA-256, so no
    # step of a bare, digested, journaled, checkpointed, observed or
    # resumed run, nor a supervised sweep with a cell cache, maps OpenSSL.
    script = (
        "import os, sys\n"
        "from repro.obs.session import attach_obs\n"
        "from repro.snapshot import ExperimentRun, RunDriver, RunJournal\n"
        "tmp = sys.argv[1]\n"
        "def cell():\n"
        "    return ExperimentRun(clients=2, syn_rate=200, untrusted_cap=8,\n"
        "                         warmup_s=0.05, measure_s=0.1)\n"
        "def loaded():\n"
        "    print('_hashlib' in sys.modules)\n"
        "run = cell()\n"
        "RunDriver(run).run_all()\n"
        "loaded()\n"
        "run.digest()\n"
        "loaded()\n"
        "driver = RunDriver(cell())\n"
        "journal = os.path.join(tmp, 'run.jrnl')\n"
        "driver.journal = RunJournal(journal, driver.run.spec())\n"
        "driver.run_to(driver.end_tick // 2)\n"
        "loaded()\n"
        "driver.checkpoint(os.path.join(tmp, 'run.ckpt'))\n"
        "loaded()\n"
        "session = attach_obs(driver, os.path.join(tmp, 'obs'))\n"
        "driver.run_all()\n"
        "session.finish()\n"
        "driver.journal.close()\n"
        "loaded()\n"
        "RunDriver.resume(journal)\n"
        "loaded()\n"
        "from repro.experiments.figure9 import run_figure9\n"
        "run_figure9(client_counts=[1], configs=['accounting'],\n"
        "            warmup_s=0.05, measure_s=0.1, supervised=True,\n"
        "            checkpoint_dir=os.path.join(tmp, 'figure9'))\n"
        "loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 7


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_builtin_sha256_matches_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()
