"""Parallel sweep execution over a process pool.

A sweep is a list of :class:`SweepCell` values, each naming a registered
cell runner (see :mod:`repro.perf.cells`) plus its JSON-able parameters.
:func:`run_cells` executes them — serially by default, or fanned out over
a ``ProcessPoolExecutor`` — and returns ``{cell.key: result}``.

Determinism contract:

* Workers share nothing.  Each cell rebuilds its simulated machine from
  scratch inside its own process, after :func:`repro.snapshot.runs.reset_ids`,
  so object ids (and everything derived from them) are identical no matter
  which worker runs the cell or in what order.  The serial path resets ids
  the same way, making serial and parallel sweeps byte-identical per cell.
* Results are merged in submission (cell-list) order, not completion
  order, so the returned mapping is independent of scheduling.
* Only ``(runner-name, params)`` crosses the process boundary — no
  closures, no machine state — which keeps cells picklable and workers
  restartable.

Resume: a ``cache_path`` file (one ``sweep-cells`` ESCJRNL record,
rewritten atomically as each cell finishes) files every result under its
cell's identity, the SHA-256 of its runner and params, so a restarted
sweep runs only what is missing and a cache never answers for a cell
that computes something else.  ``supervised=True`` runs each uncached
``run`` or ``resilience`` cell in a crash-only child
(:mod:`repro.supervise`) whose state directory, named by the same
identity under ``<cache dir>/supervise/``, lets a rerun resume an
in-flight cell from its journal.

Failure containment: a worker process dying (OOM-kill, segfault) breaks
a ``ProcessPoolExecutor``, poisoning every in-flight future.  Rather
than aborting the sweep, :func:`run_cells` requeues each affected cell
once into its own fresh single-worker pool — innocent victims of a
neighbour's crash complete normally there — and a cell whose worker dies
twice (or that raises) is surfaced as a :class:`CellFailure` value in
the result mapping, as is a supervised ``run`` cell that gave up.
Failures are never cached.  A sweep that needs every cell — the figure,
ablation, defense and cluster drivers — passes the mapping through
:func:`completed`, which raises one :class:`SweepError` naming every
failed cell once the rest have finished; the resilience campaign instead
grades each failure as a verdict.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Record kind of a sweep's cell cache: ``{cell identity: result}``.
CACHE_KIND = "sweep-cells"


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a registered runner plus its parameters."""

    #: Unique name within the sweep — its merge position.
    key: str
    #: Name in :data:`repro.perf.cells.CELL_RUNNERS`.
    runner: str
    #: JSON-able keyword arguments for the runner.
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellFailure:
    """A cell that could not produce a result, as its value in the mapping
    :func:`run_cells` returns.  ``kind`` is ``"worker-crash"`` when the
    hosting process died twice, ``"exception"`` when the cell raised,
    ``"supervision:<how>"`` when a supervised cell gave up."""

    key: str
    runner: str
    kind: str
    error: str
    requeued: bool = False


class SweepError(RuntimeError):
    """One or more cells of a sweep that needs them all produced no
    result; the message names each one."""


def completed(results: Dict[str, Any]) -> Dict[str, Any]:
    """``results`` unchanged if no cell failed, else raise
    :class:`SweepError` naming every failed cell's key, kind and error."""
    failures = [v for v in results.values() if isinstance(v, CellFailure)]
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(results)} sweep cell(s) failed: "
            + "; ".join(f"{f.key} ({f.runner}, {f.kind}): {f.error}"
                        for f in failures))
    return results


def run_specs(runs: Dict[str, Any], workers: int = 0,
              cache_path: Optional[str] = None,
              supervised: bool = False) -> Dict[str, Any]:
    """Run ``{key: replayable run}`` as ``run``-runner cells; every cell
    must finish (the other arguments as for :func:`run_cells`)."""
    cells = [SweepCell(key, "run", {"spec": run.spec()})
             for key, run in runs.items()]
    return completed(run_cells(cells, workers, cache_path, supervised))


def _run_cell_job(runner: str, params: Dict[str, Any]) -> Any:
    """Worker entry point: import the registry, reset ids, run the cell."""
    from repro.perf import cells
    return cells.run_cell(runner, params)


def _identity(cell: SweepCell) -> str:
    """What a cell computes: the SHA-256 of its runner and params."""
    from repro.snapshot.digest import canonical_json, sha256_hex
    return sha256_hex(canonical_json([cell.runner, cell.params]).encode())


def _read_cache(cache_path: Optional[str]) -> Optional[Dict[str, Any]]:
    """``{cell identity: result}`` from the cache file, None without one."""
    if not cache_path or not os.path.exists(cache_path):
        return None
    from repro.snapshot.journal import load_record
    return load_record(cache_path, CACHE_KIND)["cells"]


def cached_keys(cells_seq: Sequence[SweepCell],
                cache_path: Optional[str]) -> Optional[List[str]]:
    """Keys of the cells whose results the cache file holds; None when
    there is no cache file."""
    cache = _read_cache(cache_path)
    if cache is None:
        return None
    return [c.key for c in cells_seq if _identity(c) in cache]


def run_cells(cells_seq: Sequence[SweepCell], workers: int = 0,
              cache_path: Optional[str] = None,
              supervised: bool = False) -> Dict[str, Any]:
    """Execute a sweep; returns ``{key: result}`` in cell-list order.

    ``workers <= 1`` runs serially in-process.  With ``cache_path``, a
    cell whose result the file holds is returned without running, and
    each other cell's result is written to it as the cell finishes.
    ``supervised`` runs the uncached cells one at a time in supervised
    children (``workers`` unused); a runner other than ``run`` and
    ``resilience`` raises ``ValueError`` before any cell runs.
    """
    cells_list = list(cells_seq)
    keys = [c.key for c in cells_list]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate sweep cell keys: {dupes}")
    if supervised and any(c.runner not in ("run", "resilience")
                          for c in cells_list):
        raise ValueError("only run and resilience cells can be supervised, "
                         f"not {sorted({c.runner for c in cells_list})}")
    ids = {c.key: _identity(c) for c in cells_list}
    cache = _read_cache(cache_path) or {}
    results: Dict[str, Any] = {key: cache[ident]
                               for key, ident in ids.items() if ident in cache}
    todo = [c for c in cells_list if c.key not in results]

    def finished(cell: SweepCell, result: Any) -> None:
        results[cell.key] = result
        if cache_path:
            from repro.snapshot.journal import write_journal
            cache[ids[cell.key]] = result
            os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
            write_journal(cache_path, [{"kind": CACHE_KIND, "cells": cache}])

    if supervised:
        _run_supervised(todo, ids, cache_path, results, finished)
    elif workers and workers > 1 and todo:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool

        broken_keys = set()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_cell_job, c.runner, c.params): c
                       for c in todo}
            # Drain in completion order so the cache is written as each
            # cell finishes (crash-resumable sweeps); the final merge
            # below restores deterministic order regardless.
            pending = set(futures)
            while pending:
                done, pending = futures_wait(pending,
                                             return_when=FIRST_COMPLETED)
                for fut in done:
                    cell = futures[fut]
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        # A worker died (SIGKILL, OOM, segfault) and took
                        # the whole pool with it; every in-flight cell
                        # lands here, killer and innocent victims alike.
                        broken_keys.add(cell.key)
                        continue
                    except Exception as exc:
                        # The cell itself raised — deterministic, so a
                        # retry would change nothing.  Record and go on.
                        results[cell.key] = CellFailure(
                            cell.key, cell.runner, "exception",
                            repr(exc)[:500])
                        continue
                    finished(cell, result)
        # Requeue each broken-pool cell once, isolated in its own
        # single-worker pool: an innocent victim completes normally, a
        # repeat-killer can only abandon itself.
        for cell in (c for c in todo if c.key in broken_keys):
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    result = solo.submit(_run_cell_job, cell.runner,
                                         cell.params).result()
            except BrokenProcessPool:
                results[cell.key] = CellFailure(
                    cell.key, cell.runner, "worker-crash",
                    "worker process died running this cell twice "
                    "(killed by the OS?); cell abandoned", requeued=True)
                continue
            except Exception as exc:
                results[cell.key] = CellFailure(
                    cell.key, cell.runner, "exception", repr(exc)[:500],
                    requeued=True)
                continue
            finished(cell, result)
    else:
        for cell in todo:
            finished(cell, _run_cell_job(cell.runner, cell.params))

    return {key: results[key] for key in keys}


def _run_supervised(todo: List[SweepCell], ids: Dict[str, str],
                    cache_path: Optional[str], results: Dict[str, Any],
                    finished) -> None:
    """Run ``todo`` one cell at a time, each in a supervised child whose
    state directory is named by the cell's identity; without a cache
    they share one temp root, removed unless a cell gave up.  A ``run``
    cell supervision gives up on becomes a :class:`CellFailure`; a
    ``resilience`` cell yields its graded verdict either way."""
    import shutil
    import tempfile

    from repro.supervise import Supervisor, supervision_verdict

    root = (os.path.join(os.path.dirname(cache_path), "supervise")
            if cache_path else tempfile.mkdtemp(prefix="sweep-supervise-"))
    gave_up = False
    for cell in todo:
        grade = cell.runner == "resilience"
        sres = Supervisor(os.path.join(root, ids[cell.key])).run(
            cell.params["spec"], grade=grade)
        gave_up |= sres.gave_up
        kept = f"state kept in {sres.state_dir}"
        if grade:
            verdict = supervision_verdict(sres)
            if sres.gave_up:
                verdict["detail"] += f" ({kept})"
            finished(cell, verdict)
        elif sres.gave_up:
            results[cell.key] = CellFailure(
                cell.key, cell.runner, f"supervision:{sres.classification}",
                f"gave up after {len(sres.attempts)} attempts ({kept})")
        else:
            finished(cell, sres.result["measurement"])
    if not cache_path and not gave_up:
        shutil.rmtree(root)


def parse_workers(value) -> int:
    """Validate a ``--workers`` argument (0/1 = serial)."""
    n = int(value)
    if n < 0:
        raise ValueError(f"workers must be >= 0, got {n}")
    return n
