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

A pre-populated ``cache`` (e.g. the figure9 ``figure9-cells.jrnl`` cell
cache) short-circuits finished cells, so a resumed parallel sweep only
runs what is missing; ``on_cell_done`` fires as cells finish (completion
order) so callers can persist the cache crash-safely.

Failure containment: a worker process dying (OOM-kill, segfault) breaks
a ``ProcessPoolExecutor``, poisoning every in-flight future.  Rather
than aborting the sweep, :func:`run_cells` requeues each affected cell
once into its own fresh single-worker pool — innocent victims of a
neighbour's crash complete normally there — and a cell whose worker dies
twice (or that raises) is surfaced as a :class:`CellFailure` value in
the result mapping.  Failures are never cached and never passed to
``on_cell_done``.  A sweep that needs every cell — the figure, ablation,
defense and cluster drivers — passes the mapping through
:func:`completed`, which raises one :class:`SweepError` naming every
failed cell once the rest have finished; the resilience campaign instead
grades each failure as a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a registered runner plus its parameters."""

    #: Stable unique identity — cache key and merge position.
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


def run_specs(runs: Dict[str, Any], workers: int = 0, cache=None,
              on_cell_done=None) -> Dict[str, Any]:
    """Run ``{key: replayable run}`` as ``run``-runner cells; every cell
    must finish (``cache`` and ``on_cell_done`` as for :func:`run_cells`)."""
    cells = [SweepCell(key, "run", {"spec": run.spec()})
             for key, run in runs.items()]
    return completed(run_cells(cells, workers, cache, on_cell_done))


def _run_cell_job(runner: str, params: Dict[str, Any]) -> Any:
    """Worker entry point: import the registry, reset ids, run the cell."""
    from repro.perf import cells
    return cells.run_cell(runner, params)


def run_cells(cells_seq: Sequence[SweepCell], workers: int = 0,
              cache: Optional[Dict[str, Any]] = None,
              on_cell_done: Optional[Callable[[SweepCell, Any], None]] = None,
              ) -> Dict[str, Any]:
    """Execute a sweep; returns ``{key: result}`` in cell-list order.

    ``workers <= 1`` runs serially in-process.  ``cache`` maps cell keys to
    already-computed results; cached cells are returned without running and
    without invoking ``on_cell_done`` (they were already persisted).
    """
    cells_list = list(cells_seq)
    keys = [c.key for c in cells_list]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate sweep cell keys: {dupes}")
    cache = cache or {}
    todo = [c for c in cells_list if c.key not in cache]

    results: Dict[str, Any] = {}

    def finished(cell: SweepCell, result: Any) -> None:
        results[cell.key] = result
        if on_cell_done is not None:
            on_cell_done(cell, result)

    if workers and workers > 1 and todo:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait
        from concurrent.futures.process import BrokenProcessPool

        broken_keys = set()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_cell_job, c.runner, c.params): c
                       for c in todo}
            # Drain in completion order so on_cell_done can persist the
            # cache incrementally (crash-resumable sweeps); the final merge
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

    return {c.key: (cache[c.key] if c.key in cache else results[c.key])
            for c in cells_list}


def parse_workers(value) -> int:
    """Validate a ``--workers`` argument (0/1 = serial)."""
    n = int(value)
    if n < 0:
        raise ValueError(f"workers must be >= 0, got {n}")
    return n
