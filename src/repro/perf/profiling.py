"""cProfile hook for the CLI's ``--profile`` flag."""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator, Optional


#: The profile report: the hottest frames by self time, to stderr.
SORT = "tottime"
LIMIT = 25


@contextlib.contextmanager
def maybe_profiled(enabled: bool) -> Iterator[Optional["object"]]:
    """Profile the enclosed block when ``enabled``; print stats on exit.

    Usage::

        with maybe_profiled(args.profile):
            run_figure9(...)
    """
    if not enabled:
        yield None
        return
    import cProfile
    import pstats
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(SORT)
        print(f"--- profile (top {LIMIT} by {SORT}) ---", file=sys.stderr)
        stats.print_stats(LIMIT)
