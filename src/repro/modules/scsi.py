"""The SCSI disk driver module.

Models the testbed's disk: a fixed per-request cost, rotational/seek
latency, and a transfer time proportional to the read size.  Requests
serialize on the (single) disk arm through a semaphore owned by the
driver's domain.  After warmup the FS cache absorbs nearly all reads, so
the disk matters mostly for the first touch of each document — which is
also true of the paper's testbed.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.cpu import Cycles, Sleep
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult


class ScsiRead:
    """Read ``nbytes`` from the disk."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        if nbytes <= 0:
            raise ValueError("read size must be positive")
        self.nbytes = nbytes


class ScsiModule(Module):
    """Driver for the simulated SCSI disk."""

    interfaces = frozenset({"aio", "file"})

    def __init__(self, kernel, name, pd):
        super().__init__(kernel, name, pd)
        self._arm = None  # semaphore, created at boot
        self.reads = 0
        self.bytes_read = 0

    def init_module(self) -> Generator:
        self._arm = self.kernel.create_semaphore(self.pd, count=1,
                                                 name="disk-arm")
        return
        yield  # pragma: no cover

    def open(self, path, attrs, origin):
        # SCSI is the end of the chain; contribute a stage, extend nowhere.
        return OpenResult(self.make_stage(path), ())

    def handle_call(self, stage: Stage, request: ScsiRead) -> Generator:
        """Perform a disk read; returns True when the data is in memory."""
        yield Cycles(self.costs.scsi_request + self.acct(1))
        if self._arm is not None:
            ok = yield from self._arm.acquire()
            if not ok:
                return False
        try:
            self.reads += 1
            self.bytes_read += request.nbytes
            yield Sleep(self.costs.disk_latency_ticks
                        + self.costs.disk_transfer_ticks(request.nbytes))
        finally:
            if self._arm is not None and not self._arm.destroyed:
                self._arm.release()
        return True
