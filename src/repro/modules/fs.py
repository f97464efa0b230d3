"""The file system module.

FS serves the file-access interface to HTTP and talks to the SCSI driver
below.  It keeps a buffer cache of whole documents in IOBuffers owned by
its protection domain; when a cached document is served, the buffer is
*associated* with the requesting path as a second owner — the exact
web-cache pattern the paper uses to motivate the IOBuffer association call
(section 3.3): no copying, one copy of each data item, and the path is
fully charged while it references the data.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.sim.cpu import Cycles
from repro.core.path import Stage
from repro.kernel.errors import EscortError
from repro.modules.base import Module, OpenResult
from repro.modules.scsi import ScsiRead


class FileRead:
    """File-access request: fetch a whole document."""

    __slots__ = ("uri",)

    def __init__(self, uri: str):
        self.uri = uri


class FsModule(Module):
    """A simple whole-file FS over SCSI with an IOBuffer document cache."""

    interfaces = frozenset({"aio", "file"})

    def __init__(self, kernel, name, pd,
                 documents: Optional[Dict[str, int]] = None):
        super().__init__(kernel, name, pd)
        #: uri -> size in bytes (the on-disk directory).
        self.documents: Dict[str, int] = dict(documents or {})
        #: uri -> cached IOBuffer holding the document.
        self.cache: Dict[str, object] = {}
        self.lookups = 0
        self.cache_hits = 0
        self.disk_reads = 0

    def add_document(self, uri: str, size: int) -> None:
        if size <= 0:
            raise ValueError("document size must be positive")
        self.documents[uri] = size

    def open(self, path, attrs, origin):
        stage = self.make_stage(path)
        extend = [n for n in self.graph.neighbors(self.name)
                  if origin is None or n != origin.name]
        return OpenResult(stage, extend)

    # ------------------------------------------------------------------
    # File access interface
    # ------------------------------------------------------------------
    def handle_call(self, stage: Stage,
                    request: FileRead) -> Generator:
        """Return ``(size, IOBuffer)`` or ``None`` for a missing file."""
        self.lookups += 1
        yield Cycles(self.costs.fs_lookup + self.acct(1))
        size = self.documents.get(request.uri)
        if size is None:
            return None
        buf = self.cache.get(request.uri)
        if buf is not None and not buf.freed:
            self.cache_hits += 1
            yield Cycles(self.costs.fs_read_cached + self.acct(1))
            self._associate_with_path(stage, buf)
            return size, buf
        # Cache miss: read through SCSI into a fresh buffer.
        self.disk_reads += 1
        ok = yield from stage.call_forward(ScsiRead(size))
        if not ok:
            return None
        yield Cycles(self.costs.iobuf_alloc + self.acct(2))
        buf, cache_hit = self.kernel.iobufs.alloc(size, self.pd, self.pd)
        if cache_hit:
            yield Cycles(self.costs.iobuf_cached_alloc)
        buf.payload = request.uri
        # FS holds the cache reference; it owns the buffer.
        self.kernel.iobufs.lock(buf, self.pd)
        self.cache[request.uri] = buf
        self._associate_with_path(stage, buf)
        return size, buf

    def _associate_with_path(self, stage: Stage, buf) -> None:
        """Map the cached buffer into the path's domains, fully charging
        the path (second-owner association)."""
        path = stage.path
        if path in buf.locks:
            return  # already associated with this path
        try:
            self.kernel.iobufs.associate(
                buf, path, self.pd,
                read_pds=list(path.domains_crossed()))
        except EscortError:
            # Association is an optimization; serving continues (a copy
            # would be made in a real system).
            pass

    def destroy_stage(self, stage: Stage) -> None:
        pass
