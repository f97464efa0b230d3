"""The virtual CPU.

This module models the server's 300 MHz Alpha: a single processor that
executes *non-preemptive* threads (paper section 3.2) and charges every cycle
it consumes — thread execution, interrupt handling, and idle time alike — to
an *owner*.  Escort's central claim (Table 1 of the paper) is that this
charging covers virtually 100 % of measured cycles; here it covers exactly
100 % by construction, and the experiment harness verifies it by comparing
ledger sums against the wall clock.

Thread bodies are Python generators that yield *instructions*:

``Cycles(n, owner=None)``
    Consume ``n`` CPU cycles, charged to ``owner`` (default: the thread's
    owner).  The explicit-owner form models the paper's softclock/TCP-master
    split, where one thread does work on behalf of several principals.
``Block(waitable)``
    Block until the waitable wakes the thread; the value passed to the wake
    call becomes the result of the ``yield``.
``Sleep(ticks)``
    Block for a fixed amount of simulated time.
``YieldCPU()``
    Voluntarily yield the processor (resets the runaway burst counter).

Interrupts model device/timer activity: they preempt the current thread's
cycle consumption (hardware interrupts are exempt from the non-preemption
rule), consume their own cycles charged to their own owners, then let the
thread resume.  This is what lets a 1000 SYN/s attack steal cycles from best
effort paths in Figure 9 even though threads are non-preemptive.

Runaway detection: each owner may carry a ``runtime_limit_cycles`` (the
paper's "maximum thread runtime without yields", 2 ms in the CGI experiment).
The CPU stops a consuming thread exactly at the limit and invokes the
``on_runaway`` hook, which the kernel wires to its kill policy.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Tuple

from repro.sim.engine import Simulator


class ThreadKilled(Exception):
    """Raised inside a thread generator when its owner is destroyed."""


# ----------------------------------------------------------------------
# Instructions yielded by thread bodies
# ----------------------------------------------------------------------
class Cycles:
    """Consume ``n`` cycles, charged to ``owner`` (default thread owner)."""

    __slots__ = ("n", "owner")

    def __init__(self, n: int, owner=None):
        if n < 0:
            raise ValueError(f"negative cycle count: {n}")
        self.n = n
        self.owner = owner


class Block:
    """Block on a waitable (any object with ``add_waiter(thread)``)."""

    __slots__ = ("waitable",)

    def __init__(self, waitable):
        self.waitable = waitable


class Sleep:
    """Block for ``ticks`` simulated ticks."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int):
        if ticks < 0:
            raise ValueError(f"negative sleep: {ticks}")
        self.ticks = ticks


class YieldCPU:
    """Voluntarily yield the CPU; resets the runaway burst counter."""

    __slots__ = ()


class Interrupt:
    """A device/timer interrupt.

    ``charges`` is a list of ``(owner, cycles)`` pairs consumed while
    handling the interrupt (e.g. the paper charges raw softclock ticks to the
    kernel but per-connection timeout work to the connection's path).
    ``on_complete`` runs after the cycles have been consumed; it typically
    enqueues data and wakes threads.
    """

    __slots__ = ("charges", "on_complete", "label")

    def __init__(self, charges: List[Tuple[object, int]],
                 on_complete: Optional[Callable[[], None]] = None,
                 label: str = ""):
        self.charges = charges
        self.on_complete = on_complete
        self.label = label

    def total_cycles(self) -> int:
        return sum(c for _, c in self.charges)


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
_RUNNABLE = "runnable"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"
_DEAD = "dead"
_NEW = "new"


class SimThread:
    """A simulated thread: a generator plus an owner to charge.

    ``owner`` is duck-typed; it must provide ``charge_cycles(n)`` and may
    provide ``runtime_limit_cycles`` (``None`` = unlimited) and ``name``.
    """

    # "escort" is the kernel's backref slot (kernel.attach_thread assigns
    # it from outside); declared here because __slots__ forbids ad-hoc
    # attributes.
    __slots__ = ("tid", "body", "owner", "name", "state", "burst_cycles",
                 "_wake_value", "_exit_callbacks", "escort")

    _next_id = 1

    def __init__(self, body: Generator, owner, name: str = ""):
        self.tid = SimThread._next_id
        SimThread._next_id += 1
        self.body = body
        self.owner = owner
        self.name = name or f"thread-{self.tid}"
        self.state = _NEW
        self.burst_cycles = 0  # consumed since last yield/block
        self._wake_value = None
        self._exit_callbacks: List[Callable[["SimThread"], None]] = []
        self.escort = None

    def on_exit(self, fn: Callable[["SimThread"], None]) -> None:
        """Register ``fn`` to run when the thread finishes or is killed."""
        self._exit_callbacks.append(fn)

    @property
    def alive(self) -> bool:
        return self.state not in (_DONE, _DEAD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimThread {self.name} {self.state}>"


# ----------------------------------------------------------------------
# The CPU
# ----------------------------------------------------------------------
class CPU:
    """Single simulated processor with exact per-owner cycle accounting.

    Parameters
    ----------
    sim:
        The shared simulator (clock + event queue).
    ticks_per_cycle:
        Clock conversion; 2 for the 300 MHz server on the 600 MHz tick.
    scheduler:
        Object with ``enqueue/dequeue/pick/on_charge``; the kernel passes
        its :class:`~repro.kernel.sched.ProportionalShareScheduler`.
    idle_owner:
        Owner charged for cycles during which nothing is runnable.
    """

    def __init__(self, sim: Simulator, ticks_per_cycle: int,
                 scheduler, idle_owner=None):
        self.sim = sim
        self.tpc = ticks_per_cycle
        self.scheduler = scheduler
        self.idle_owner = idle_owner
        self.on_runaway: Optional[Callable[[SimThread], None]] = None
        #: Fault containment hook: when set, an exception escaping a thread
        #: body is delivered here instead of unwinding into the event loop.
        #: The thread is finished (exit callbacks run) before the hook sees
        #: it, so the hook may reclaim the thread's owner safely.
        self.on_thread_fault: Optional[
            Callable[[SimThread, BaseException], None]] = None
        #: Exception classes the containment hook absorbs.  Whoever installs
        #: ``on_thread_fault`` (the kernel's ``enable_fault_containment``)
        #: names the *simulated* fault family here; anything outside it —
        #: a TypeError from a harness bug, say — is recorded in
        #: ``escaped_faults`` and re-raised so campaign runs cannot
        #: silently swallow an invariant-relevant crash as a path fault.
        self.containable_exceptions: Tuple[type, ...] = ()
        #: ``(thread_name, repr(exc))`` pairs for exceptions that escaped
        #: containment (see above); surfaced by the resilience oracle.
        self.escaped_faults: List[Tuple[str, str]] = []
        self.charge_listeners: List[Callable[[object, int], None]] = []

        self.current: Optional[SimThread] = None
        self._completion_event = None
        # In-flight consume chunk:
        # (thread, charge_owner, total, start_tick, trap, requested).
        # At most one chunk is in flight, so its completion callback is the
        # pre-bound method below reading this tuple — no per-chunk closure.
        self._chunk: Optional[
            Tuple[SimThread, object, int, int, bool, int]] = None
        self._chunk_done_cb = self._chunk_done
        # The interrupt whose cycle-consumption event is in flight (at most
        # one: the service loop is strictly sequential); same pattern.
        self._intr: Optional[Interrupt] = None
        self._intr_done_cb = self._intr_done
        # First tick at which the pipeline is free again.  Interrupts can
        # arrive at arbitrary ticks; charging stays exact because all cycle
        # consumption is aligned to cycle boundaries from this watermark.
        self._free_at = 0
        self._pending_interrupts: Deque[Interrupt] = deque()
        self._in_interrupt = False
        # Thread preempted mid-consume by an interrupt, to resume after.
        self._resume: Optional[Tuple[SimThread, object, int]] = None
        self._idle_since: Optional[int] = sim.now

        self.busy_cycles = 0
        self.idle_cycles = 0
        self.interrupt_cycles = 0
        #: Successful scheduler dispatches (observability counter only;
        #: never part of the state digest).
        self.picks = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def _charge(self, owner, cycles: int) -> None:
        if cycles <= 0:
            return
        if owner is not None:
            owner.charge_cycles(cycles)
        for fn in self.charge_listeners:
            fn(owner, cycles)

    def _leave_idle(self) -> None:
        """Account idle time ending now."""
        if self._idle_since is None:
            return
        since = self._idle_since
        self._idle_since = None
        elapsed = self.sim.now - since
        if elapsed > 0:
            cycles = elapsed // self.tpc
            self.idle_cycles += cycles
            self._charge(self.idle_owner, cycles)
            end = since + cycles * self.tpc
            if end > self._free_at:
                self._free_at = end

    def _enter_idle(self) -> None:
        if self._idle_since is None:
            now = self.sim.now
            free_at = self._free_at
            self._idle_since = free_at if free_at > now else now

    def finalize_idle(self) -> None:
        """Flush the idle accumulator (call at the end of a measurement)."""
        if self._idle_since is not None:
            self._leave_idle()
            self._enter_idle()

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn(self, body: Generator, owner, name: str = "") -> SimThread:
        """Create a thread and make it runnable."""
        t = SimThread(body, owner, name=name)
        self.make_runnable(t)
        return t

    def make_runnable(self, thread: SimThread, value=None) -> None:
        """Put a new or blocked thread on the run queue."""
        if not thread.alive:
            return
        if thread.state in (_RUNNABLE, _RUNNING):
            return
        thread._wake_value = value
        thread.state = _RUNNABLE
        self.scheduler.enqueue(thread)
        self._maybe_dispatch()

    def kill_thread(self, thread: SimThread) -> None:
        """Destroy a thread immediately (the only preemption Escort allows).

        The generator is closed, so ``finally`` blocks inside the thread body
        run — but module destructors are a kernel-level concept and are *not*
        invoked here; that distinction is what separates ``pathDestroy`` from
        ``pathKill``.
        """
        if not thread.alive:
            return
        was_current = thread is self.current
        thread.state = _DEAD
        self.scheduler.dequeue(thread)
        if was_current:
            self.current = None
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
                self._chunk = None
        if self._resume is not None and self._resume[0] is thread:
            self._resume = None
        try:
            thread.body.close()
        except RuntimeError:
            # Closing a generator that is currently executing (kill from a
            # hook invoked at an instruction boundary) — the frame is
            # abandoned instead.
            pass
        for fn in thread._exit_callbacks:
            fn(thread)
        self._sever_thread(thread)
        if was_current:
            self._maybe_dispatch()

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------
    def post_interrupt(self, interrupt: Interrupt) -> None:
        """Deliver an interrupt; preempts the current consume chunk."""
        self._pending_interrupts.append(interrupt)
        if self._in_interrupt:
            return  # drained by the in-progress service loop
        if self.current is not None and self._chunk is not None:
            self._preempt_current()
        else:
            self._leave_idle()
        self._service_interrupts()

    def _preempt_current(self) -> None:
        thread, owner, total, start, _trap, _req = self._chunk  # type: ignore[misc]
        self._completion_event.cancel()
        self._completion_event = None
        self._chunk = None
        elapsed = self.sim.now - start
        if elapsed < 0:
            elapsed = 0
        consumed = min(total, -(-elapsed // self.tpc))  # ceil div
        self._charge(owner, consumed)
        self.busy_cycles += consumed
        self.scheduler.on_charge(thread, consumed)
        thread.burst_cycles += consumed
        # The partial cycle the interrupt landed in still belongs to the
        # thread; the interrupt starts at the next cycle boundary.  The
        # rest of the chunk's reservation is released (assignment, not
        # max: _start_chunk reserved through the whole chunk).
        self._free_at = start + consumed * self.tpc
        remaining = total - consumed
        self._resume = (thread, owner, remaining)
        self.current = None

    def _service_interrupts(self) -> None:
        if not self._pending_interrupts:
            self._finish_interrupts()
            return
        self._in_interrupt = True
        intr = self._pending_interrupts.popleft()
        cost = intr.total_cycles()
        self._intr = intr
        if cost > 0:
            now = self.sim.now
            base = self._free_at
            if now > base:
                base = now
            self._free_at = base + cost * self.tpc
            self.sim.at(self._free_at, self._intr_done_cb)
        else:
            self._intr_done()

    def _intr_done(self) -> None:
        """Charge the serviced interrupt and continue draining the queue."""
        intr = self._intr
        self._intr = None
        for owner, cycles in intr.charges:
            self._charge(owner, cycles)
            self.interrupt_cycles += cycles
        if intr.on_complete is not None:
            intr.on_complete()
        self._service_interrupts()

    def _finish_interrupts(self) -> None:
        self._in_interrupt = False
        if self._resume is not None:
            thread, owner, remaining = self._resume
            self._resume = None
            if thread.alive:
                self.current = thread
                thread.state = _RUNNING
                self._start_chunk(thread, owner, remaining)
                return
        self._maybe_dispatch()

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _maybe_dispatch(self) -> None:
        if self.current is not None or self._in_interrupt:
            return
        thread = self.scheduler.pick()
        if thread is None:
            self._enter_idle()
            return
        self.picks += 1
        self._leave_idle()
        self.current = thread
        thread.state = _RUNNING
        self._advance(thread, thread._wake_value)

    def _advance(self, thread: SimThread, value) -> None:
        """Drive the thread generator until it consumes time or blocks."""
        while True:
            try:
                if thread.state == _DEAD:
                    return
                instr = thread.body.send(value)
            except StopIteration:
                self._thread_done(thread)
                return
            except Exception as exc:
                if self.on_thread_fault is None:
                    raise
                if not isinstance(exc, self.containable_exceptions or
                                  Exception):
                    # Not a simulated fault: record it so post-mortems see
                    # what happened, then let it unwind into the event loop
                    # — a harness bug must fail the run, not kill a path.
                    self.escaped_faults.append((thread.name, repr(exc)))
                    raise
                self._thread_faulted(thread, exc)
                return
            value = None

            if isinstance(instr, Cycles):
                owner = instr.owner if instr.owner is not None else thread.owner
                if instr.n == 0:
                    continue
                self._start_chunk(thread, owner, instr.n)
                return
            if isinstance(instr, Block):
                thread.state = _BLOCKED
                thread.burst_cycles = 0
                self.current = None
                instr.waitable.add_waiter(thread)
                self._maybe_dispatch()
                return
            if isinstance(instr, Sleep):
                thread.state = _BLOCKED
                thread.burst_cycles = 0
                self.current = None
                self.sim.schedule(instr.ticks,
                                  lambda t=thread: self.make_runnable(t))
                self._maybe_dispatch()
                return
            if isinstance(instr, YieldCPU):
                thread.state = _RUNNABLE
                thread.burst_cycles = 0
                thread._wake_value = None
                self.current = None
                self.scheduler.enqueue(thread)
                self._maybe_dispatch()
                return
            raise TypeError(f"thread {thread.name} yielded {instr!r}")

    def _start_chunk(self, thread: SimThread, owner, n: int) -> None:
        """Begin consuming ``n`` cycles, splitting at the runaway limit."""
        requested = n
        limit = getattr(thread.owner, "runtime_limit_cycles", None)
        trap = False
        if limit is not None:
            allowance = limit - thread.burst_cycles
            if allowance <= 0:
                self._runaway(thread, owner, requested)
                return
            if n > allowance:
                n = allowance
                trap = True
        start = self.sim.now
        if self._free_at > start:
            start = self._free_at
        end = start + n * self.tpc
        self._chunk = (thread, owner, n, start, trap, requested)
        self._free_at = end
        self._completion_event = self.sim.at(end, self._chunk_done_cb)

    def _chunk_done(self) -> None:
        """The in-flight consume chunk ran to completion (not preempted)."""
        thread, owner, n, _start, trap, requested = self._chunk
        self._completion_event = None
        self._chunk = None
        self._charge(owner, n)
        self.busy_cycles += n
        self.scheduler.on_charge(thread, n)
        thread.burst_cycles += n
        if trap:
            self._runaway(thread, owner, requested - n)
            return
        self._advance(thread, None)

    def _runaway(self, thread: SimThread, owner, remaining: int) -> None:
        """The thread exhausted its owner's runtime allowance.

        ``remaining`` is the unfinished portion of the instruction that hit
        the limit; if the policy spares the thread, it resumes consuming
        that remainder with a fresh allowance.
        """
        hook = self.on_runaway
        if hook is not None:
            hook(thread)
        if thread.alive:
            thread.burst_cycles = 0
            if thread is self.current:
                if remaining > 0:
                    self._start_chunk(thread, owner, remaining)
                else:
                    self._advance(thread, None)
            return
        # kill_thread already re-dispatched.

    def _thread_done(self, thread: SimThread) -> None:
        thread.state = _DONE
        self.current = None
        for fn in thread._exit_callbacks:
            fn(thread)
        self._sever_thread(thread)
        self._maybe_dispatch()

    def _thread_faulted(self, thread: SimThread, exc: BaseException) -> None:
        """An exception escaped the thread body: finish the thread, then
        let the containment hook decide what happens to its owner."""
        thread.state = _DONE
        self.current = None
        for fn in thread._exit_callbacks:
            fn(thread)
        self.on_thread_fault(thread, exc)
        self._sever_thread(thread)
        self._maybe_dispatch()

    @staticmethod
    def _sever_thread(thread: SimThread) -> None:
        """Break the exited thread's reference cycles.

        Every spawned thread carries a SimThread <-> EscortThread 2-cycle
        (the kernel's ``escort`` backref plus the escort's exit callback),
        which refcounting cannot reclaim.  Busy runs retire tens of
        thousands of threads, so left alone these islands become cyclic-GC
        pressure on the event hot path.  The callbacks have all run by the
        time this is called, and ``escort`` is a kernel-lookup convenience
        with no post-exit readers.
        """
        thread._exit_callbacks = []
        thread.escort = None
