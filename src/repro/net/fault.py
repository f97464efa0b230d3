"""Network fault injection.

Wraps any :class:`~repro.net.link.Medium` and perturbs traffic passing
through it: probabilistic drops, duplication, extra delay, reordering,
payload corruption, and whole-link flaps, all driven by a seeded RNG so
every failure sequence is reproducible.  Used by the failure-injection and
chaos tests to verify that the full server stack — demux, paths, the TCP
module, teardown — survives a misbehaving network, and that the accounting
invariants hold even when packets are lost, mangled, or arrive twice.

Interposition is symmetric:

* **Send side** (default): ``attach(nic)`` registers the NIC with the
  wrapped medium but points ``nic.medium`` at the injector, so everything
  the NIC *transmits* passes through the fault model before reaching the
  real medium.
* **Receive side** (opt-in): ``attach(nic, receive=True)`` additionally
  wraps ``nic.deliver`` so frames *arriving* at the NIC pass through the
  same fault model.  This is how receive-path faults (e.g. a flaky server
  NIC) are injected without touching the senders.

Counter contract: every frame presented to the injector is counted in
``offered`` and in exactly one of ``forwarded`` (it went through, possibly
late, duplicated, or corrupted) or ``dropped`` (it vanished), so
``forwarded + dropped == offered`` always holds.  ``duplicated``,
``delayed``, ``reordered``, and ``corrupted`` count the extra copies and
per-copy mutations on top.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.net.link import Medium, NIC
from repro.net.packet import EthFrame

#: Failsafe: a frame held for reordering is flushed after this many ticks
#: even if no follow-up frame arrives to overtake it (100 us).
REORDER_FLUSH_TICKS = 60_000


class FaultInjector(Medium):
    """A lossy/duplicating/delaying/reordering shim in front of a medium.

    Attach NICs to the injector instead of the medium; the injector
    forwards (or mangles) transmissions into the wrapped medium.
    """

    def __init__(self, sim, inner: Medium,
                 drop_probability: float = 0.0,
                 duplicate_probability: float = 0.0,
                 extra_delay_ticks: int = 0,
                 delay_probability: float = 0.0,
                 reorder_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 seed: int = 0):
        for p in (drop_probability, duplicate_probability,
                  delay_probability, reorder_probability,
                  corrupt_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if extra_delay_ticks < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.inner = inner
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.extra_delay_ticks = extra_delay_ticks
        self.delay_probability = delay_probability
        self.reorder_probability = reorder_probability
        self.corrupt_probability = corrupt_probability
        self.rng = random.Random(seed)

        self.offered = 0
        self.dropped = 0
        self.forwarded = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.corrupted = 0
        self.flap_drops = 0

        #: Link state: while False (a flap), every offered frame is dropped.
        self.link_up = True
        self.link_flaps = 0
        #: A copy held back for reordering, emitted after the next frame
        #: passes (or after the failsafe flush): (emit, frame).
        self._held: Optional[Tuple[Callable[[EthFrame], None], EthFrame]] = None

    # ------------------------------------------------------------------
    # Attachment (symmetric interposition)
    # ------------------------------------------------------------------
    def attach(self, nic: NIC, receive: bool = False) -> None:
        """Attach a NIC: its sends pass through the injector.

        With ``receive=True``, deliveries to the NIC are also interposed,
        so receive-side faults hit frames the wrapped medium (or another
        injector-free path) sends toward this NIC.

        Works with media that already bind their NIC at construction — a
        :class:`~repro.net.link.SwitchPort` binds exactly one NIC when the
        switch creates it — by skipping the inner re-attachment and only
        interposing.  Wrapping a switch port this way makes the injector a
        *per-port* medium: the port's ingress (NIC -> switch) rolls the
        fault model on the send side, and its egress (switch -> NIC) rolls
        it on the receive side, so one flapping port behaves exactly like
        one flapping cable while the rest of the switch stays clean.
        """
        if getattr(self.inner, "nic", None) is not nic:
            self.inner.attach(nic)
        nic.medium = self  # interpose on the send side
        if receive:
            self.interpose_receive(nic)

    def interpose_receive(self, nic: NIC) -> None:
        """Wrap ``nic.deliver`` so inbound frames roll the fault model."""
        inner_deliver = nic.deliver
        nic.deliver = lambda frame: self._process(frame, inner_deliver)

    # ------------------------------------------------------------------
    # Link flaps
    # ------------------------------------------------------------------
    def set_link(self, up: bool) -> None:
        """Bring the link up or down; while down, everything is dropped."""
        if up == self.link_up:
            return
        self.link_up = up
        if not up:
            self.link_flaps += 1

    # ------------------------------------------------------------------
    # The fault model
    # ------------------------------------------------------------------
    def transmit(self, frame: EthFrame, sender: NIC) -> None:
        """Forward ``frame``, possibly mangling it on the way."""
        self._process(frame,
                      lambda f, s=sender: self.inner.transmit(f, s))

    def _process(self, frame: EthFrame,
                 emit: Callable[[EthFrame], None]) -> None:
        """Run one frame through the fault model; ``emit`` outputs a copy."""
        self.offered += 1
        if not self.link_up:
            self.dropped += 1
            self.flap_drops += 1
            return
        if self.rng.random() < self.drop_probability:
            self.dropped += 1
            return
        self.forwarded += 1

        copies = 1
        if self.rng.random() < self.duplicate_probability:
            self.duplicated += 1
            copies = 2
        for _ in range(copies):
            out = frame
            if self.rng.random() < self.corrupt_probability:
                # Corrupt a private copy: duplicates of the same frame
                # share the payload object, so the damage must not leak
                # into the clean copies.
                out = EthFrame(frame.src_mac, frame.dst_mac,
                               frame.ethertype, frame.payload,
                               corrupted=True)
                self.corrupted += 1
            # Each copy rolls independently for delay — a duplicated frame
            # can arrive once on time and once late.
            if self.extra_delay_ticks and \
                    self.rng.random() < self.delay_probability:
                self.delayed += 1
                self.sim.schedule(
                    self.extra_delay_ticks,
                    lambda f=out, e=emit: self._emit(f, e))
            else:
                self._dispatch(out, emit)

    def _dispatch(self, frame: EthFrame,
                  emit: Callable[[EthFrame], None]) -> None:
        """Emit one copy now, honouring the reordering hold slot."""
        if self._held is None and \
                self.rng.random() < self.reorder_probability:
            # Hold this copy; it goes out right after the next frame,
            # which observably overtakes it.  The failsafe flush bounds
            # the hold when traffic stops.
            self.reordered += 1
            held = (emit, frame)
            self._held = held
            self.sim.schedule(REORDER_FLUSH_TICKS,
                              lambda h=held: self._flush_if_held(h))
            return
        self._emit(frame, emit)

    def _emit(self, frame: EthFrame,
              emit: Callable[[EthFrame], None]) -> None:
        emit(frame)
        if self._held is not None:
            held_emit, held_frame = self._held
            self._held = None
            held_emit(held_frame)

    def _flush_if_held(self, held) -> None:
        if self._held is held:
            self._held = None
            held[0](held[1])

    # ------------------------------------------------------------------
    def assert_contract(self) -> None:
        """Enforce the counter contract: every offered frame is counted in
        exactly one of ``forwarded`` / ``dropped``.

        Cheap (three integer reads), so callers — and :meth:`stats` —
        check it on every inspection; the chaos grammar composes reorder,
        corruption, duplication and flaps in ways the canned scenarios
        never did, and a frame double-counted (or lost track of) under
        such a combination must fail loudly, not skew a campaign verdict.
        """
        if self.forwarded + self.dropped != self.offered:
            raise AssertionError(
                f"FaultInjector counter contract violated: forwarded "
                f"{self.forwarded} + dropped {self.dropped} != offered "
                f"{self.offered}")

    def stats(self) -> dict:
        """Injection counters (for assertions and reports).

        Invariant: ``forwarded + dropped == offered`` (checked here).
        """
        self.assert_contract()
        return {"offered": self.offered,
                "dropped": self.dropped,
                "forwarded": self.forwarded,
                "duplicated": self.duplicated,
                "delayed": self.delayed,
                "reordered": self.reordered,
                "corrupted": self.corrupted,
                "flap_drops": self.flap_drops,
                "link_flaps": self.link_flaps}
