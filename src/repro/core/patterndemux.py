"""A pattern-based demultiplexer (the PathFinder alternative).

The base Scout demux "trusts the demux functions contributed by each
module.  Although not yet implemented in Escort, alternative mechanisms —
e.g., pattern-based demultiplexers like PathFinder [2] — would be more
appropriate since they have more liberal trust assumptions" (paper section
2.3).  This module implements that alternative: modules *declare* patterns
— declarative field tests against the packet — and the kernel evaluates
them itself, so no module code runs at interrupt time.

A pattern is a conjunction of :class:`FieldTest` objects over dotted
attribute paths into the packet structure (e.g. ``payload.payload.dst_port``
for the TCP destination port of an Ethernet frame).  Patterns are kept in a
discrimination list per priority: most-specific (longest) patterns match
first, mirroring PathFinder's longest-prefix behaviour.  Guard predicates
allow dynamic policy checks (like the SYN_RCVD cap) without giving modules
interrupt-time code execution: the guard is installed *by the kernel from
the policy*, not contributed by an untrusted module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.demux import Classification, DROP, TO_PATH


_MISSING = object()


def _resolve(packet: Any, path: str) -> Any:
    """Walk a dotted attribute path; _MISSING when any hop is absent."""
    value = packet
    for part in path.split("."):
        value = getattr(value, part, _MISSING)
        if value is _MISSING:
            return _MISSING
    return value


@dataclass(frozen=True)
class FieldTest:
    """One declarative test: packet.<path> (& mask) == value."""

    path: str
    value: Any
    mask: Optional[int] = None

    def matches(self, packet: Any) -> bool:
        actual = _resolve(packet, self.path)
        if actual is _MISSING:
            return False
        if self.mask is not None:
            if not isinstance(actual, int):
                return False
            return (actual & self.mask) == self.value
        return actual == self.value


@dataclass
class Pattern:
    """A conjunction of field tests mapping a packet to a path."""

    tests: Tuple[FieldTest, ...]
    path_for: Callable[[Any], Any]   # packet -> Path (may read state)
    #: Optional kernel-installed guard; returning a string drops the
    #: packet with that reason (the SYN-cap check lives here).
    guard: Optional[Callable[[Any], Optional[str]]] = None
    label: str = ""

    @property
    def specificity(self) -> int:
        return len(self.tests)

    def matches(self, packet: Any) -> bool:
        return all(test.matches(packet) for test in self.tests)


class PatternDemultiplexer:
    """Evaluates declared patterns; no module code runs at interrupt time.

    Drop-in alternative to :class:`~repro.core.demux.Demultiplexer`: the
    same ``classify`` signature (the ``first_module`` argument is accepted
    and ignored — patterns are global), returning the same
    :class:`Classification` records so the ETH driver can charge costs
    identically.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._patterns: List[Pattern] = []
        self.evaluations = 0

    # ------------------------------------------------------------------
    def register(self, pattern: Pattern) -> Pattern:
        """Install a pattern; most-specific patterns are tried first."""
        self._patterns.append(pattern)
        self._patterns.sort(key=lambda p: -p.specificity)
        return pattern

    def declare(self, tests: Sequence[FieldTest], path_for,
                guard=None, label: str = "") -> Pattern:
        return self.register(Pattern(tuple(tests), path_for,
                                     guard=guard, label=label))

    def unregister(self, pattern: Pattern) -> None:
        try:
            self._patterns.remove(pattern)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self._patterns)

    # ------------------------------------------------------------------
    def classify(self, _first_module, packet: Any) -> Classification:
        """Match ``packet`` against the declared patterns.

        Cost accounting: one "module consulted" per pattern evaluated, so
        the cost model remains comparable with the trusting demux; the
        pattern walk never switches protection domains (that is the whole
        point), so ``domain_switches`` is always zero.
        """
        evaluated = 0
        for pattern in self._patterns:
            evaluated += 1
            if not pattern.matches(packet):
                continue
            if pattern.guard is not None:
                reason = pattern.guard(packet)
                if reason is not None:
                    self.evaluations += evaluated
                    return Classification(DROP, reason=reason,
                                          modules_consulted=evaluated)
            target = pattern.path_for(packet)
            if target is None or target.destroyed:
                continue  # stale binding: keep searching
            self.evaluations += evaluated
            return Classification(TO_PATH, path=target, view=packet,
                                  modules_consulted=evaluated)
        self.evaluations += evaluated
        return Classification(DROP, reason="no-pattern",
                              modules_consulted=max(1, evaluated))


# ----------------------------------------------------------------------
# Standard pattern sets for the web-server graph
# ----------------------------------------------------------------------
def install_webserver_patterns(pattern_demux: PatternDemultiplexer,
                               server) -> None:
    """Declare the patterns equivalent to the ETH/IP/TCP demux chain.

    * established connections: exact 4-tuple, resolved through the TCP
      module's connection table;
    * SYNs to a listening port: resolved through the listener's subnet
      map, guarded by the kernel-installed SYN_RCVD cap check;
    * ARP: everything with the ARP ethertype goes to the ARP path.
    """
    from repro.net.packet import (
        ETHERTYPE_ARP,
        ETHERTYPE_IP,
        FLAG_ACK,
        FLAG_SYN,
        IPPROTO_TCP,
    )
    tcp = server.tcp

    def conn_path(frame):
        dgram = frame.payload
        seg = dgram.payload
        return tcp.conn_table.get(
            (seg.dst_port, dgram.src_ip, seg.src_port))

    pattern_demux.declare(
        tests=[FieldTest("ethertype", ETHERTYPE_IP),
               FieldTest("payload.dst_ip", server.ip),
               FieldTest("payload.proto", IPPROTO_TCP)],
        path_for=conn_path,
        label="tcp-connection")

    def syn_path(frame):
        dgram = frame.payload
        seg = dgram.payload
        listener = tcp.listeners.get(seg.dst_port)
        if listener is None:
            return None
        return listener.select(dgram.src_ip)

    def syn_guard(frame):
        dgram = frame.payload
        seg = dgram.payload
        listener = tcp.listeners.get(seg.dst_port)
        if listener is None:
            return "no-listener"
        passive = listener.select(dgram.src_ip)
        if passive is None:
            return "no-subnet"
        cap = passive.policy_state.get("syn_cap")
        if cap is not None \
                and passive.policy_state.get("syn_recvd", 0) >= cap:
            return "syn-cap"
        return None

    pattern_demux.declare(
        tests=[FieldTest("ethertype", ETHERTYPE_IP),
               FieldTest("payload.dst_ip", server.ip),
               FieldTest("payload.proto", IPPROTO_TCP),
               FieldTest("payload.payload.flags", FLAG_SYN,
                         mask=FLAG_SYN | FLAG_ACK)],
        path_for=syn_path,
        guard=syn_guard,
        label="tcp-syn")

    pattern_demux.declare(
        tests=[FieldTest("ethertype", ETHERTYPE_ARP)],
        path_for=lambda frame: server.arp.arp_path,
        label="arp")
