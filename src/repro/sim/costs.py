"""The calibrated cycle-cost model.

Every constant that stands in for "how long does this take on the paper's
300 MHz Alpha" lives here, with a derivation comment.  The calibration
targets come from the paper's evaluation:

* Figure 8 plateaus (64 clients, 1-byte documents): Scout ~800 conn/s,
  Accounting ~740 conn/s (-8 %), Accounting_PD ~180 conn/s (>4x slower),
  Linux/Apache ~400 conn/s.
* Figure 8, 10 KB documents: 50-60 % of the 1 KB connection rate at
  saturation; substantially slowed below ~16 clients by TCP congestion
  control (initial cwnd of 1 segment against delayed ACKs).
* Table 1: >92 % of non-idle cycles charged to the active path; the passive
  path a few percent; TCP master event and softclock ~0 %.
* Table 2: pathKill costs ~18 k cycles (Accounting), ~112 k (Accounting_PD,
  ~10 % of a 1-byte request), ~11 k for a Linux kill+waitpid.
* Figure 9: a 1000 SYN/s flood costs <5 % (Accounting) / <15 %
  (Accounting_PD) of best-effort throughput once the policy drops floods at
  demux time.
* Figure 10: a 1 MBps QoS stream costs best-effort traffic ~15 %
  (Accounting) / ~50 % (Accounting_PD).

All values are in server CPU cycles unless the name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.clock import millis_to_ticks, micros_to_ticks


@dataclass
class CostModel:
    """Cycle costs for kernel, module, and device operations."""

    # ------------------------------------------------------------------
    # Interrupt / demux path (charged before a thread runs)
    # ------------------------------------------------------------------
    #: Raw NIC interrupt: ack the device, pull the frame off the ring.
    eth_rx_interrupt: int = 3_000
    #: Demux work per module consulted (Scout's incremental demux).
    demux_per_module: int = 900
    #: Extra demux cost per module when protection domains are enabled —
    #: the paper attributes the Figure 9 gap to TLB misses during demux
    #: because each crossing invalidates the whole TLB (OSF1 PAL bug).
    demux_pd_penalty: int = 8_000
    #: Dropping a packet at demux time (the early-drop that makes the SYN
    #: policy cheap).
    demux_drop: int = 300

    # ------------------------------------------------------------------
    # Protection domain crossings
    # ------------------------------------------------------------------
    #: One hardware-enforced crossing: trap, stack switch, full TLB
    #: invalidate and the subsequent refill misses.  Calibrated so that the
    #: ~70 crossings of a 1-byte request add the >4x slowdown of Figure 8
    #: (each additional domain ~25 % of the single-domain request cost).
    pd_crossing: int = 38_000

    # ------------------------------------------------------------------
    # Accounting mechanism
    # ------------------------------------------------------------------
    #: Bookkeeping per accountable kernel operation (allocation, free,
    #: charge transfer, thread switch).  A 1-byte request performs ~27 such
    #: operations, so 1100 cycles each yields the paper's ~8 % overhead.
    accounting_op: int = 800

    # ------------------------------------------------------------------
    # Per-module packet processing (charged to the path's thread)
    # ------------------------------------------------------------------
    eth_rx: int = 3_000
    eth_tx: int = 4_500
    ip_rx: int = 4_500
    ip_tx: int = 5_000
    tcp_rx_segment: int = 14_000
    #: Processing a pure ACK (no payload, no SYN/FIN) is much cheaper.
    tcp_rx_ack: int = 7_000
    tcp_tx_segment: int = 18_000
    tcp_handshake_step: int = 12_000   # SYN / SYN-ACK / FIN extra work
    http_parse_request: int = 30_000
    http_build_response: int = 24_000
    #: Copying payload bytes between IOBuffers / the wire (cycles per byte).
    copy_per_byte_num: int = 7       # 20/1 cycles per byte => bulk data
    copy_per_byte_den: int = 1        # dominates large transfers

    # ------------------------------------------------------------------
    # File system / disk
    # ------------------------------------------------------------------
    fs_lookup: int = 8_000
    fs_read_cached: int = 7_000
    scsi_request: int = 8_000
    #: Rotational + seek latency for an uncached disk read.
    disk_latency_ticks: int = millis_to_ticks(8)
    disk_bytes_per_tick_num: int = 1  # 10 MB/s transfer rate
    disk_bytes_per_tick_den: int = 60

    # ------------------------------------------------------------------
    # Path lifecycle
    # ------------------------------------------------------------------
    path_create_kernel: int = 24_000
    module_open: int = 8_000          # per module visited by pathCreate
    module_destroy: int = 2_500       # per module, pathDestroy only
    path_teardown_kernel: int = 9_000

    # pathKill reclamation costs (Table 2): walking the Owner tracking
    # lists and freeing each object class.
    kill_base: int = 4_000
    kill_per_page: int = 350
    kill_per_thread: int = 4_000
    kill_per_stack: int = 1_200
    kill_per_iobuf: int = 650
    kill_per_event: int = 800
    kill_per_semaphore: int = 800
    kill_per_heap_alloc: int = 600
    #: Visiting one protection domain during pathKill: switch in, unmap the
    #: path's stacks/IOBuffers, tear down the IPC crossing state.
    kill_per_domain: int = 13_600

    # ------------------------------------------------------------------
    # Threads, events, timers
    # ------------------------------------------------------------------
    thread_spawn: int = 2_000
    thread_switch: int = 900
    thread_handoff: int = 1_500
    semaphore_op: int = 250
    event_schedule: int = 350
    #: Softclock tick work (increment timer, scan the wheel) — charged to
    #: the kernel, every millisecond.
    softclock_tick: int = 400
    softclock_period_ticks: int = millis_to_ticks(1)
    #: TCP master event: periodic scan for connection timeouts, charged to
    #: the protection domain containing TCP (Table 1).
    tcp_master_event: int = 1_200
    tcp_master_period_ticks: int = millis_to_ticks(200)
    #: Per-connection timeout processing, charged to the connection's path.
    tcp_timeout_per_conn: int = 300

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    page_alloc: int = 900
    page_free: int = 500
    heap_alloc: int = 300
    heap_free: int = 200
    iobuf_alloc: int = 1_100
    iobuf_cached_alloc: int = 350     # reuse from the buffer cache
    iobuf_lock: int = 450
    iobuf_unlock: int = 350
    iobuf_map_per_domain: int = 800   # mapping changes when PDs are on

    # ------------------------------------------------------------------
    # Linux / Apache baseline (monolithic kernel, process per connection)
    # ------------------------------------------------------------------
    linux_per_request: int = 610_000
    linux_per_data_segment: int = 52_000
    linux_kill_process: int = 11_000  # Table 2: kill + waitpid
    linux_syn_cost: int = 9_000       # no early demux: full stack per SYN

    # ------------------------------------------------------------------
    # Client hosts (200 MHz PentiumPro running Linux)
    # ------------------------------------------------------------------
    #: Per-request client-side latency outside the measurement window —
    #: process wakeup, socket setup, user-level HTTP client work.  Sets the
    #: Figure 8 knee: ~10 ms serial latency saturates a 800 conn/s server
    #: at ~8 clients.
    client_request_overhead_ticks: int = millis_to_ticks(7)
    #: Client-side turnaround for responding to a packet (ACKs, the GET).
    client_turnaround_ticks: int = micros_to_ticks(120)
    #: Delayed-ACK timer on the client TCP (paper-era Linux).  This is what
    #: slows the 10 KB document below ~16 clients: the first data flight is
    #: one segment (cwnd=1) and sits on the delayed-ACK timer.
    client_delayed_ack_ticks: int = millis_to_ticks(30)

    # ------------------------------------------------------------------
    # Network elements
    # ------------------------------------------------------------------
    link_latency_ticks: int = micros_to_ticks(30)    # cable + PHY
    switch_latency_ticks: int = micros_to_ticks(40)  # store-and-forward
    hub_latency_ticks: int = micros_to_ticks(10)

    #: Free-form overrides recorded by calibration runs.
    notes: Dict[str, str] = field(default_factory=dict)

    def copy_cost(self, nbytes: int) -> int:
        """Cycles to copy ``nbytes`` of payload."""
        return (nbytes * self.copy_per_byte_num) // self.copy_per_byte_den

    def disk_transfer_ticks(self, nbytes: int) -> int:
        """Ticks to transfer ``nbytes`` from the simulated disk."""
        return (nbytes * self.disk_bytes_per_tick_den) // self.disk_bytes_per_tick_num

    @classmethod
    def default(cls) -> "CostModel":
        """The calibrated model used by all experiments."""
        return cls()
