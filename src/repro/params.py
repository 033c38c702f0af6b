"""Calibrated cost model for the simulated cluster.

The paper's evaluation ran on real hardware (dual quad-core Xeons, 10 GigE,
one 7200 rpm SATA disk per metadata server, Berkeley DB over ext3).  The
reproduction replaces that testbed with a discrete-event model whose
first-order costs are collected here.  Absolute values are calibrated so the
*relative* results of the paper hold (see DESIGN.md §4, "Calibration notes");
every experiment reports ratios, not raw seconds.

All times are in seconds, all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class SimParams:
    """Tunable costs and policies of the simulated cluster."""

    # ------------------------------------------------------------------ net
    #: One-way network latency for a message (switch + kernel + RPC stack).
    #: 10 GigE with a userspace RPC stack lands in the ~0.1 ms range.
    net_latency: float = 150e-6
    #: Transfer time per payload byte (10 Gb/s ~= 1.25 GB/s -> 0.8 ns/B).
    net_byte_time: float = 0.8e-9

    # ------------------------------------------------------------------ cpu
    #: CPU time to execute one metadata sub-operation (hash lookups,
    #: permission checks, in-memory mutation).
    cpu_subop: float = 30e-6
    #: CPU time to serve a read-only operation (stat/lookup) from cache.
    cpu_readonly: float = 50e-6
    #: Per-request dispatch overhead on a server (unmarshal + queue).
    cpu_dispatch: float = 5e-6
    #: Client-side per-operation overhead (marshalling, VFS glue).
    cpu_client_op: float = 10e-6

    # ----------------------------------------------------------------- disk
    #: Average positioning cost for a random access (seek + half rotation
    #: of a 7200 rpm disk is ~12 ms; metadata writes hit a mostly-warm
    #: region and BDB's own layout keeps locality, so the *effective*
    #: random-write positioning cost is far smaller).
    disk_seek: float = 80e-6
    #: Positioning cost when the access is adjacent to the disk head
    #: (sequential append, track-to-track settle).
    disk_settle: float = 50e-6
    #: Transfer time per byte (~80 MB/s sustained).
    disk_byte_time: float = 1.0 / 80e6
    #: Two extents closer than this on disk are merged into one request
    #: by the IO scheduler (models the kernel elevator's merge window).
    disk_merge_gap: int = 16 * 1024

    # ------------------------------------------------------------- kv store
    #: On-disk footprint of one metadata object (BDB row + btree overhead).
    kv_record_size: int = 512
    #: CPU cost of a KV put/get (BDB btree walk).
    kv_cpu: float = 8e-6

    # ----------------------------------------------------------------- log
    #: Size of one Cx log record (Result/Commit/Abort/Complete).
    log_record_size: int = 128
    #: Upper limit of the log file (paper default: 1 MB per server).
    log_capacity: Optional[int] = 1 * 1024 * 1024

    # ------------------------------------------------------------- messages
    #: Baseline wire size of a protocol message (headers + credential).
    msg_base_size: int = 200
    #: Extra wire bytes per operation carried in a batched commitment
    #: message (op id + record payload).
    msg_per_op_size: int = 64

    # --------------------------------------------------------------- commit
    #: Timeout trigger period for lazy commitments (paper default: 10 s).
    commit_timeout: Optional[float] = 10.0
    #: Threshold trigger: launch a batched commitment once this many
    #: operations are pending (None disables the threshold trigger).
    commit_threshold: Optional[int] = None

    # ------------------------------------------------------------- liveness
    #: Cx clients resend an un-answered request (and a pending L-COM)
    #: once no response came for this many seconds; the server-side
    #: duplicate tables keep execution exactly-once.  A deadline in the
    #: client node's table, so an answered op pays for no timer event.
    client_retry_timeout: float = 1.0
    #: Participant-side vote-retry timer: a part-role operation still
    #: undecided after this many seconds re-solicits its coordinator
    #: (RESOLICIT), and a vote deferred this long for an op that never
    #: arrives is answered with a lost-vote abort.  Scanned by the
    #: commit-trigger timer, whose period it is when ``commit_timeout``
    #: is None, so fault-free replays schedule no extra events.
    vote_retry_timeout: float = 30.0
    #: Re-solicit backoff cap, as a multiple of ``vote_retry_timeout``
    #: (the interval doubles per retry up to this bound).
    vote_retry_backoff_cap: float = 8.0
    #: Coordinator-side commitment-RPC bound: a VOTE / COMMIT-REQ whose
    #: reply is overdue by this many seconds is abandoned as a
    #: connection failure (undecided ops re-enter the lazy queue,
    #: decided ops park for re-delivery).  A deadline in the server
    #: node's table.
    commit_rpc_timeout: float = 1.0

    # ------------------------------------------------------------- recovery
    #: Attempts for each recovery RPC (RECOVERY-BEGIN/END, decision
    #: re-delivery) before the peer is skipped or the op is parked.
    recovery_rpc_retries: int = 3
    #: Per-attempt reply timeout for recovery RPCs (partition-dropped
    #: messages hang forever without one).
    recovery_rpc_timeout: float = 1.0

    # ------------------------------------------------------------- recovery
    #: Fixed reboot cost before log scanning starts (process restart,
    #: BDB environment recovery, re-registration with peers).
    recovery_reboot_cost: float = 1.0
    #: CPU cost to parse one log record during the recovery scan.
    recovery_record_cpu: float = 25e-6
    #: Max operations per commitment batch during recovery resumption.
    recovery_commit_batch: int = 256

    # ------------------------------------------------------------ placement
    #: Number of metadata servers (overridden by the cluster builder).
    num_servers: int = 8

    def derived_copy(self, **overrides) -> "SimParams":
        """A copy with the given fields replaced (convenience wrapper)."""
        return replace(self, **overrides)


#: Default parameters used across tests and experiments.
DEFAULT_PARAMS = SimParams()
