"""Cx recovery protocol (paper §III.D / §V).

"The recovery process for node starts when the failure detection
subsystem confirms a crash on any node.  After a crashed server
reboots, it informs all other collaborating servers to go into the
recovery state ... In the recovery process, the whole file system stops
responding new requests.  The main idea of our recovery protocol is to
resume all half-completed commitments of cross-server operations left
in the log file on a server before it crashed."

Recovery is not a second protocol: it classifies what the log holds
and hands every operation back to the live commitment
(:class:`~repro.core.coordinator.CommitManager`) at the step its
records prove it had reached.

===========  =====================  ==================  =====================
role         log state found        step re-entered     shared code finishing
===========  =====================  ==================  =====================
any          Complete               done                (prune)
coordinator  Commit/Abort,          5–6 deliver the     ``adopt_decided`` →
             no Complete            logged decision     ``finish_parked`` →
                                                        ``_settle``
coordinator  Result only            3 vote              ``launch_ops`` →
                                                        ``_commit_batch``
participant  Commit/Abort           done (terminal)     (reconcile, prune)
participant  Result only            4 awaits its VOTE   ``handle_vote`` /
                                                        ``handle_decide``
===========  =====================  ==================  =====================

What stays here is recovery's own: the RECOVERY-BEGIN/END fan-out, the
log scan, redo of undecided updates and the *reconcile* step — the
orphan scan.  A crash inside the commitment window can leave the
decision durable in the log while the namespace shard misses (or
wrongly keeps) the operation's objects — exactly the orphan inodes /
dangling entries the consistency oracle flags.  Reconciliation
re-links keys that should exist and reclaims keys that should not, but
never rewrites a key that exists with a *different* value (shared
parent-stub counters may legitimately have moved on).

A peer that stays unreachable never wedges the pass: a BEGIN it cannot
take is skipped, an END it cannot take and a decision it cannot take
stay owed to the trigger scan, a vote it cannot cast leaves the op in
the lazy queue.

The role is determined from the Result-Record itself ("From the
Result-Record of an operation, the rebooted server can determine
whether it is the coordinator").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.analysis.consistency import classify_namespace
from repro.core.active import conflict_keys
from repro.core.records import PendingOp, log_state
from repro.fs.namespace import ExecResult
from repro.fs.objects import DirEntry, Inode
from repro.net.message import MessageKind
from repro.storage.wal import LogRecord, OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.role import CxRole


class CxRecovery:
    """Log-driven recovery for one rebooted Cx server."""

    def __init__(self, role: "CxRole") -> None:
        self.role = role
        self.recoveries = 0
        self.last_resumed_ops = 0
        metrics = role.server.metrics
        self._m_reclaimed = metrics.counter("recovery.orphans_reclaimed")
        self._m_relinked = metrics.counter("recovery.relinked")
        self._m_suspect = metrics.counter("recovery.orphans_suspect")
        #: Peers that missed our last RECOVERY-END.
        self.end_owed: List = []
        #: Inside :meth:`run` (a peer's late END must not unquiesce us).
        self.running = False

    def _fan_out(self, peers, kind: MessageKind) -> Generator:
        """Deliver a recovery marker to every peer concurrently, each
        with bounded retries; returns the peers that never took it."""
        role = self.role
        missed: List = []

        def one(peer):
            try:
                yield from role.commit_mgr.rpc(
                    peer.node_id, kind, {},
                    timeout=role.params.recovery_rpc_timeout,
                    attempts=max(1, role.params.recovery_rpc_retries),
                )
            except ConnectionError:
                missed.append(peer)  # rpc counted it (commit.rpc_failed)

        procs = [role.server.spawn(one(p)) for p in peers]
        if procs:
            yield role.sim.all_of(procs)
        return missed

    def send_end(self, peers) -> Generator:
        """RECOVERY-END to ``peers``.  The ones it misses stay owed to
        the trigger scan: a partitioned peer stays quiesced on our
        account until it takes one."""
        self.end_owed = yield from self._fan_out(peers, MessageKind.RECOVERY_END)

    # -- the recovery pass --------------------------------------------------

    def run(self) -> Generator:
        """One pass.  A second crash kills it wherever it stands:
        everything it rebuilt dies with the server, and the next
        reboot's pass re-derives it all from the (durable) log."""
        role = self.role
        server = role.server
        sim = role.sim
        self.recoveries += 1

        # 1. Tell every collaborating server to enter the recovery
        #    state; the whole file system stops serving new requests.
        peers = [
            s for s in role.cluster.servers if s.index != server.index
        ]
        server.quiesce()
        self.running = True
        yield from self._fan_out(peers, MessageKind.RECOVERY_BEGIN)

        # 2. Reboot overhead, then sequentially scan the on-disk log.
        yield sim.timeout(role.params.recovery_reboot_cost)
        yield sim.timeout(server.wal.scan_cost())

        # 3. Classify every operation left in the log and rebuild its
        #    pending entry at the step the records prove.
        resumed: List[PendingOp] = []
        disk_events: List = []
        for op_id in list(server.wal.ops_in_log()):
            result_rec, decided, complete = log_state(server.wal.records_of(op_id))
            if complete or result_rec is None:
                # Fully done, or only invalidated/decision records left:
                # nothing to resume.
                server.wal.prune_op(op_id)
                continue
            is_coord = result_rec.payload.subop.role in ("coord", "single")
            if decided is None:
                # Result only: redo the update and wait for (part) or
                # re-launch (coord) the commitment.
                pend, ev = self._redo(result_rec)
                if is_coord:
                    resumed.append(pend)
            else:
                # The decided objects may still have been volatile at
                # the crash: reconcile the shard against the decision.
                ev = self._reconcile_decided(op_id, result_rec.payload.result, decided)
                if is_coord:
                    # The participant may not have heard: the decision
                    # must be re-delivered before the records can go.
                    role.commit_mgr.adopt_decided(
                        self._restore(result_rec), decided
                    )
                else:
                    server.wal.prune_op(op_id)  # terminal for the participant
            if ev is not None:
                disk_events.append(ev)

        # (The crash emptied the parked table: it now holds exactly the
        # decided ops adopted above.)
        self.last_resumed_ops = len(resumed) + len(role.commit_mgr.parked)

        # Redo and fix-up writes go to the store conservatively (one
        # transaction per operation): the paper's recovery "submit[s]
        # metadata objects to BDB", which is what dominates
        # large-footprint recoveries (Table V).
        if disk_events:
            yield sim.all_of(disk_events)

        # 4. Finish half-decided commitments: one batched COMMIT-REQ
        #    per participant, then the live settle tail.  What an
        #    unreachable peer leaves parked is the trigger scan's job
        #    once the file system has resumed; the records stay in the
        #    log, so a second crash here re-derives it.
        yield from role.commit_mgr.finish_parked()

        # 5. Commit everything that was still pending, in bounded
        #    batches (a crash with a huge valid-record footprint must
        #    not turn into one unbounded commitment burst).  Each batch
        #    wait is bounded: a participant that is itself crashed or
        #    partitioned must not wedge our recovery — its ops stay
        #    pending and the post-recovery triggers retry them.
        chunk_size = max(1, role.params.recovery_commit_batch)
        chunk_bound = (
            role.params.recovery_rpc_timeout
            * max(1, role.params.recovery_rpc_retries)
            + role.params.recovery_rpc_timeout
        )
        for start in range(0, len(resumed), chunk_size):
            chunk = resumed[start:start + chunk_size]
            done_events = []
            for pend in chunk:
                pend.waiter = ev = sim.event()
                done_events.append(ev)
            role.commit_mgr.launch_ops(chunk, "recovery")
            yield sim.any_of(
                [sim.all_of(done_events), sim.timeout(chunk_bound)]
            )

        # 6. Advisory orphan sweep over the local shard (metrics only).
        self._orphan_sweep()

        # 7. Write back the store, resume the file system.
        flush = server.kv.flush()
        if flush is not None:
            yield flush
        yield from self.send_end(peers)
        self.running = False
        server.unquiesce()

    # -- helpers ----------------------------------------------------------------

    def _restore(self, result_rec: LogRecord) -> PendingOp:
        """Re-register a logged sub-op in the pending and active-object
        tables, as its execution had left them."""
        role = self.role
        pend = PendingOp.from_record(result_rec)
        keys = conflict_keys(pend.subop) if pend.ok and pend.role != "single" else ()
        if keys:
            role.active.register(pend.op_id, keys)
        role.pending[pend.op_id] = pend
        return pend

    def _redo(self, result_rec: LogRecord) -> Tuple[PendingOp, Optional[object]]:
        """Rebuild an undecided op from its Result-Record and redo its
        updates; returns the pending entry and the redo's disk event."""
        role = self.role
        pend = self._restore(result_rec)
        redo_event = None
        if pend.ok:
            # Conservative redo: write-through, one txn per operation.
            events = role.server.shard.apply_sync(pend.result.updates)
            redo_event = events[0] if events else None
        if pend.role == "part":
            # A coordinator's commitment may already be waiting on this
            # op's vote (it retried while we were down).
            role.participant.fulfill_vote_waiters(pend.op_id)
        else:
            role.commit_mgr.lazy[pend.op_id] = pend
        return pend, redo_event

    def _reconcile_decided(
        self, op_id: OpId, res: ExecResult, committed: bool
    ) -> Optional[object]:
        """Reconcile the durable shard against a *logged* decision.

        The decision is the authority: a committed op's updates must be
        durable, an aborted op's undo state must be.  A crash between
        the decision record and the write-back leaves orphan inodes
        (expected key missing) or zombie objects (expected-deleted key
        present); this re-links the former and reclaims the latter.

        A key that exists with a *different* value is left alone: shared
        objects (parent-directory stubs and their counters) may have
        been legitimately modified by later operations, and clobbering
        them with this op's stale image would corrupt the namespace.

        Returns the disk event of the fix-up transaction, or None.
        """
        role = self.role
        server = role.server
        expected = res.updates if committed else res.undo
        kv = server.kv
        fixes = []
        reclaimed = 0
        relinked = 0
        for key, value in expected:
            current = kv.get(key)
            if value is None:
                if current is not None:
                    # Expected absent, still present: reclaim.
                    fixes.append((key, None))
                    reclaimed += 1
            elif current is None:
                # Expected present, missing: re-link from the record.
                fixes.append((key, value))
                relinked += 1
            # else: present with some value — possibly newer; hands off.
        if not fixes:
            return None
        self._m_reclaimed.inc(reclaimed)
        self._m_relinked.inc(relinked)
        if server.tracer.enabled:
            server.tracer.event(
                "recovery.reconcile", server.node_id, cat="recovery",
                op_id=op_id, committed=committed,
                reclaimed=reclaimed, relinked=relinked,
            )
        events = role.server.shard.apply_sync(fixes)
        return events[0] if events else None

    def _orphan_sweep(self) -> None:
        """Advisory post-recovery sweep of the *local* durable shard.

        Only pairs whose entry and inode are both homed here can be
        judged locally (a cross-server op's halves live on different
        servers by construction, and WAL-attributed reconciliation
        already handled everything this log knows about).  Anything
        suspicious surfaces as the ``recovery.orphans_suspect`` counter
        plus a tracer event — triage material for ``analyze``, never a
        destructive reclaim.
        """
        role = self.role
        server = role.server
        placement = role.cluster.placement
        subops = [pend.subop for pend in role.pending.values()]
        for op_id in server.wal.ops_in_log():
            result_rec = log_state(server.wal.records_of(op_id))[0]
            if result_rec is not None:
                subops.append(result_rec.payload.subop)
        in_flight = {
            s.args["target"] for s in subops if s.args.get("target") is not None
        }
        dirents = {}
        inodes = {}
        for key, val in server.kv.durable_items():
            if not isinstance(key, tuple):
                continue
            if key[0] == "d" and isinstance(val, DirEntry):
                # Only entries whose target inode is also homed here are
                # locally judgeable.
                if placement.inode_server(val.target) == server.index:
                    dirents[(val.parent, val.name)] = val
            elif key[0] == "i" and isinstance(val, Inode):
                inodes[key[1]] = val
        # Reuse the oracle's classification; the orphan-inode side is
        # not locally judgeable (the entry may be homed on a peer), so
        # every inode is passed as "known" to suppress it.
        violations = classify_namespace(
            dirents, inodes,
            known=set(inodes),
            transient_targets=in_flight,
        )
        suspects = sum(1 for v in violations if v.kind == "dangling-entry")
        if suspects:
            self._m_suspect.inc(suspects)
            if server.tracer.enabled:
                server.tracer.event(
                    "recovery.orphan_suspect", server.node_id,
                    cat="recovery", count=suspects,
                )
