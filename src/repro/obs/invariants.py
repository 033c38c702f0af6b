"""Trace-driven protocol invariant checking.

The checker consumes the tracer's event stream and validates what the
Cx protocol promises, independently of the implementation's own state:

Safety (hold on every prefix of a run, checked after every traced test):

* **atomic-decision** — no operation commits on one server and aborts
  on the other: all ``decision`` events of one op agree.
* **decided-before-prune** — a server frees an operation's log records
  only after it logged the commitment decision for that operation
  (recovery after a crash legitimately prunes without a fresh decision,
  so prunes on a node that crashed earlier are exempt).
* **writeback-after-decision** — an operation's objects are synchronized
  into the database only after its decision on that server.

Liveness (requires a quiesced end of run — lazy work drained):

* **eventually-decided** — every sub-op that executed successfully
  (a lazily-agreed Result-Record exists) eventually reaches a
  commitment decision (COMMIT-REQ + ACK, or an abort) on that server,
  unless it was invalidated (re-ordered), the server crashed, or the
  retry machinery is provably wedged on a peer that is *down at the
  end of the run* (a ``vote.resolicit`` / ``commit.peer_lost`` /
  ``commit.park`` event names a peer whose last crash has no later
  reboot) — a transient pending-window state, not a protocol bug.
* **parked-undecided** — an op parked for decision re-delivery
  (``commit.park``) must eventually unpark (``commit.unpark``), unless
  its peer is down at end of run or the parking node itself crashed
  (its volatile parked table died with it; recovery re-derives the
  work from the log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import NULL_SPAN, TraceEvent, Tracer


@dataclass
class Violation:
    """One invariant violation found in a trace."""

    kind: str
    node: Optional[str]
    op_id: Optional[Tuple]
    detail: str

    def __str__(self) -> str:
        op = ":".join(str(x) for x in self.op_id) if self.op_id else "-"
        return f"[{self.kind}] node={self.node or '-'} op={op}: {self.detail}"


class InvariantChecker:
    """Validates protocol safety and liveness from a trace."""

    #: Every record name a check reads.  The checker drops all other
    #: records on construction, so a trace cut to these names (what
    #: :class:`OracleTracer` records) is judged exactly as the full
    #: trace, and a check that reads an unlisted name sees nothing.
    READS = frozenset({
        "exec", "decision", "wal.prune", "writeback", "invalidate",
        "vote.resolicit", "commit.peer_lost", "commit.park",
        "commit.unpark", "server.crash", "server.reboot",
    })

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events = sorted((e for e in events if e.name in self.READS),
                             key=lambda e: e.ts)
        # Every table the checks read, built in one pass.
        #: first crash time per node, if any.
        self._crashes: Dict[str, float] = {}
        #: op_id -> node -> (first decision ts, committed).
        self._decisions: Dict[Tuple, Dict[str, Tuple[float, bool]]] = {}
        #: ``wal.prune`` and ``writeback`` records, in trace order.
        self._guarded: List[TraceEvent] = []
        # Per (op, node): the last successful update execution, its last
        # invalidation, the peer the retry machinery waits on, and an
        # open park (ts, peer) awaiting decision re-delivery.
        self._last_ok_exec: Dict[Tuple[Tuple, str], float] = {}
        self._invalidated_at: Dict[Tuple[Tuple, str], float] = {}
        self._waiting_on_peer: Dict[Tuple[Tuple, str], str] = {}
        self._parked_at: Dict[Tuple[Tuple, str], Tuple[float, Optional[str]]] = {}
        last_crash: Dict[str, float] = {}
        last_reboot: Dict[str, float] = {}
        for e in self.events:
            name = e.name
            if name == "server.crash":
                self._crashes.setdefault(e.node, e.ts)
                last_crash[e.node] = e.ts
            elif name == "server.reboot":
                last_reboot[e.node] = e.ts
            if e.op_id is None:
                continue
            key = (e.op_id, e.node)
            if name == "decision":
                self._decisions.setdefault(e.op_id, {}).setdefault(
                    e.node, (e.ts, bool(e.args.get("committed")))
                )
            elif name in ("wal.prune", "writeback"):
                self._guarded.append(e)
            elif (name == "exec" and e.args.get("ok")
                    and not e.args.get("readonly")):
                # Read-only executions leave no Result-Record and need
                # no commitment; only update sub-ops must be decided.
                self._last_ok_exec[key] = e.ts
            elif name == "invalidate":
                self._invalidated_at[key] = e.ts
            elif name in ("vote.resolicit", "commit.peer_lost"):
                self._waiting_on_peer[key] = e.args.get("peer")
            elif name == "commit.park":
                self._parked_at[key] = (e.ts, e.args.get("peer"))
            elif name == "commit.unpark":
                self._parked_at.pop(key, None)
        #: nodes whose last crash has no later reboot.
        self._down_at_end = {
            node for node, ts in last_crash.items()
            if last_reboot.get(node, -1.0) < ts
        }

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "InvariantChecker":
        return cls(tracer.events)

    # -- helpers ---------------------------------------------------------

    def _crashed_before(self, node: str, ts: float) -> bool:
        t = self._crashes.get(node)
        return t is not None and t <= ts

    def _crashed_after(self, node: str, ts: float) -> bool:
        t = self._crashes.get(node)
        return t is not None and t >= ts

    # -- safety ----------------------------------------------------------

    def check_safety(self) -> List[Violation]:
        violations: List[Violation] = []
        decisions = self._decisions

        # atomic-decision: all nodes agree on commit/abort.
        for op_id, per_node in decisions.items():
            flags = {committed for _ts, committed in per_node.values()}
            if len(flags) > 1:
                detail = ", ".join(
                    f"{node}={'commit' if c else 'abort'}"
                    for node, (_t, c) in sorted(per_node.items())
                )
                violations.append(
                    Violation("atomic-decision", None, op_id, detail)
                )

        # decided-before-prune / writeback-after-decision.
        for e in self._guarded:
            dec = decisions.get(e.op_id, {}).get(e.node)
            if e.name == "wal.prune":
                if self._crashed_before(e.node, e.ts):
                    continue  # recovery prunes from the surviving log
                if dec is None or dec[0] > e.ts:
                    violations.append(
                        Violation(
                            "decided-before-prune", e.node, e.op_id,
                            f"log records freed at t={e.ts:.6f} without a "
                            "prior commitment decision on this server",
                        )
                    )
            elif dec is None or dec[0] > e.ts:
                violations.append(
                    Violation(
                        "writeback-after-decision", e.node, e.op_id,
                        f"objects written back at t={e.ts:.6f} before "
                        "the commitment decision on this server",
                    )
                )
        return violations

    # -- liveness --------------------------------------------------------

    def check_liveness(self) -> List[Violation]:
        violations: List[Violation] = []
        decisions = self._decisions
        down_at_end = self._down_at_end

        for (op_id, node), ts in self._last_ok_exec.items():
            if decisions.get(op_id, {}).get(node) is not None:
                continue
            inv = self._invalidated_at.get((op_id, node))
            if inv is not None and inv >= ts:
                continue  # re-ordered away; its re-execution is tracked anew
            if self._crashed_after(node, ts):
                continue  # volatile state lost; recovery owns the op now
            peer = self._waiting_on_peer.get((op_id, node))
            if peer is not None and peer in down_at_end:
                # Transient pending window: the retry machinery is
                # provably waiting on a peer that never came back.
                continue
            violations.append(
                Violation(
                    "eventually-decided", node, op_id,
                    f"sub-op executed ok at t={ts:.6f} but never reached a "
                    "commitment decision on this server",
                )
            )

        for (op_id, node), (ts, peer) in self._parked_at.items():
            if peer is not None and peer in down_at_end:
                continue  # peer never came back: re-delivery must wait
            if self._crashed_after(node, ts):
                continue  # parked table died with the node; log re-derives
            violations.append(
                Violation(
                    "parked-undecided", node, op_id,
                    f"decision parked at t={ts:.6f} was never re-delivered "
                    "although the peer recovered",
                )
            )
        return violations

    def check(self) -> List[Violation]:
        """Full check: safety plus liveness (quiesced trace expected)."""
        return self.check_safety() + self.check_liveness()


class OracleTracer(Tracer):
    """Records only :attr:`InvariantChecker.READS`: :meth:`event` returns
    at once and :meth:`begin` returns :data:`NULL_SPAN` for any other
    name.  ``build_run``'s tracer for the fuzzer's schedules."""

    keep = InvariantChecker.READS

    def event(self, name: str, node: str, **kw: Any) -> None:
        if name in self.keep:
            super().event(name, node, **kw)

    def begin(self, name: str, node: str, **kw: Any):
        if name in self.keep:
            return super().begin(name, node, **kw)
        return NULL_SPAN


#: Protocols that run Cx's commitment and so owe its trace contract.
CX_CONTRACT = ("cx", "cx-serial-exec")


def check_trace(
    tracer: Tracer, liveness: bool = True, protocol: str = "cx"
) -> List[Violation]:
    """Convenience wrapper used by runners and tests.

    The invariants are the *Cx commitment's* contract (decisions,
    prune-after-decision, decided write-back), which both Cx variants
    run; traces from the baselines have executions but no commitment
    machinery, so checking them against Cx's promises would only
    produce noise — other protocols get an empty report.
    """
    if protocol not in CX_CONTRACT:
        return []
    checker = InvariantChecker.from_tracer(tracer)
    return checker.check() if liveness else checker.check_safety()
