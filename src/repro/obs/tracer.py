"""Structured, virtual-time tracing of protocol execution.

The tracer records *what happened when* inside every operation: spans
(durations with a start and an end, e.g. the concurrent-execution phase
of a sub-op) and instant events (a trigger firing, a message leaving a
node, a log prune).  Every record is timestamped with the simulator's
virtual clock and keyed by node id, operation id, and protocol phase,
so a single event stream can be sliced per server, per operation, or
per phase — and exported to Chrome trace-event format for Perfetto
(:mod:`repro.obs.export`), fed to the invariant checker
(:mod:`repro.obs.invariants`), or walked by the critical-path analyzer
(:mod:`repro.obs.critpath`).

**Causality.**  Every span and every network hop gets a unique
``span_id``; records carry the ``parent_id`` they were caused by, and
:class:`~repro.net.message.Message` carries the sender's span id across
the wire (the network rewrites it to the hop's own id on send), so a
coordinator → participant → WAL → reply chain forms a per-operation
causal DAG rather than a flat op_id-keyed event list.

**Overhead tiers.**

* disabled — the default everywhere is the :data:`NULL_TRACER`
  singleton, whose methods are no-ops and whose ``enabled`` flag is
  ``False``; hot paths guard any argument construction behind
  ``if tracer.enabled`` (zero overhead);
* full — :class:`Tracer` keeps every record (traced replays, tests);
* oracle — :class:`~repro.obs.invariants.OracleTracer` keeps only the
  records the invariant checker reads (the fault fuzzer's schedules);
* always-on — :class:`SamplingTracer` records a deterministic 1-in-N
  of operations (by op id) and, combined with ``ring=K``, degrades the
  store to a fixed-size flight-recorder ring buffer holding the last
  ``K`` records; :meth:`Tracer.dump_jsonl` dumps it when the invariant
  checker fires or a replay raises.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator
    from repro.storage.wal import OpId

# -- protocol phase labels (the paper's per-operation decomposition) ----------

#: Steps 1–2: both servers execute their sub-ops concurrently.
PHASE_EXEC = "concurrent-execution"
#: The durable Result-Record append that precedes the client response.
PHASE_RECORD = "result-record"
#: Steps 3–7: the deferred VOTE / COMMIT-REQ / ACK exchange.
PHASE_COMMIT = "lazy-commitment"
#: The batched synchronization of decided objects into the database.
PHASE_WRITEBACK = "write-back"
#: The client's view of the whole operation.
PHASE_CLIENT = "client-op"


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record.

    ``ph`` follows the Chrome trace-event phase letters: ``"X"`` is a
    complete span (``ts`` start, ``dur`` length), ``"i"`` an instant.
    ``span_id``/``parent_id`` place the record in the per-operation
    causal DAG (``None`` for records outside any chain).
    """

    name: str
    cat: str
    ph: str
    ts: float
    node: str
    dur: float = 0.0
    op_id: Optional["OpId"] = None
    phase: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        if d["op_id"] is not None:
            d["op_id"] = list(d["op_id"])
        return d


class Span:
    """An open span; :meth:`end` stamps the duration and records it."""

    __slots__ = ("_tracer", "name", "cat", "node", "op_id", "phase", "start",
                 "args", "span_id", "parent_id", "_done")

    def __init__(self, tracer: "Tracer", name: str, cat: str, node: str,
                 op_id, phase, parent: Optional[int],
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.node = node
        self.op_id = op_id
        self.phase = phase
        self.start = tracer.now()
        self.args = args
        self.span_id = tracer.next_span_id()
        self.parent_id = parent
        self._done = False

    def end(self, **extra: Any) -> None:
        if self._done:
            return
        self._done = True
        if extra:
            self.args.update(extra)
        t = self._tracer
        t._recorded += 1
        t.events.append(
            TraceEvent(
                name=self.name,
                cat=self.cat,
                ph="X",
                ts=self.start,
                dur=t.now() - self.start,
                node=self.node,
                op_id=self.op_id,
                phase=self.phase,
                args=self.args,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )
        )


class _NullSpan:
    """Shared no-op span returned by the null tracer *and* by a
    sampling tracer for sampled-out operations — the two must stay
    indistinguishable to instrumented code."""

    __slots__ = ()

    #: Present so call sites can read ``span.span_id`` unguarded.
    span_id = None
    parent_id = None

    def end(self, **extra: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects :class:`TraceEvent` records against virtual time.

    ``ring=K`` bounds the store to a fixed-size flight-recorder ring
    buffer: only the last ``K`` records are kept (``dropped`` counts
    evictions), making the tracer safe to leave on for arbitrarily long
    runs.
    """

    enabled = True

    def __init__(self, sim: Optional["Simulator"] = None,
                 ring: Optional[int] = None) -> None:
        self._sim = sim
        self.ring = ring
        self.events: List[TraceEvent] = (
            deque(maxlen=ring) if ring else []  # type: ignore[assignment]
        )
        self._next_span = 1
        #: Ambient parent span id for subsystems that cannot take a
        #: parameter (the WAL's append instants).  Callers set it around
        #: a synchronous call and clear it after; never across a yield.
        self.ambient: Optional[int] = None

    # -- wiring ----------------------------------------------------------

    def bind(self, sim: "Simulator") -> None:
        """Attach the simulator whose clock stamps every record."""
        self._sim = sim

    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    def next_span_id(self) -> int:
        sid = self._next_span
        self._next_span = sid + 1
        return sid

    def sampled(self, op_id) -> bool:
        """Whether records for ``op_id`` are kept (always, here)."""
        return True

    @property
    def dropped(self) -> int:
        """Records evicted from the ring buffer (0 when unbounded)."""
        if not self.ring:
            return 0
        return max(0, self._recorded - len(self.events))

    # -- recording -------------------------------------------------------

    _recorded = 0

    def event(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, span_id: Optional[int] = None,
              **args: Any) -> None:
        """Record an instant event.

        ``parent`` links the instant into the causal DAG; ``span_id``
        gives the instant an identity of its own (the network hop
        events use both).
        """
        self._recorded += 1
        self.events.append(
            TraceEvent(
                name=name, cat=cat, ph="i", ts=self.now(), node=node,
                op_id=op_id, phase=phase, args=args,
                span_id=span_id, parent_id=parent,
            )
        )

    def begin(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, **args: Any) -> Span:
        """Open a span; the returned handle's ``end()`` records it."""
        return Span(self, name, cat, node, op_id, phase, parent, args)

    # -- queries ----------------------------------------------------------

    def spans(self, name: Optional[str] = None,
              phase: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if e.ph == "X"
            and (name is None or e.name == name)
            and (phase is None or e.phase == phase)
        ]

    def events_for(self, op_id) -> List[TraceEvent]:
        return [e for e in self.events if e.op_id == op_id]

    def op_ids(self) -> List[Tuple]:
        seen: Dict[Tuple, None] = {}
        for e in self.events:
            if e.op_id is not None:
                seen.setdefault(e.op_id, None)
        return list(seen)

    def clear(self) -> None:
        self.events.clear()

    # -- flight-recorder dump ---------------------------------------------

    def dump_jsonl(self, path_or_file, last: Optional[int] = None) -> int:
        """Write the most recent ``last`` records (all, by default, which
        for a ring tracer is the ring's contents) as JSONL; returns the
        record count written.  This is the flight-recorder dump invoked
        when the invariant checker fires or a replay raises."""
        events = list(self.events)
        if last is not None and last < len(events):
            events = events[-last:]
        text = "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in events)
        if hasattr(path_or_file, "write"):
            path_or_file.write(text + ("\n" if text else ""))
        else:
            with open(path_or_file, "w") as fh:
                fh.write(text + ("\n" if text else ""))
        return len(events)


class SamplingTracer(Tracer):
    """Always-on tracer: deterministic 1-in-N sampling by operation id.

    Whether an operation is traced depends only on its op id — not on
    timing, protocol, or run order — so the same operations are sampled
    on every replay of a workload (and on both sides of a cross-server
    pair, since the op id is shared).  Sampled-out operations get the
    shared :data:`NULL_SPAN` from :meth:`begin` and their instants are
    skipped, so a sampled-out span is indistinguishable from the null
    tracer's.  Records with no op id (crashes, triggers, WAL syncs) are
    always kept — they are rare and needed for context.
    """

    def __init__(self, sim: Optional["Simulator"] = None,
                 every: int = 64, ring: Optional[int] = None) -> None:
        if every < 1:
            raise ValueError("sampling rate must be >= 1")
        super().__init__(sim, ring=ring)
        self.every = every

    def sampled(self, op_id) -> bool:
        if op_id is None:
            return True
        if self.every == 1:
            return True
        # The built-in tuple hash mixes (client, process, sequence)
        # well — a plain ``seq % N`` would sample the same stride of
        # every process's stream, which correlates with workload
        # phases — and is C-speed: this predicate runs on every traced
        # hot-path record, so it carries the overhead budget.  For int
        # tuples ``hash`` is unsalted, hence stable across processes
        # and runs.
        return (hash(op_id) & 0x7FFFFFFF) % self.every == 0

    def event(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, span_id: Optional[int] = None,
              **args: Any) -> None:
        if op_id is not None and not self.sampled(op_id):
            return
        super().event(name, node, cat=cat, op_id=op_id, phase=phase,
                      parent=parent, span_id=span_id, **args)

    def begin(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, **args: Any):
        if op_id is not None and not self.sampled(op_id):
            return NULL_SPAN
        return super().begin(name, node, cat=cat, op_id=op_id, phase=phase,
                             parent=parent, **args)


class NullTracer(Tracer):
    """Disabled tracer: every call is a no-op, ``enabled`` is False.

    A singleton (:data:`NULL_TRACER`) stands in wherever no tracer was
    requested, so instrumented code never branches on ``None``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(None)

    def event(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, span_id: Optional[int] = None,
              **args: Any) -> None:
        pass

    def begin(self, name: str, node: str, *, cat: str = "op",
              op_id=None, phase: Optional[str] = None,
              parent: Optional[int] = None, **args: Any) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = NullTracer()
