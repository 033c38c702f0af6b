"""Global message accounting (drives Table IV and Figure 8)."""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.net.message import Message, MessageKind


class MessageStats:
    """Counts every message the network delivers.

    The paper's Table IV reports total messages for full trace replays
    under OFS and OFS-Cx; Figure 8 reports message cost as the conflict
    ratio grows.  Both only need counts by kind and totals.
    """

    def __init__(self) -> None:
        self.by_kind: Counter = Counter()
        self.total = 0
        self.total_bytes = 0
        #: Messages dropped at delivery time — destination crashed (or
        #: crashed and rebooted) after the send, or a fault schedule
        #: forced a loss.  Not part of the delivered-traffic totals.
        self.dead_letters = 0

    #: Background liveness probes are not protocol traffic (the paper's
    #: Table IV counts the messages of the trace replay itself).
    EXCLUDED = frozenset({MessageKind.PING, MessageKind.PONG})

    def record(self, msg: Message) -> None:
        self.by_kind[msg.kind] += 1
        if msg.kind in self.EXCLUDED:
            return
        self.total += 1
        self.total_bytes += msg.size

    def reset(self) -> None:
        self.by_kind.clear()
        self.total = 0
        self.total_bytes = 0
        self.dead_letters = 0

    def count(self, kind: MessageKind) -> int:
        return self.by_kind[kind]

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy for reporting."""
        out = {k.value: v for k, v in self.by_kind.items()}
        out["TOTAL"] = self.total
        out["TOTAL_BYTES"] = self.total_bytes
        if self.dead_letters:
            # Only present when nonzero: fault-free snapshots (and the
            # committed golden ones) keep their exact key set.
            out["DEAD_LETTERS"] = self.dead_letters
        return out

