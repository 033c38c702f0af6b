"""Conflict hints and the client-side completion rule (paper §III.C).

The paper: "Given a sub-op SOP, if it raises a conflict with a sub-op
SOP' and SOP' must be committed before executing SOP, the conflict hint
for SOP's response is constructed as [SOP']; otherwise [null] ... a
process recognizes a cross-server operation as complete only when it
has received the responses from both affected servers with the same
conflict hint."

**Clarification this implementation adds.**  Strict hint equality
deadlocks in two legal interleavings the paper does not discuss:

1. *Asymmetric conflict*: the conflicting operation X only has a sub-op
   on one of our two servers, so the other server's hint is [null]
   forever ([null] vs [X] never match).
2. *Already-committed conflict*: our sub-op reached the second server
   only after X fully committed there, so it executed conflict-free
   with hint [null] while the first server answered [X].

In both cases the [null] response is final — no invalidation of it can
ever occur, because invalidation of a response from server S is always
caused by the commitment of a conflicting op *at S*.  So each response
carries two extra fields, computable server-side from state Cx already
has:

* ``hint_covers_other`` — whether the hinted op X also has a sub-op on
  the *other* server of this operation (only then can it invalidate the
  other response);
* ``saw_commits`` — ops already committed on this sub-op's conflict
  keys at this server before it executed.

A response pair is **settled** when neither side names a hint that (a)
covers the other server and (b) the other response predates — i.e. the
other response neither carries that hint nor lists it in
``saw_commits``.  With symmetric conflicts this degenerates to the
paper's equal-hints rule; with the corner cases above it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.storage.wal import OpId


@dataclass(frozen=True)
class ResponseHint:
    """The hint block attached to every Cx execution response."""

    #: [null] (None) or the op that had to commit before this execution.
    hint: Optional[OpId] = None
    #: True when the hinted op also has a sub-op on the other affected
    #: server of the responding operation.
    hint_covers_other: bool = False
    #: Ops that had already committed on this sub-op's conflict keys.
    saw_commits: tuple = ()

    def to_payload(self) -> dict:
        return {
            "hint": self.hint,
            "hint_covers_other": self.hint_covers_other,
            "saw_commits": tuple(self.saw_commits),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ResponseHint":
        return cls(
            hint=payload.get("hint"),
            hint_covers_other=bool(payload.get("hint_covers_other")),
            saw_commits=tuple(payload.get("saw_commits", ())),
        )


def may_supersede(hinted: ResponseHint, other: ResponseHint) -> bool:
    """Can ``other`` still be invalidated because of ``hinted``'s hint?

    True when ``hinted`` names a conflicting op X that covers the other
    server and ``other`` shows no evidence of being ordered after X.
    """
    x = hinted.hint
    if x is None or not hinted.hint_covers_other:
        return False
    if other.hint == x:
        return False
    if x in other.saw_commits:
        return False
    return True


def settled(r1: ResponseHint, r2: ResponseHint) -> bool:
    """The pair-completion rule: neither response may supersede the other."""
    return not may_supersede(r1, r2) and not may_supersede(r2, r1)
