"""Active-object table: Cx's conflict detector (paper §III.B–C).

Between execution and commitment, the metadata objects a cross-server
sub-op modified are *active*: other processes touching them "impose
conflicts" and force an immediate commitment.  This table tracks, per
server:

* which object keys are held active and by which pending operation;
* the sub-op request messages *blocked* behind each pending operation
  (re-injected into the server inbox when the holder commits);
* the last operation that committed on each key (``last_committer``),
  which responses expose as ``saw_commits`` so clients can tell a
  final response from one that may still be invalidated (see
  :mod:`repro.core.hints`).

**What counts as a conflictable object.**  The paper observes that
"conflicts can only occur on shared files"; two creates of different
names in one big shared directory must *not* conflict, or checkpoint
workloads would serialize.  The coordinator sub-op's parent-inode
update is a commutative counter bump, so we exclude the parent stub
from the conflict footprint: the footprint is the directory *entry* key
plus the file *inode* key.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.fs.objects import dirent_key, inode_key
from repro.fs.ops import SubOp, SubOpAction
from repro.net.message import Message
from repro.storage.wal import OpId

#: Actions whose footprint is the directory-entry key.
_ENTRY_ACTIONS = frozenset(
    {SubOpAction.INSERT_ENTRY, SubOpAction.REMOVE_ENTRY, SubOpAction.READ_ENTRY}
)
#: Actions whose footprint is the target-inode key.
_INODE_ACTIONS = frozenset(
    {
        SubOpAction.ADD_INODE,
        SubOpAction.ADD_DIR_INODE,
        SubOpAction.INC_NLINK,
        SubOpAction.DEC_NLINK_FREE,
        SubOpAction.FREE_DIR_INODE,
        SubOpAction.WRITE_INODE,
        SubOpAction.READ_INODE,
    }
)


def conflict_keys(subop: SubOp) -> List[Any]:
    """The conflict footprint of a sub-op (entry + inode keys only)."""
    keys: List[Any] = []
    args = subop.args
    for action in subop.actions:
        if action in _ENTRY_ACTIONS:
            keys.append(dirent_key(args["parent"], args["name"]))
        elif action in _INODE_ACTIONS:
            keys.append(inode_key(args["target"]))
    return keys


def _half_footprint(args: Dict[str, Any], role: str) -> frozenset:
    """Conflict footprint of one half of a cross-server op."""
    if role == "coord":
        return frozenset({dirent_key(args["parent"], args["name"])})
    if role == "part":
        return frozenset({inode_key(args["target"])})
    return frozenset()


def hint_covers_other(blocked_subop: SubOp, blocked_other: Optional[int],
                      holder_subop: SubOp, holder_other: Optional[int]) -> bool:
    """Can the holder's commitment have invalidated/ordered the blocked
    op's *other* response?

    True only when the holder has a sub-op on the blocked op's other
    server **and** the two ops' footprints overlap there.  (Sharing a
    server is not enough: two links to one inode from different entries
    share the participant, but their coordinator halves touch disjoint
    entries and can never invalidate each other.)
    """
    if blocked_other is None or blocked_subop.role == "single":
        return False
    # Which role does the holder play on the blocked op's other server?
    if holder_subop.server == blocked_other:
        holder_role_there = holder_subop.role
    elif holder_other == blocked_other:
        holder_role_there = "part" if holder_subop.role == "coord" else "coord"
    else:
        return False
    blocked_role_there = "part" if blocked_subop.role == "coord" else "coord"
    return bool(
        _half_footprint(holder_subop.args, holder_role_there)
        & _half_footprint(blocked_subop.args, blocked_role_there)
    )


class ActiveObjectTable:
    """Per-server registry of active objects and blocked requests."""

    def __init__(self) -> None:
        #: key -> ordered list of holders (several pending ops of one
        #: process may legally stack on the same object).
        self._holder: Dict[Any, List[OpId]] = {}
        self._keys_of: Dict[OpId, List[Any]] = {}
        self._blocked: Dict[OpId, Deque[Message]] = {}
        self.last_committer: Dict[Any, OpId] = {}
        self.conflicts_detected = 0

    # -- registration -----------------------------------------------------

    def register(self, op_id: OpId, keys: Iterable[Any]) -> None:
        keys = list(keys)
        for key in keys:
            self._holder.setdefault(key, []).append(op_id)
        self._keys_of[op_id] = keys

    def holders_of(self, keys: Iterable[Any]) -> List[OpId]:
        """Every pending op holding any of ``keys``, oldest first."""
        out: List[OpId] = []
        for key in keys:
            for holder in self._holder.get(key, ()):
                if holder not in out:
                    out.append(holder)
        return out

    # -- blocking ------------------------------------------------------------

    def block(self, holder: OpId, msg: Message) -> None:
        """Queue ``msg`` behind the pending operation ``holder``."""
        self.conflicts_detected += 1
        self._blocked.setdefault(holder, deque()).append(msg)

    def unblock_one(self, holder: OpId, msg: Message) -> bool:
        """Remove a specific blocked message (used by invalidation)."""
        queue = self._blocked.get(holder)
        if queue is None:
            return False
        try:
            queue.remove(msg)
            return True
        except ValueError:
            return False

    def blocked_behind(self, holder: OpId) -> List[Message]:
        return list(self._blocked.get(holder, ()))

    def find_blocked(self, op_id: OpId) -> Optional[Tuple[OpId, Message]]:
        """Locate ``op_id``'s blocked request and its holder, if any."""
        for holder, msgs in self._blocked.items():
            for m in msgs:
                sub = m.payload.get("subop")
                if sub is not None and sub.op_id == op_id:
                    return holder, m
        return None

    # -- release ---------------------------------------------------------------

    def release(self, op_id: OpId, committed: bool) -> List[Message]:
        """Drop ``op_id``'s active keys; return its blocked messages.

        ``committed`` updates ``last_committer`` for the released keys,
        feeding the ``saw_commits`` sets of later responses.
        """
        keys = self._keys_of.pop(op_id, [])
        for key in keys:
            holders = self._holder.get(key)
            if holders is not None:
                try:
                    holders.remove(op_id)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not holders:
                    del self._holder[key]
            if committed:
                self.last_committer[key] = op_id
        blocked = self._blocked.pop(op_id, None)
        return list(blocked) if blocked else []

    def saw_commits(self, keys: Iterable[Any]) -> List[OpId]:
        """Ops known to have committed on ``keys`` (for response hints)."""
        out = []
        for key in keys:
            op = self.last_committer.get(key)
            if op is not None:
                out.append(op)
        return out

    def clear(self) -> None:
        """Volatile: dropped wholesale on a crash."""
        self._holder.clear()
        self._keys_of.clear()
        self._blocked.clear()
        self.last_committer.clear()
