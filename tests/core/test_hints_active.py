"""Unit tests for conflict hints, the completion rule, and the
active-object table."""

from repro.core.active import ActiveObjectTable, conflict_keys, hint_covers_other
from repro.core.hints import ResponseHint, may_supersede, settled
from repro.fs.objects import dirent_key, inode_key
from repro.fs.ops import OpType, SubOp, SubOpAction
from repro.net.message import Message, MessageKind

A = (1, 1, 1)
B = (2, 1, 1)
C = (3, 1, 1)


def hint(h=None, covers=False, saw=()):
    return ResponseHint(hint=h, hint_covers_other=covers, saw_commits=tuple(saw))


class TestCompletionRule:
    def test_both_null_settled(self):
        assert settled(hint(), hint())

    def test_equal_hints_settled(self):
        assert settled(hint(A, covers=True), hint(A, covers=True))

    def test_mismatch_with_coverage_waits(self):
        """Fig. 3(b) mid-flight: [A] vs [null] with A covering the other
        server -> the [null] response may be superseded."""
        assert may_supersede(hint(A, covers=True), hint())
        assert not settled(hint(A, covers=True), hint())

    def test_mismatch_without_coverage_settles(self):
        """Asymmetric conflict: A has no sub-op on the other server, so
        the [null] response is final."""
        assert not may_supersede(hint(A, covers=False), hint())
        assert settled(hint(A, covers=False), hint())

    def test_saw_commits_resolves_mismatch(self):
        """[A] vs [null], but the null response executed after A's
        commitment at its server -> final."""
        assert settled(hint(A, covers=True), hint(saw=[A]))

    def test_different_hints_both_covering(self):
        r1 = hint(A, covers=True)
        r2 = hint(B, covers=True)
        assert not settled(r1, r2)
        # ...unless each saw the other's conflicting op commit.
        r1b = hint(A, covers=True, saw=[B])
        r2b = hint(B, covers=True, saw=[A])
        assert settled(r1b, r2b)

    def test_payload_roundtrip(self):
        h = hint(A, covers=True, saw=[B, C])
        assert ResponseHint.from_payload(h.to_payload()) == h


class TestConflictKeys:
    def _subop(self, actions, **args):
        base = {"parent": 7, "name": "f", "target": 99, "is_dir": False}
        base.update(args)
        return SubOp(A, OpType.CREATE, "coord", 0, tuple(actions), base)

    def test_entry_footprint(self):
        s = self._subop([SubOpAction.INSERT_ENTRY])
        assert conflict_keys(s) == [dirent_key(7, "f")]

    def test_inode_footprint(self):
        s = self._subop([SubOpAction.ADD_INODE])
        assert conflict_keys(s) == [inode_key(99)]

    def test_parent_stub_excluded(self):
        """Two creates in one directory must not conflict: the parent
        inode bump is commutative and excluded from the footprint."""
        s1 = self._subop([SubOpAction.INSERT_ENTRY], name="a")
        s2 = self._subop([SubOpAction.INSERT_ENTRY], name="b")
        assert not set(conflict_keys(s1)) & set(conflict_keys(s2))

    def test_read_footprints(self):
        s = self._subop([SubOpAction.READ_INODE])
        assert conflict_keys(s) == [inode_key(99)]
        s = self._subop([SubOpAction.READ_ENTRY])
        assert conflict_keys(s) == [dirent_key(7, "f")]


class TestHintCoversOther:
    def _sub(self, role, parent=1, name="x", target=50):
        return SubOp(A, OpType.LINK, role, 0, (SubOpAction.INSERT_ENTRY,),
                     {"parent": parent, "name": name, "target": target})

    def test_same_op_both_servers_covers(self):
        blocked = self._sub("part")
        holder = self._sub("coord")
        # holder's other server (its participant) is the blocked op's
        # other server... construct: blocked at P (other=coordinator 3),
        # holder coord subop on server 3 with same name.
        blocked = SubOp(B, OpType.LINK, "part", 5, (SubOpAction.INC_NLINK,),
                        {"parent": 1, "name": "x", "target": 50})
        holder = SubOp(A, OpType.LINK, "coord", 3, (SubOpAction.INSERT_ENTRY,),
                       {"parent": 1, "name": "x", "target": 50})
        assert hint_covers_other(blocked, 3, holder, 5)

    def test_disjoint_footprints_do_not_cover(self):
        """Two links to one inode from different entry names share the
        participant but their coordinator halves can't interact."""
        blocked = SubOp(B, OpType.LINK, "part", 5, (SubOpAction.INC_NLINK,),
                        {"parent": 1, "name": "lb", "target": 50})
        holder = SubOp(A, OpType.LINK, "part", 5, (SubOpAction.INC_NLINK,),
                       {"parent": 1, "name": "la", "target": 50})
        # holder's coordinator == blocked's coordinator == server 3
        assert not hint_covers_other(blocked, 3, holder, 3)

    def test_different_server_never_covers(self):
        blocked = SubOp(B, OpType.LINK, "part", 5, (SubOpAction.INC_NLINK,),
                        {"parent": 1, "name": "x", "target": 50})
        holder = SubOp(A, OpType.LINK, "coord", 2, (SubOpAction.INSERT_ENTRY,),
                       {"parent": 1, "name": "x", "target": 50})
        assert not hint_covers_other(blocked, 9, holder, 5)

    def test_single_role_never_covers(self):
        blocked = SubOp(B, OpType.CREATE, "single", 5, (SubOpAction.ADD_INODE,),
                        {"parent": 1, "name": "x", "target": 50})
        holder = SubOp(A, OpType.LINK, "coord", 3, (SubOpAction.INSERT_ENTRY,),
                       {"parent": 1, "name": "x", "target": 50})
        assert not hint_covers_other(blocked, None, holder, 5)


class TestActiveObjectTable:
    def _msg(self, op_id):
        return Message(MessageKind.REQ, "c", "s", {"subop_op": op_id})

    def test_register_and_holders(self):
        t = ActiveObjectTable()
        t.register(A, ["k1", "k2"])
        assert t.holders_of(["k1"]) == [A]
        assert t.holders_of(["k2", "k3"]) == [A]
        assert t.holders_of(["k3"]) == []

    def test_multiple_holders_ordered(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        t.register(B, ["k"])
        assert t.holders_of(["k"]) == [A, B]  # newest last

    def test_release_removes_only_own_claim(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        t.register(B, ["k"])
        t.release(A, committed=True)
        assert t.holders_of(["k"]) == [B]

    def test_release_returns_blocked(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        m1, m2 = self._msg(B), self._msg(C)
        t.block(A, m1)
        t.block(A, m2)
        assert t.release(A, committed=True) == [m1, m2]
        assert t.conflicts_detected == 2

    def test_last_committer_only_on_committed(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        t.release(A, committed=False)
        assert t.saw_commits(["k"]) == []
        t.register(B, ["k"])
        t.release(B, committed=True)
        assert t.saw_commits(["k"]) == [B]

    def test_unblock_one(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        m = self._msg(B)
        t.block(A, m)
        assert t.unblock_one(A, m)
        assert not t.unblock_one(A, m)
        assert t.release(A, committed=True) == []

    def test_clear(self):
        t = ActiveObjectTable()
        t.register(A, ["k"])
        t.block(A, self._msg(B))
        t.clear()
        assert t.holders_of(["k"]) == []
        assert t.blocked_behind(A) == []
