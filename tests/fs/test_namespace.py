"""Unit tests for sub-op execution on a namespace shard."""

import pytest

from repro.fs import (
    DirEntry,
    FileType,
    NamespaceShard,
    OpType,
    SubOp,
    SubOpAction,
)
from repro.storage import Disk, KVStore


@pytest.fixture
def shard(sim, params):
    kv = KVStore(sim, Disk(sim, params), params)
    return NamespaceShard(kv, server_id=0)


def subop(actions, **args):
    defaults = {"parent": 1, "name": "f", "target": 100, "is_dir": False}
    defaults.update(args)
    return SubOp((1, 1, 1), OpType.CREATE, "single", 0, tuple(actions), defaults)


def apply_ok(shard, sop, now=0.0):
    res = shard.execute(sop, now)
    assert res.ok, res.errno
    shard.apply_deferred(res.updates)
    return res


class TestInsertEntry:
    def test_creates_entry_and_parent_stub(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY]))
        entry = shard.get_dirent(1, "f")
        assert entry == DirEntry(1, "f", 100)
        stub = shard.get_inode(1)
        assert stub.entries == 1

    def test_duplicate_entry_eexist(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY]))
        res = shard.execute(subop([SubOpAction.INSERT_ENTRY]), 0.0)
        assert not res.ok
        assert res.errno == "EEXIST"
        assert res.updates == []

    def test_second_entry_bumps_stub(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY], name="a"))
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY], name="b", target=101))
        assert shard.get_inode(1).entries == 2


class TestRemoveEntry:
    def test_removes(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY]))
        apply_ok(shard, subop([SubOpAction.REMOVE_ENTRY]))
        assert shard.get_dirent(1, "f") is None
        assert shard.get_inode(1).entries == 0

    def test_missing_enoent(self, shard):
        res = shard.execute(subop([SubOpAction.REMOVE_ENTRY]), 0.0)
        assert not res.ok and res.errno == "ENOENT"


class TestInodes:
    def test_add_inode(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        inode = shard.get_inode(100)
        assert inode.ftype is FileType.REGULAR and inode.nlink == 1

    def test_add_inode_eexist(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        res = shard.execute(subop([SubOpAction.ADD_INODE]), 0.0)
        assert res.errno == "EEXIST"

    def test_add_dir_inode(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_DIR_INODE]))
        inode = shard.get_inode(100)
        assert inode.is_dir and inode.nlink == 2

    def test_inc_nlink(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        apply_ok(shard, subop([SubOpAction.INC_NLINK]))
        assert shard.get_inode(100).nlink == 2

    def test_inc_nlink_missing(self, shard):
        res = shard.execute(subop([SubOpAction.INC_NLINK]), 0.0)
        assert res.errno == "ENOENT"

    def test_dec_nlink_frees_at_zero(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        apply_ok(shard, subop([SubOpAction.DEC_NLINK_FREE]))
        assert shard.get_inode(100) is None

    def test_dec_nlink_keeps_above_zero(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        apply_ok(shard, subop([SubOpAction.INC_NLINK]))
        apply_ok(shard, subop([SubOpAction.DEC_NLINK_FREE]))
        assert shard.get_inode(100).nlink == 1

    def test_free_dir_requires_empty(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_DIR_INODE], target=1))
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY]))
        res = shard.execute(subop([SubOpAction.FREE_DIR_INODE], target=1), 0.0)
        assert res.errno == "ENOTEMPTY"

    def test_free_empty_dir(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_DIR_INODE]))
        apply_ok(shard, subop([SubOpAction.FREE_DIR_INODE]))
        assert shard.get_inode(100) is None

    def test_write_inode_touches_mtime(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]), now=1.0)
        apply_ok(shard, subop([SubOpAction.WRITE_INODE]), now=9.0)
        assert shard.get_inode(100).mtime == 9.0


class TestReads:
    def test_read_inode(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        res = shard.execute(subop([SubOpAction.READ_INODE]), 0.0)
        assert res.ok and res.value.handle == 100
        assert res.updates == []

    def test_read_missing_inode(self, shard):
        res = shard.execute(subop([SubOpAction.READ_INODE]), 0.0)
        assert res.errno == "ENOENT"

    def test_read_entry(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY]))
        res = shard.execute(subop([SubOpAction.READ_ENTRY]), 0.0)
        assert res.ok and res.value.target == 100


class TestAtomicity:
    def test_multi_action_all_or_nothing(self, shard):
        """A single-server create (insert + add inode) with a failing
        second action must leave no partial updates."""
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))  # pre-existing inode
        res = shard.execute(
            subop([SubOpAction.INSERT_ENTRY, SubOpAction.ADD_INODE]), 0.0
        )
        assert not res.ok and res.errno == "EEXIST"
        assert res.updates == []
        assert shard.get_dirent(1, "f") is None

    def test_scratch_view_sees_own_writes(self, shard):
        """Later actions of one sub-op observe earlier ones."""
        res = shard.execute(
            subop([SubOpAction.ADD_INODE, SubOpAction.INC_NLINK]), 0.0
        )
        assert res.ok
        shard.apply_deferred(res.updates)
        assert shard.get_inode(100).nlink == 2


class TestUndo:
    def test_undo_restores_exact_state(self, shard):
        apply_ok(shard, subop([SubOpAction.INSERT_ENTRY], name="pre", target=55))
        before = dict(shard.kv.items())
        res = apply_ok(shard, subop([SubOpAction.INSERT_ENTRY, SubOpAction.ADD_INODE]))
        shard.apply_deferred(res.undo)
        assert dict(shard.kv.items()) == before

    def test_undo_of_free_restores_inode(self, shard):
        apply_ok(shard, subop([SubOpAction.ADD_INODE]))
        inode_before = shard.get_inode(100)
        res = apply_ok(shard, subop([SubOpAction.DEC_NLINK_FREE]))
        assert shard.get_inode(100) is None
        shard.apply_deferred(res.undo)
        assert shard.get_inode(100) == inode_before

    def test_undo_order_is_reverse(self, shard):
        res = apply_ok(
            shard, subop([SubOpAction.INSERT_ENTRY, SubOpAction.ADD_INODE])
        )
        undone_keys = [k for k, _v in res.undo]
        applied_keys = [k for k, _v in res.updates]
        assert undone_keys == list(reversed(applied_keys))


class TestApplySync:
    def test_apply_sync_single_request(self, sim, shard):
        res = shard.execute(
            subop([SubOpAction.INSERT_ENTRY, SubOpAction.ADD_INODE]), 0.0
        )
        events = shard.apply_sync(res.updates)
        assert len(events) == 1
        sim.run()
        assert events[0].processed
        assert shard.get_dirent(1, "f") is not None

    def test_apply_sync_empty(self, shard):
        assert shard.apply_sync([]) == []
