"""Synthetic trace generator matching the paper's trace statistics.

For HPC (checkpoint) traces every process works in one "largely common
directory" and owns its state files exclusively; for NFS traces every
process (user) has a home directory.  A tuned fraction of operations
targets a shared file pool — that is where conflicts come from ("as
conflicts can only occur on shared files").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.cluster.builder import ROOT_HANDLE
from repro.fs.ops import FileOperation, OpType
from repro.workloads.spec import TraceSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.cluster.client import ClientProcess

#: A file known to a process: (parent handle, name, inode handle).
FileRef = Tuple[int, str, int]


@dataclass
class _ProcessState:
    """Per-process generator state: its directory and its files."""

    home: int
    files: List[FileRef] = field(default_factory=list)
    dirs: List[Tuple[int, str, int]] = field(default_factory=list)
    serial: int = 0

    def fresh_name(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"


class TraceWorkload:
    """Builds per-process operation streams for one trace spec."""

    def __init__(self, spec: TraceSpec, scale: float = 0.01, seed: int = 0) -> None:
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        self.spec = spec
        self.scale = scale
        self.seed = seed
        #: Filled by :meth:`build` — handles of preloaded directories.
        self.known_dirs: List[int] = []

    def total_ops(self, num_processes: int) -> int:
        per_proc = max(1, int(self.spec.total_ops * self.scale) // num_processes)
        return per_proc * num_processes

    def build(
        self, cluster: "Cluster", processes: List["ClientProcess"]
    ) -> Dict["ClientProcess", List[FileOperation]]:
        """Preload the namespace and generate each process's stream."""
        spec = self.spec
        rng = cluster.rngs.stream(f"trace:{spec.name}:{self.seed}")
        nproc = len(processes)
        per_proc = max(1, int(spec.total_ops * self.scale) // nproc)

        # Namespace setup: one common checkpoint dir (HPC) or per-user
        # homes (NFS), plus the shared pool everybody may touch.
        if spec.family == "hpc":
            common = cluster.preload_dir(ROOT_HANDLE, f"{spec.name}-ckpt")
            self.known_dirs.append(common)
            homes = {p: common for p in processes}
        else:
            homes = {}
            for i, p in enumerate(processes):
                h = cluster.preload_dir(ROOT_HANDLE, f"{spec.name}-u{i}")
                self.known_dirs.append(h)
                homes[p] = h
        shared_dir = cluster.preload_dir(ROOT_HANDLE, f"{spec.name}-shared")
        self.known_dirs.append(shared_dir)
        pool_size = max(8, nproc)
        shared_pool: List[FileRef] = []
        for i in range(pool_size):
            name = f"pool{i}"
            handle = cluster.preload_file(shared_dir, name)
            shared_pool.append((shared_dir, name, handle))

        # Seed each process with a few preexisting files so read ops
        # have targets from the first instant.
        states: Dict["ClientProcess", _ProcessState] = {}
        for i, p in enumerate(processes):
            st = _ProcessState(home=homes[p])
            for j in range(4):
                name = f"p{i}-seed{j}"
                handle = cluster.preload_file(st.home, name)
                st.files.append((st.home, name, handle))
            states[p] = st

        mix_ops = list(spec.op_mix.keys())
        mix_weights = list(spec.op_mix.values())

        streams: Dict["ClientProcess", List[FileOperation]] = {}
        for i, p in enumerate(processes):
            st = states[p]
            ops: List[FileOperation] = []
            for _ in range(per_proc):
                op_type = rng.choices(mix_ops, weights=mix_weights)[0]
                use_shared = rng.random() < spec.shared_prob
                op = self._gen_op(
                    cluster, p, st, op_type, i, rng, shared_pool if use_shared else None
                )
                ops.append(op)
            streams[p] = ops
        return streams

    # -- one operation ---------------------------------------------------------

    def _gen_op(self, cluster, proc, st: _ProcessState, op_type: OpType,
                pidx: int, rng, shared_pool) -> FileOperation:
        def pick_file() -> FileRef:
            if shared_pool is not None:
                return rng.choice(shared_pool)
            if st.files:
                return rng.choice(st.files)
            return shared_pool[0] if shared_pool else self._mint_file(cluster, st, pidx)

        if op_type is OpType.CREATE:
            if shared_pool is not None:
                # A shared-pool "create" is a new link to a pool file —
                # the update side of the conflicts Table II measures.
                _p, _n, handle = rng.choice(shared_pool)
                name = st.fresh_name(f"p{pidx}-sl")
                st.files.append((st.home, name, handle))
                return FileOperation(OpType.LINK, proc.new_op_id(),
                                     parent=st.home, name=name, target=handle)
            name = st.fresh_name(f"p{pidx}-f")
            handle = cluster.placement.allocate_handle()
            st.files.append((st.home, name, handle))
            return FileOperation(OpType.CREATE, proc.new_op_id(),
                                 parent=st.home, name=name, target=handle)

        if op_type in (OpType.REMOVE, OpType.UNLINK):
            if shared_pool is None and st.files:
                parent, name, handle = st.files.pop(rng.randrange(len(st.files)))
            else:
                # Never actually delete pool files (they must survive for
                # other processes); remove a fresh private file instead,
                # but count the access as shared via a stat-style touch.
                parent, name, handle = self._mint_file(cluster, st, pidx)
            return FileOperation(op_type, proc.new_op_id(),
                                 parent=parent, name=name, target=handle)

        if op_type is OpType.MKDIR:
            name = st.fresh_name(f"p{pidx}-d")
            handle = cluster.placement.allocate_handle()
            st.dirs.append((st.home, name, handle))
            return FileOperation(OpType.MKDIR, proc.new_op_id(),
                                 parent=st.home, name=name, target=handle)

        if op_type is OpType.RMDIR:
            if st.dirs:
                parent, name, handle = st.dirs.pop(rng.randrange(len(st.dirs)))
            else:
                name = st.fresh_name(f"p{pidx}-d")
                handle = cluster.placement.allocate_handle()
                return FileOperation(OpType.MKDIR, proc.new_op_id(),
                                     parent=st.home, name=name, target=handle)
            return FileOperation(OpType.RMDIR, proc.new_op_id(),
                                 parent=parent, name=name, target=handle)

        if op_type is OpType.LINK:
            _parent, _name, handle = pick_file()
            name = st.fresh_name(f"p{pidx}-l")
            st.files.append((st.home, name, handle))
            return FileOperation(OpType.LINK, proc.new_op_id(),
                                 parent=st.home, name=name, target=handle)

        if op_type is OpType.STAT:
            _parent, _name, handle = pick_file()
            return FileOperation(OpType.STAT, proc.new_op_id(), target=handle)

        if op_type is OpType.LOOKUP:
            parent, name, _handle = pick_file()
            return FileOperation(OpType.LOOKUP, proc.new_op_id(),
                                 parent=parent, name=name)

        if op_type is OpType.SETATTR:
            _parent, _name, handle = pick_file()
            return FileOperation(OpType.SETATTR, proc.new_op_id(), target=handle)

        if op_type is OpType.READDIR:
            return FileOperation(OpType.READDIR, proc.new_op_id(), parent=st.home)

        raise AssertionError(f"unhandled op type {op_type}")  # pragma: no cover

    def _mint_file(self, cluster, st: _ProcessState, pidx: int) -> FileRef:
        """Preload one more private file when a process runs dry."""
        name = st.fresh_name(f"p{pidx}-x")
        handle = cluster.preload_file(st.home, name)
        return (st.home, name, handle)
