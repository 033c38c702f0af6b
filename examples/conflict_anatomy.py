#!/usr/bin/env python3
"""Anatomy of a Cx conflict: watch an immediate commitment happen.

Process A links a shared file (a cross-server update, leaving the
file's objects *active* until the lazy commitment); process B stats the
same file a moment later.  B's read hits the active object, blocks, and
forces an *immediate commitment* of A's operation — the paper's §III.C
in action, narrated message by message.

Run:  python examples/conflict_anatomy.py
"""

from repro import Cluster, ROOT_HANDLE, SimParams, get_protocol
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind


def main() -> None:
    cluster = Cluster.build(
        num_servers=4,
        num_clients=2,
        protocol=get_protocol("cx"),
        # Huge timeout: without the conflict, A's commitment would wait
        # a full minute — the conflict is what forces it NOW.
        params=SimParams(commit_timeout=60.0),
        seed=5,
    )
    d = cluster.preload_dir(ROOT_HANDLE, "shared")
    shared = cluster.preload_file(d, "hot-file")
    pa = cluster.client_process(0, 0)
    pb = cluster.client_process(1, 0)

    # Narrate the protocol traffic.
    trace = []
    original_send = cluster.network.send

    def narrating_send(msg):
        if msg.kind in (MessageKind.VOTE, MessageKind.COMMIT_REQ,
                        MessageKind.ACK, MessageKind.L_COM):
            trace.append(
                f"  t={cluster.sim.now * 1e3:7.3f} ms  "
                f"{msg.src:>8s} -> {msg.dst:<8s} {msg.kind.value}"
            )
        return original_send(msg)

    cluster.network.send = narrating_send

    # Find a link name that makes the operation cross-server.
    for i in range(128):
        name = f"link{i}"
        if cluster.placement.is_cross_server(d, name, shared):
            break

    op_a = FileOperation(OpType.LINK, pa.new_op_id(), parent=d, name=name,
                         target=shared)
    op_b = FileOperation(OpType.STAT, pb.new_op_id(), target=shared)

    runner_a = cluster.run_ops(pa, [op_a])

    def b_arrives_later():
        yield cluster.sim.timeout(0.002)  # A has executed, not committed
        result = yield from pb.perform(op_b)
        return result

    runner_b = cluster.sim.process(b_arrives_later())
    res_a = cluster.sim.run_until(runner_a)[0]
    res_b = cluster.sim.run_until(runner_b)

    rec_a = next(r for r in cluster.metrics.ops if r.op_id == op_a.op_id)
    rec_b = next(r for r in cluster.metrics.ops if r.op_id == op_b.op_id)

    print(f"A: link '{name}' -> hot-file   ok={res_a.ok} "
          f"latency={rec_a.latency * 1e3:.3f} ms (answered pre-commitment)")
    print(f"B: stat hot-file               ok={res_b.ok} "
          f"conflicted={res_b.conflicted} "
          f"latency={rec_b.latency * 1e3:.3f} ms (paid the immediate commitment)")
    print(f"B observed nlink={res_b.value.nlink} — the committed value.\n")
    print("commitment traffic the conflict forced:")
    print("\n".join(trace))
    immediate = cluster.metrics_snapshot()["cluster"].get("commit.immediate_ops", 0)
    print(f"\nimmediate commitments: {immediate} "
          f"(with no conflict this would have been 0 for a whole minute)")


if __name__ == "__main__":
    main()
