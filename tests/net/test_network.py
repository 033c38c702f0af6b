"""Unit tests for the network fabric, nodes, RPC, and stats."""

import random
from collections import Counter
from heapq import heappush
from math import inf

import pytest

from repro import SimParams
from repro.net import Message, MessageKind, Network, Node
from repro.net.network import UnknownNode
from repro.sim import Simulator


@pytest.fixture
def net(sim, params):
    return Network(sim, params)


@pytest.fixture
def pair(sim, net):
    return Node(sim, net, "a"), Node(sim, net, "b")


class TestDelivery:
    def test_message_arrives_after_latency(self, sim, params, net, pair):
        a, b = pair
        a.send("b", MessageKind.REQ, {"x": 1})
        sim.run()
        msg = b.inbox.get().value
        assert msg.kind is MessageKind.REQ
        assert msg.payload == {"x": 1}
        assert sim.now == pytest.approx(
            params.net_latency + params.msg_base_size * params.net_byte_time
        )

    def test_bigger_messages_take_longer(self, sim, params, net, pair):
        a, b = pair
        small = Message(MessageKind.REQ, "a", "b", size=100)
        big = Message(MessageKind.REQ, "a", "b", size=1_000_000)
        assert net.delay_for(big) > net.delay_for(small)

    def test_unknown_destination_raises(self, net, pair):
        a, _b = pair
        with pytest.raises(UnknownNode):
            a.send("nobody", MessageKind.REQ)

    def test_duplicate_node_id_rejected(self, sim, net, pair):
        with pytest.raises(ValueError):
            Node(sim, net, "a")

    def test_stats_count_messages(self, sim, net, pair):
        a, b = pair
        for _ in range(3):
            a.send("b", MessageKind.REQ)
        b.send("a", MessageKind.RESP)
        sim.run()
        assert net.stats.total == 4
        assert net.stats.count(MessageKind.REQ) == 3
        assert net.stats.count(MessageKind.RESP) == 1
        net.stats.reset()
        assert net.stats.total == 0

    def test_stats_exclude_liveness_probes(self, sim, net, pair):
        """PING/PONG are background traffic: counted by kind only, kept
        out of TOTAL and TOTAL_BYTES (the paper's Table IV counts the
        replay's own messages)."""
        a, b = pair
        a.send("b", MessageKind.PING)
        b.send("a", MessageKind.PONG)
        a.send("b", MessageKind.REQ)
        sim.run()
        assert net.stats.count(MessageKind.PING) == 1
        assert net.stats.count(MessageKind.PONG) == 1
        assert net.stats.total == 1
        req_bytes = net.stats.total_bytes
        assert req_bytes > 0

        snap = net.stats.snapshot()
        assert snap["TOTAL"] == 1
        assert snap["TOTAL_BYTES"] == req_bytes
        assert snap[MessageKind.PING.value] == 1

    def test_snapshot_has_totals_when_empty(self, net):
        snap = net.stats.snapshot()
        assert snap["TOTAL"] == 0
        assert snap["TOTAL_BYTES"] == 0


class TestRpc:
    def test_request_response_matching(self, sim, net, pair):
        a, b = pair

        def server(sim):
            req = yield b.inbox.get()
            b.send_reply(req, MessageKind.RESP, {"answer": 42})

        def client(sim):
            resp = yield a.request("b", MessageKind.REQ, {"q": "?"})
            return resp.payload["answer"]

        sim.process(server(sim))
        p = sim.process(client(sim))
        sim.run()
        assert p.value == 42

    def test_interleaved_rpcs_route_correctly(self, sim, net, pair):
        a, b = pair

        def server(sim):
            reqs = []
            for _ in range(2):
                req = yield b.inbox.get()
                reqs.append(req)
            # reply in reverse order
            for req in reversed(reqs):
                b.send_reply(req, MessageKind.RESP, {"echo": req.payload["n"]})

        def client(sim, n):
            resp = yield a.request("b", MessageKind.REQ, {"n": n})
            return resp.payload["echo"]

        sim.process(server(sim))
        p1 = sim.process(client(sim, 1))
        p2 = sim.process(client(sim, 2))
        sim.run()
        assert (p1.value, p2.value) == (1, 2)

    def test_unsolicited_reply_goes_to_inbox(self, sim, net, pair):
        a, b = pair
        msg = Message(MessageKind.RESP, "b", "a", reply_to=12345)
        net.send(msg)
        sim.run()
        assert len(a.inbox) == 1


class TestDeadlines:
    """One deadline table per node, one armed kernel handle."""

    def test_lost_reply_times_out_exactly_and_forgets_the_rpc(self, sim, net, pair):
        a, b = pair
        net.fault_hook = lambda msg: ("drop",) if msg.kind is MessageKind.RESP else None

        def server(sim):
            req = yield b.inbox.get()
            b.send_reply(req, MessageKind.RESP)

        def client(sim):
            sent = sim.now
            try:
                yield a.request("b", MessageKind.REQ, timeout=0.5)
            except TimeoutError:
                return sim.now - sent

        sim.process(server(sim))
        p = sim.process(client(sim))
        sim.run()
        assert p.value == 0.5
        assert a._pending_rpcs == {} and a._deadlines == {}

    def test_answered_request_never_fires(self, sim, net, pair):
        a, b = pair
        fired = []
        a._rpc_expired = fired.append  # the table calls the bound method

        def server(sim):
            req = yield b.inbox.get()
            b.send_reply(req, MessageKind.RESP, {"ok": 1})

        def client(sim):
            resp = yield a.request("b", MessageKind.REQ, timeout=0.5)
            return resp.payload["ok"]

        sim.process(server(sim))
        p = sim.process(client(sim))
        sim.run(until=5.0)
        assert p.value == 1 and fired == [] and a._deadlines == {}

    def test_nodes_keep_independent_tables(self, sim, pair):
        a, b = pair
        fired = []
        a.set_deadline("x", 2.0, lambda k: fired.append((sim.now, "a", k)))
        b.set_deadline("x", 1.0, lambda k: fired.append((sim.now, "b", k)))
        b.set_deadline("y", 3.0, lambda k: fired.append((sim.now, "b", k)))
        a._deadlines.pop("x")
        sim.run()
        assert fired == [(1.0, "b", "x"), (3.0, "b", "y")]

    def test_earlier_deadline_added_later_fires_first(self, sim, pair):
        a, _b = pair
        fired = []
        a.set_deadline("late", 5.0, lambda k: fired.append((sim.now, k)))
        sim.run(until=1.0)
        a.set_deadline("early", 2.0, lambda k: fired.append((sim.now, k)))
        sim.run()
        assert fired == [(2.0, "early"), (5.0, "late")]

    def test_extended_deadline_fires_once_at_its_new_time(self, sim, pair):
        a, _b = pair
        fired = []
        a.set_deadline("k", 1.0, lambda k: fired.append(sim.now))
        a.extend_deadline("k", 4.0)
        sim.run()
        assert fired == [4.0]

    def test_expire_returns_the_next_deadline(self, sim, pair):
        a, _b = pair
        fired = []

        def expire(k):
            fired.append(sim.now)
            return sim.now + 1.0 if len(fired) < 3 else None

        a.set_deadline("k", 1.0, expire)
        sim.run()
        assert fired == [1.0, 2.0, 3.0] and a._deadlines == {}

    def test_crash_empties_the_table(self, sim, pair):
        a, _b = pair
        fired = []
        a.set_deadline("k", 1.0, fired.append)
        a.crash()
        sim.run()
        assert fired == [] and a._deadlines == {}


class _LazyNode(Node):
    """Reference: the deadline table with lazy deletion only."""

    def set_deadline(self, key, at, expire):
        self._deadlines[key] = [at, expire]
        heappush(self._deadline_heap, (at, next(self._deadline_seq), key))
        if at < self._timer_at:
            self._timer_at = at
            self.sim.at_h(at, self._on_deadline)


def _random_deadline_run(node_cls, seed, steps=4000):
    """A seeded set / extend / clear / run sequence on one node; returns
    the expire-callback order, the ``at_h`` times, the end state and how
    far past the compaction bound the heap ever was after a set."""
    sim = Simulator()
    node = node_cls(sim, Network(sim, SimParams()), "a")
    arms = []
    at_h = sim.at_h
    sim.at_h = lambda at, cb: arms.append(at) or at_h(at, cb)
    rng = random.Random(seed)
    fired = []
    fires = Counter()

    def expire(key):
        fired.append((sim.now, key))
        fires[key] += 1
        # Re-arm a key up to key % 3 times: ties and re-pushes both occur.
        return sim.now + 0.5 if fires[key] <= key % 3 else None

    excess = -inf
    for key in range(steps):
        live = sorted(node._deadlines)
        action = rng.random()
        # Deadlines on a 0.25 grid collide, so ties are ordered by seq.
        at = sim.now + 0.25 * rng.randint(1, 60)
        if action < 0.45 or not live:
            node.set_deadline(key, at, expire)
            excess = max(excess, len(node._deadline_heap)
                         - 2 * len(node._deadlines) - 64)
        elif action < 0.50:
            node.extend_deadline(rng.choice(live), at)
        elif action < 0.95:
            node._deadlines.pop(rng.choice(live))
        else:
            sim.run(until=sim.now + 0.25 * rng.randint(0, 2))
    sim.run(until=sim.now + 30.0)
    return fired, arms, (sim.now, sim.seq, sim.events_processed), excess


class TestDeadlineHeap:
    def test_cleared_deadlines_keep_the_heap_within_bound(self, sim, net, pair):
        a, b = pair
        worst = []

        def server(sim):
            while True:
                req = yield b.inbox.get()
                b.send_reply(req, MessageKind.RESP)

        def client(sim):
            for _ in range(2000):
                rpc = a.request("b", MessageKind.REQ, timeout=1.0)
                worst.append(len(a._deadline_heap) - 2 * len(a._deadlines))
                yield rpc  # the reply clears the deadline

        sim.process(server(sim))
        p = sim.process(client(sim))
        sim.run_until(p)
        assert max(worst) <= 64 and a._deadlines == {}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compaction_changes_no_fire_order_or_time(self, seed):
        got = _random_deadline_run(Node, seed)
        ref = _random_deadline_run(_LazyNode, seed)
        assert got[:3] == ref[:3]
        assert len(got[0]) > 50 and len(got[1]) > 100
        # The heap was compacted: the reference outgrew the bound.
        assert got[3] <= 0 < ref[3]


class TestCrash:
    def test_crashed_node_drops_messages(self, sim, net, pair):
        a, b = pair
        b.crash()
        a.send("b", MessageKind.REQ)
        sim.run()
        assert len(b.inbox) == 0

    def test_crash_fails_pending_rpcs(self, sim, net, pair):
        a, b = pair

        def client(sim):
            try:
                yield a.request("b", MessageKind.REQ)
            except ConnectionError:
                return "failed"

        def crasher(sim):
            # Crash "a" once its request is on the wire (b never answers,
            # so the RPC would otherwise hang forever).
            yield sim.timeout(1e-6)
            a.crash()

        p = sim.process(client(sim))
        sim.process(crasher(sim))
        sim.run()
        assert p.value == "failed"

    def test_reboot_restores_delivery(self, sim, net, pair):
        a, b = pair
        b.crash()
        b.reboot()
        a.send("b", MessageKind.REQ)
        sim.run()
        assert len(b.inbox) == 1

    def test_each_delivery_is_a_probe_coordinate(self, sim, net, pair):
        """Two back-to-back sends arriving at the same instant are two
        timeline entries: a crash aimed between them lands between them."""
        a, b = pair
        c = Node(sim, net, "c")
        a.send("b", MessageKind.REQ)
        a.send("c", MessageKind.REQ)
        sim.arm_probe(sim.events_processed + 1, c.crash)
        sim.run()
        assert len(b.inbox) == 1
        assert net.stats.dead_letters == 1


class TestMessage:
    def test_reply_links_ids(self):
        req = Message(MessageKind.REQ, "a", "b", {"x": 1})
        resp = req.reply(MessageKind.RESP, {"y": 2})
        assert resp.reply_to == req.msg_id
        assert resp.src == "b" and resp.dst == "a"

    def test_msg_ids_unique(self):
        m1 = Message(MessageKind.REQ, "a", "b")
        m2 = Message(MessageKind.REQ, "a", "b")
        assert m1.msg_id != m2.msg_id


class TestTable3:
    def test_paper_message_taxonomy_present(self):
        """Table III's eight message kinds all exist with src/dst roles."""
        from repro.net import PROTOCOL_MESSAGE_TABLE

        expected = {
            MessageKind.VOTE: ("Coor", "Parti"),
            MessageKind.COMMIT_REQ: ("Coor", "Parti"),
            MessageKind.ABORT_REQ: ("Coor", "Parti"),
            MessageKind.ACK: ("Parti", "Coor"),
            MessageKind.L_COM: ("Pro", "Coor"),
            MessageKind.ALL_NO: ("Coor", "Pro"),
        }
        for kind, (src, dst) in expected.items():
            _sig, tsrc, tdst = PROTOCOL_MESSAGE_TABLE[kind]
            assert tsrc == src and tdst == dst
        assert MessageKind.YES in PROTOCOL_MESSAGE_TABLE
        assert MessageKind.NO in PROTOCOL_MESSAGE_TABLE
