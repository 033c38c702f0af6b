"""Unit tests for the network fabric, nodes, RPC, and stats."""

import pytest

from repro.net import Message, MessageKind, Network, Node
from repro.net.network import UnknownNode


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
