import random
import selectors
import socket
import threading
import time

import pytest

from conftest import wait_until
from wingman.transport import (
    Broker,
    BrokerState,
    MemoryTransport,
    MqttClient,
    Publish,
    SocketTransport,
    TcpBrokerServer,
    broker_dispatch,
)
from wingman.transport import broker as broker_module
from wingman.transport import packets
from wingman.transport.broker import ROUTE_CACHE_TOPICS, _TcpConnection
from wingman.transport.client import TransportClosed
from wingman.transport.packets import (
    TOPIC_CACHE_TOPICS,
    ConnAck,
    Connect,
    PacketDecoder,
    PingReq,
    PingResp,
    SubAck,
    Subscribe,
    decode_remaining_length,
    encode_packet,
    encode_remaining_length,
    topic_matches,
)


def make_state(subs: dict[str, set[str]]) -> BrokerState:
    """Sessions whose ids stand in for their connections, so routes read as ids."""
    state = BrokerState()
    for client_id, filters in subs.items():
        state.add_session(client_id, client_id)
        for f in filters:
            state.add_subscription(client_id, f)
    return state


def test_dispatch_fans_out_to_each_subscriber():
    state = make_state({"a": {"tagteam/pose"}, "b": {"tagteam/pose"}})
    assert broker_dispatch(state, Publish("tagteam/pose", b"x")) == ["a", "b"]


def test_dispatch_deduplicates_multiple_matching_filters():
    state = make_state({"a": {"tagteam/#", "tagteam/pose"}})
    assert broker_dispatch(state, Publish("tagteam/pose", b"x")) == ["a"]


def test_dispatch_with_no_subscribers_drops_silently():
    state = make_state({"a": set()})
    assert broker_dispatch(state, Publish("tagteam/pose", b"x")) == []


def reference_targets(state: BrokerState, topic: str) -> list[str]:
    """Fan-out without the route cache: every filter of every session."""
    return [
        conn
        for client_id, conn in state.sessions.items()
        if any(topic_matches(f, topic) for f in state.subscriptions.get(client_id, ()))
    ]


def targets(state: BrokerState, topic: str) -> list[str]:
    return broker_dispatch(state, Publish(topic, b"x"))


def test_route_cache_follows_subscribe_and_removal():
    state = make_state({"a": {"t/+"}, "b": set(), "c": {"u"}})
    assert targets(state, "t/x") == ["a"]
    state.add_subscription("b", "t/x")  # after the first publish on t/x
    assert targets(state, "t/x") == ["a", "b"]
    state.add_subscription("c", "#")
    assert targets(state, "t/x") == ["a", "b", "c"]
    state.remove_session("a")
    assert targets(state, "t/x") == ["b", "c"]
    state.add_session("a", "a")  # back with no filters, now last in fan-out order
    state.add_subscription("a", "t/x")
    assert targets(state, "t/x") == ["b", "c", "a"]


def test_route_cache_matches_uncached_dispatch_under_random_changes():
    rng = random.Random(5)
    topics = ["tagteam/pose", "tagteam/cmd", "a/b", "a/b/c", "x"]
    filters = ["#", "tagteam/#", "tagteam/+", "tagteam/pose", "a/+", "a/+/c", "+/b/#", "x"]
    state = BrokerState()
    state.add_session("c0", "c0")
    for step in range(2000):
        roll = rng.random()
        client_id = f"c{rng.randrange(6)}"
        if roll < 0.1:
            state.add_session(client_id, client_id)
        elif roll < 0.15 and len(state.sessions) > 1:
            state.remove_session(client_id)
        elif roll < 0.3 and client_id in state.sessions:
            state.add_subscription(client_id, rng.choice(filters))
        else:
            topic = rng.choice(topics)
            assert targets(state, topic) == reference_targets(state, topic), step


def test_route_cache_size_is_capped():
    state = make_state({"a": {"t/+"}, "b": {"#"}})
    for i in range(ROUTE_CACHE_TOPICS * 3):
        assert targets(state, f"t/{i}") == ["a", "b"]
        assert targets(state, f"u/{i}") == ["b"]
        assert len(state._routes) <= ROUTE_CACHE_TOPICS


def test_topic_cache_size_is_capped():
    broker = Broker()
    received = []
    sub = MqttClient(MemoryTransport(broker), "sub", on_message=lambda t, p: received.append(t))
    sub.connect()
    sub.subscribe("#")
    pub = MqttClient(MemoryTransport(broker), "pub")
    pub.connect()
    topics = [f"load/{i}" for i in range(10_000)]
    for topic in topics:
        pub.publish(topic, b"x")
        assert len(packets._TOPIC_PREFIX) <= TOPIC_CACHE_TOPICS
        assert len(packets._PREFIX_TOPIC) <= TOPIC_CACHE_TOPICS
    assert received == topics


class RecordingSocket:
    """Stands in for a non-blocking TCP socket: keeps every chunk written to
    it. While ``room`` is not None it takes at most that many more bytes,
    as a peer that stops reading does once the kernel buffers are full."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.closed = False
        self.room: int | None = None

    def setsockopt(self, *args) -> None:
        pass

    def setblocking(self, flag: bool) -> None:
        assert flag is False

    def fileno(self) -> int:
        return -1 if self.closed else 1000

    def send(self, data) -> int:
        taken = len(data) if self.room is None else min(len(data), self.room)
        if data and not taken:
            raise BlockingIOError
        self.frames.append(bytes(data[:taken]))
        if self.room is not None:
            self.room -= taken
        return taken

    def close(self) -> None:
        self.closed = True


class RecordingSelector:
    """Stands in for the broker loop's selector: keeps the connections that
    wait for their socket to become writable."""

    def __init__(self) -> None:
        self.writers: set[_TcpConnection] = set()

    def modify(self, sock, events: int, conn: _TcpConnection) -> None:
        if events & selectors.EVENT_WRITE:
            self.writers.add(conn)
        else:
            self.writers.discard(conn)

    def unregister(self, sock) -> None:
        pass


class RecordingConnection(_TcpConnection):
    """The broker's TCP connection to a recording peer, which connects as
    ``client_id`` when one is given; ``frames`` are the bytes it received."""

    def __init__(self, broker: Broker, client_id: str | None = None) -> None:
        self.peer = RecordingSocket()
        self.selector = RecordingSelector()
        super().__init__(self.peer, self.selector)
        self.frames = self.peer.frames
        broker.register_connection(self)
        if client_id is not None:
            broker.data_received(self, encode_packet(Connect(client_id)))


def received_payloads(conn: RecordingConnection) -> list[bytes]:
    packets = PacketDecoder().feed(b"".join(conn.frames))
    return [packet.payload for packet in packets if isinstance(packet, Publish)]


def test_slow_peer_drops_whole_publishes_past_the_limit_but_keeps_acks(monkeypatch):
    monkeypatch.setattr(broker_module, "OUTBOUND_LIMIT", 10_000)
    broker = Broker()
    slow = RecordingConnection(broker, "slow")
    broker.data_received(slow, encode_packet(Subscribe(1, "t")))
    fast = RecordingConnection(broker, "fast")
    broker.data_received(fast, encode_packet(Subscribe(1, "t")))
    pub = RecordingConnection(broker, "pub")
    slow.peer.room = 1500  # takes one frame and a half, then nothing
    frames = [encode_packet(Publish("t", i.to_bytes(2, "big") + bytes(998))) for i in range(30)]
    for frame in frames:
        broker.data_received(pub, frame)
    pending = 2 * len(frames[0]) - 1500  # what the socket did not take of the second frame
    queued = (10_000 - pending) // len(frames[0])  # whole frames that fit behind it
    assert slow.dropped == 30 - 2 - queued
    assert len(slow.pending) <= 10_000
    assert slow.selector.writers == {slow}
    broker.data_received(slow, encode_packet(PingReq()))  # queued past the limit
    broker.data_received(slow, encode_packet(Subscribe(2, "u")))
    assert slow.dropped == 30 - 2 - queued
    assert fast.dropped == 0 and received_payloads(fast) == [frame[-1000:] for frame in frames]

    slow.peer.room = None
    slow.flush()
    assert slow.pending == bytearray() and slow.selector.writers == set()
    packets = PacketDecoder().feed(b"".join(slow.frames))
    assert packets[:2] == [ConnAck(), SubAck(1)]
    publishes = [packet.payload[:2] for packet in packets[2:-2]]
    assert publishes == [frame[-1000:-998] for frame in frames[: 2 + queued]]
    assert packets[-2:] == [PingResp(), SubAck(2)]


def test_broker_forwards_canonical_frames_and_re_encodes_the_rest(monkeypatch):
    encodes = []

    def counting_encode(packet):
        encodes.append(packet)
        return encode_packet(packet)

    broker = Broker()
    sub = RecordingConnection(broker, "sub")
    broker.data_received(sub, encode_packet(Subscribe(1, "t/#")))
    pub = RecordingConnection(broker, "pub")
    monkeypatch.setattr(broker_module, "encode_packet", counting_encode)
    for size in (0, 100, 300, 20_000):  # 1-, 2- and 3-byte remaining lengths
        canonical = encode_packet(Publish("t/a", bytes(size)))
        sub.frames.clear()
        broker.data_received(pub, canonical)
        assert sub.frames == [canonical]
        assert encodes == []  # forwarded as received

        remaining, rl_len = decode_remaining_length(canonical, 1)
        body = canonical[1 + rl_len :]
        varint = bytearray(encode_remaining_length(remaining))
        varint[-1] |= 0x80
        non_canonical = canonical[:1] + bytes(varint) + b"\x00" + body  # one byte too long
        sub.frames.clear()
        broker.data_received(pub, non_canonical)
        assert sub.frames == [canonical]
        assert encodes == [Publish("t/a", bytes(size))]
        encodes.clear()


def test_session_takeover_resets_its_routes():
    broker = Broker()
    order = []

    def client(client_id):
        c = MqttClient(
            MemoryTransport(broker), client_id, on_message=lambda t, p: order.append(client_id)
        )
        c.connect()
        return c

    first = client("dup")
    first.subscribe("t")
    other = client("other")
    other.subscribe("t")
    other.publish("t", b"1")
    assert order == ["dup", "other"]
    order.clear()
    second = client("dup")  # takes the session over, with no subscriptions yet
    other.publish("t", b"2")
    assert order == ["other"]
    order.clear()
    second.subscribe("t")
    other.publish("t", b"3")
    assert order == ["other", "dup"]


def test_callback_that_drops_a_later_subscriber_ends_its_delivery():
    broker = Broker()
    got = []
    late = MqttClient(MemoryTransport(broker), "late", on_message=lambda t, p: got.append("late"))

    def early_received(topic, payload):
        got.append("early")
        late.disconnect()  # inside the fan-out that would reach ``late`` next

    early = MqttClient(MemoryTransport(broker), "early", on_message=early_received)
    early.connect()
    early.subscribe("t")
    late.connect()
    late.subscribe("t")
    pub = MqttClient(MemoryTransport(broker), "pub")
    pub.connect()
    pub.publish("t", b"1")
    assert got == ["early"]
    assert len(broker.state.sessions) == 2


def test_memory_link_pub_sub():
    broker = Broker()
    received = []
    publisher = MqttClient(MemoryTransport(broker), "pub")
    subscriber = MqttClient(
        MemoryTransport(broker), "sub", on_message=lambda t, p: received.append((t, p))
    )
    publisher.connect()
    subscriber.connect()
    subscriber.subscribe("tagteam/#")
    publisher.publish("tagteam/pose", b"one")
    publisher.publish("tagteam/cues", b"two")
    publisher.publish("other/topic", b"ignored")
    assert received == [("tagteam/pose", b"one"), ("tagteam/cues", b"two")]


def test_memory_link_self_subscription_and_order():
    broker = Broker()
    received = []
    client = MqttClient(MemoryTransport(broker), "loop", on_message=lambda t, p: received.append(p))
    client.connect()
    client.subscribe("x")
    for i in range(20):
        client.publish("x", str(i).encode())
    assert received == [str(i).encode() for i in range(20)]


def test_duplicate_client_id_replaces_old_session():
    broker = Broker()
    first = MqttClient(MemoryTransport(broker), "dup")
    first.connect()
    assert len(broker.state.sessions) == 1
    second = MqttClient(MemoryTransport(broker), "dup")
    second.connect()
    assert len(broker.state.sessions) == 1
    second.subscribe("t")
    received = []
    other = MqttClient(MemoryTransport(broker), "other", on_message=lambda t, p: received.append(p))
    other.connect()
    other.publish("t", b"hello")
    # delivery goes to the surviving session only
    assert broker.state.subscriptions == {"dup": {"t"}}


def test_malformed_bytes_kill_only_that_session():
    broker = Broker()
    good = RecordingConnection(broker, "good")
    broker.data_received(good, encode_packet(Subscribe(1, "t")))

    bad = RecordingConnection(broker)
    broker.data_received(bad, bytes([0xF0, 0x00]))  # reserved type straight away
    assert len(broker.state.sessions) == 1  # bad connection never became a session
    assert bad.peer.closed and bad.frames == []

    broker.data_received(good, encode_packet(Publish("t", b"still alive")))
    assert received_payloads(good) == [b"still alive"]
    assert not good.peer.closed


def test_publish_before_connect_drops_session():
    broker = Broker()
    conn = RecordingConnection(broker)
    broker.data_received(conn, encode_packet(Publish("t", b"x")))
    assert len(broker.state.sessions) == 0
    assert conn.peer.closed and conn.frames == []


def test_loopback_protocol_violation_kills_only_that_session():
    broker = Broker()
    received = []
    good = MqttClient(MemoryTransport(broker), "good", on_message=lambda t, p: received.append(p))
    good.connect()
    good.subscribe("t")

    bad = MemoryTransport(broker)
    bad.send(Publish("t", b"before connect"))
    assert len(broker.state.sessions) == 1
    with pytest.raises(TransportClosed):
        bad.send(Connect("bad"))

    good.publish("t", b"still alive")
    assert received == [b"still alive"]


def test_loopback_delivers_the_published_payload_to_every_subscriber():
    broker = Broker()
    received = []
    for name in ("a", "b"):
        sub = MqttClient(MemoryTransport(broker), name, on_message=lambda t, p: received.append(p))
        sub.connect()
        sub.subscribe("t")
    payload = bytes(100)
    pub = MqttClient(MemoryTransport(broker), "pub")
    pub.connect()
    pub.publish("t", payload)
    assert len(received) == 2 and all(p is payload for p in received)


def test_tcp_round_trip():
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    try:
        received = []
        sub = MqttClient(
            SocketTransport("127.0.0.1", server.port), "sub",
            on_message=lambda t, p: received.append((t, p)),
        )
        pub = MqttClient(SocketTransport("127.0.0.1", server.port), "pub")
        sub.connect()
        pub.connect()
        sub.subscribe("tagteam/+")
        pub.ping()
        for i in range(10):
            pub.publish("tagteam/pose", f"m{i}".encode())
        assert wait_until(lambda: len(received) == 10)
        assert [p for _, p in received] == [f"m{i}".encode() for i in range(10)]
        sub.disconnect()
        pub.disconnect()
        assert wait_until(lambda: len(broker.state.sessions) == 0)
    finally:
        server.stop()


def broker_threads(before: set[threading.Thread]) -> list[str]:
    return [t.name for t in set(threading.enumerate()) - before if t.name.startswith("broker-")]


def test_tcp_stop_is_prompt_and_leaves_no_broker_threads():
    before = set(threading.enumerate())
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    clients = [MqttClient(SocketTransport("127.0.0.1", server.port), f"c{i}") for i in range(3)]
    try:
        for client in clients:
            client.connect()
        serving = broker_threads(before)
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        sessions = len(broker.state.sessions)
    finally:
        for client in clients:
            client.disconnect()
    assert serving == ["broker-loop"]  # one thread serves every connection
    assert elapsed < 0.5
    assert sessions == 0
    assert broker_threads(before) == []


def registered_connections(server: TcpBrokerServer) -> int:
    """Connections the broker loop still serves: its selector's keys
    besides the listener and the wake-up socket."""
    return len(server._selector.get_map()) - 2


def test_tcp_server_forgets_closed_connections():
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    try:
        for i in range(50):
            client = MqttClient(SocketTransport("127.0.0.1", server.port), f"c{i}")
            client.connect()
            client.disconnect()
        assert wait_until(lambda: registered_connections(server) == 0)
        assert wait_until(lambda: len(broker.state.sessions) == 0)
    finally:
        server.stop()


def test_tcp_subscriber_that_stops_reading_stalls_nobody():
    n, size = 20_000, 2048
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    received: list[int] = []
    healthy = MqttClient(
        SocketTransport("127.0.0.1", server.port), "healthy",
        on_message=lambda t, p: received.append(int.from_bytes(p[:4], "big")),
    )
    pub = MqttClient(SocketTransport("127.0.0.1", server.port), "pub")
    stuck = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connect: a small window
    stuck.settimeout(10.0)
    decoder = PacketDecoder()

    def read_until(kind) -> list:
        packets: list = []
        while not packets or not isinstance(packets[-1], kind):
            data = stuck.recv(65536)
            assert data, "broker closed the stuck connection"
            packets += decoder.feed(data)
        return packets

    try:
        healthy.connect()
        healthy.subscribe("load/#")
        pub.connect()
        stuck.connect(("127.0.0.1", server.port))
        stuck.sendall(encode_packet(Connect("stuck")))
        assert read_until(ConnAck) == [ConnAck()]
        stuck.sendall(encode_packet(Subscribe(1, "#")))
        assert read_until(SubAck) == [SubAck(1)]

        def publish_all() -> None:
            for i in range(n):
                pub.publish("load/x", i.to_bytes(4, "big") + bytes(size - 4))

        publisher = threading.Thread(target=publish_all, daemon=True)
        publisher.start()
        publisher.join(timeout=30.0)
        assert not publisher.is_alive(), "the publisher stalled"
        assert wait_until(lambda: len(received) == n, timeout=30.0)
        assert received == list(range(n))

        stuck.sendall(encode_packet(PingReq()))  # answered after the last publish
        packets = read_until(PingResp)
        dropped = broker.state.sessions["stuck"].dropped
        assert dropped >= 1
        assert len(decoder._buffer) == 0
        assert all(isinstance(packet, Publish) for packet in packets[:-1])
        indices = [int.from_bytes(packet.payload[:4], "big") for packet in packets[:-1]]
        assert len(indices) == n - dropped
        assert indices == sorted(set(indices))  # in order, none twice
    finally:
        stuck.close()
        pub.disconnect()
        healthy.disconnect()
        server.stop()


def test_tcp_concurrent_publishers_preserve_per_publisher_order():
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    try:
        received = []
        sub = MqttClient(
            SocketTransport("127.0.0.1", server.port), "sub",
            on_message=lambda t, p: received.append(p),
        )
        try:
            sub.connect()
            sub.subscribe("tagteam/pose")

            def pump(name: str) -> None:
                pub = MqttClient(SocketTransport("127.0.0.1", server.port), name)
                pub.connect()
                for i in range(200):
                    pub.publish("tagteam/pose", f"{name}:{i}".encode())
                pub.disconnect()

            threads = [threading.Thread(target=pump, args=(f"p{k}",)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert wait_until(lambda: len(received) == 400)
            assert len(set(received)) == 400  # no duplication
            for name in ("p0", "p1"):
                ordered = [m for m in received if m.startswith(f"{name}:".encode())]
                assert ordered == [f"{name}:{i}".encode() for i in range(200)]
        finally:
            sub.disconnect()
    finally:
        server.stop()


def test_tcp_bind_failure_raises():
    broker = Broker()
    first = TcpBrokerServer(broker, "127.0.0.1", 0)
    first.start()
    try:
        second = TcpBrokerServer(Broker(), "127.0.0.1", first.port)
        with pytest.raises(OSError):
            second.start()
    finally:
        first.stop()


# the decoder refuses a reserved packet type; the client refuses a CONNECT, which no broker sends
@pytest.mark.parametrize("sent", [b"\x00\x00", encode_packet(Connect("x"))], ids=["reserved-type", "connect"])
def test_tcp_reader_keeps_a_protocol_fault_and_closes_the_link(sent, monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        transport = SocketTransport("127.0.0.1", listener.getsockname()[1])
        MqttClient(transport, "c")
        peer, _ = listener.accept()
        with peer:
            peer.sendall(sent)
            assert wait_until(lambda: transport.fault is not None)
            assert isinstance(transport.fault, packets.ProtocolError)
            assert peer.recv(16) == b""  # the client closed the link
    with pytest.raises(TransportClosed):
        transport.send(PingReq())
    assert hooked == []


def test_tcp_reader_keeps_a_callback_fault_and_the_broker_drops_the_session(monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    broker = Broker()
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    try:
        def bad_callback(topic, payload):
            raise RuntimeError("subscriber bug")

        sub = MqttClient(SocketTransport("127.0.0.1", server.port), "sub", on_message=bad_callback)
        pub = MqttClient(SocketTransport("127.0.0.1", server.port), "pub")
        sub.connect()
        pub.connect()
        sub.subscribe("t")
        pub.publish("t", b"x")
        assert wait_until(lambda: sub.transport.fault is not None)
        assert repr(sub.transport.fault) == "RuntimeError('subscriber bug')"
        assert wait_until(lambda: set(broker.state.sessions) == {"pub"})
        sub.disconnect()
        pub.disconnect()
    finally:
        server.stop()
    assert hooked == []
