"""QoS-0 broker: session registry, topic fan-out, TCP front-end.

The broker core takes packet objects from connections (anything with
``send(packet)`` and ``close()``). The in-process loopback passes objects
both ways and never frames them; the codec runs only on TCP links, where
``data_received`` decodes a stream and ``_TcpConnection`` writes frames.

One registry, ``BrokerState.sessions``, maps each client id to its live
connection, and the route cache holds each topic's target connections, so
a fan-out sends with no lookup by id. A connection dropped during a
fan-out (a loopback subscriber's callback may disconnect a later one) gets
nothing more.

A protocol violation terminates the offending session only; the broker
survives. Dispatch for a single publish is atomic with respect to
subscription changes. All subscribers get the same ``Publish`` object; a
TCP peer gets the frame it arrived in, byte for byte, re-encoded only if
its remaining length is not minimal, so TCP peers get canonical frames.

One thread, ``broker-loop``, serves every TCP connection with a
``selectors`` loop: it accepts, reads, hands the bytes to the broker and
writes. Sends never block. Bytes a peer's socket does not take at once wait
in that connection's buffer; once it holds ``OUTBOUND_LIMIT`` bytes, each
further PUBLISH for that peer is dropped whole and counted (QoS 0 is "at
most once"), while CONNACK, SUBACK and PINGRESP always queue. So a peer
that stops reading loses its own messages and stalls nobody else.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
from dataclasses import dataclass, field
from typing import Callable, Protocol

from wingman.transport.packets import (
    ConnAck,
    Connect,
    Disconnect,
    Packet,
    PacketDecoder,
    PingReq,
    PingResp,
    ProtocolError,
    Publish,
    SubAck,
    Subscribe,
    encode_packet,
    topic_matches,
    validate_filter,
)

logger = logging.getLogger(__name__)

DEFAULT_PORT = 1883
OUTBOUND_LIMIT = 1 << 20  # bytes a TCP peer may leave unread before its publishes drop


class Connection(Protocol):
    def send(self, packet: Packet) -> None: ...

    def close(self) -> None: ...


# Distinct topics whose fan-out lists BrokerState keeps; a peer that
# publishes to more topics than this only empties the cache.
ROUTE_CACHE_TOPICS = 256


@dataclass
class BrokerState:
    """Live sessions (client id -> connection), their filters and cached routes.

    ``sessions`` is insertion-ordered so that fan-out order is
    deterministic. Duplicate filters per client collapse. Each topic's
    target connections are matched once and cached until the sessions or
    subscriptions change.
    """

    sessions: dict[str, Connection] = field(default_factory=dict)
    subscriptions: dict[str, set[str]] = field(default_factory=dict)
    _routes: dict[str, list[Connection]] = field(default_factory=dict, init=False, repr=False)

    def add_session(self, client_id: str, conn: Connection) -> None:
        self.sessions[client_id] = conn
        self._routes.clear()

    def remove_session(self, client_id: str) -> None:
        self.sessions.pop(client_id, None)
        self.subscriptions.pop(client_id, None)
        self._routes.clear()

    def add_subscription(self, client_id: str, filter_: str) -> None:
        validate_filter(filter_)
        self.subscriptions.setdefault(client_id, set()).add(filter_)
        self._routes.clear()


def broker_dispatch(state: BrokerState, publish: Publish) -> list[Connection]:
    """The connections subscribed to ``publish.topic``, once each, in session order.

    The publisher receives its own message if self-subscribed; with no
    matching subscribers the QoS-0 message is dropped silently. The list
    is the route cache's own: callers read it and never change it.
    """
    targets = state._routes.get(publish.topic)
    if targets is None:
        if len(state._routes) >= ROUTE_CACHE_TOPICS:
            state._routes.clear()
        targets = [
            conn
            for client_id, conn in state.sessions.items()
            if any(topic_matches(f, publish.topic) for f in state.subscriptions.get(client_id, ()))
        ]
        state._routes[publish.topic] = targets
    return targets


class Broker:
    """Transport-agnostic broker core.

    ``on_publish`` (when set) is called exactly once per accepted PUBLISH,
    in dispatch order, under the broker lock - used for trace logging.
    """

    def __init__(self) -> None:
        self.state = BrokerState()
        self.on_publish: Callable[[str, bytes], None] | None = None
        self._lock = threading.RLock()
        self._client_ids: dict[Connection, str | None] = {}  # live connection -> id once CONNECTed

    def register_connection(self, conn: Connection) -> None:
        with self._lock:
            self._client_ids[conn] = None

    def connection_lost(self, conn: Connection) -> None:
        with self._lock:
            client_id = self._client_ids.pop(conn, None)
            if client_id is not None and self.state.sessions.get(client_id) is conn:
                self.state.remove_session(client_id)

    def data_received(self, conn: _TcpConnection, data: bytes) -> None:
        """Decode a chunk of ``conn``'s stream and handle each whole packet."""
        with self._lock:
            try:
                packets = conn.decoder.feed(data)
            except ProtocolError as exc:
                self._terminate(conn, f"codec error: {exc}")
                return
            for packet in packets:
                self.packet_received(conn, packet)

    def packet_received(self, conn: Connection, packet: Packet) -> None:
        """Handle one packet from ``conn``; ignored once ``conn`` is dropped."""
        with self._lock:
            if conn not in self._client_ids:
                return
            try:
                self._handle(conn, packet)
            except ProtocolError as exc:
                self._terminate(conn, f"protocol error: {exc}")

    def _terminate(self, conn: Connection, reason: str) -> None:
        logger.warning("dropping session: %s", reason)
        self.connection_lost(conn)
        try:
            conn.close()
        except OSError:
            pass

    def _handle(self, conn: Connection, packet: Packet) -> None:
        client_id = self._client_ids[conn]
        if isinstance(packet, Connect):
            if client_id is not None:
                raise ProtocolError("second CONNECT on one connection")
            old = self.state.sessions.get(packet.client_id)
            if old is not None:
                self._terminate(old, f"session taken over by new {packet.client_id!r}")
            self._client_ids[conn] = packet.client_id
            self.state.add_session(packet.client_id, conn)
            conn.send(ConnAck())
            return
        if client_id is None:
            raise ProtocolError("first packet must be CONNECT")
        if isinstance(packet, Subscribe):
            self.state.add_subscription(client_id, packet.filter)
            conn.send(SubAck(packet.packet_id))
        elif isinstance(packet, Publish):
            if self.on_publish is not None:
                self.on_publish(packet.topic, packet.payload)
            for target in broker_dispatch(self.state, packet):
                if target in self._client_ids:  # a callback may drop a later subscriber
                    target.send(packet)
        elif isinstance(packet, PingReq):
            conn.send(PingResp())
        elif isinstance(packet, Disconnect):
            self.connection_lost(conn)
            conn.close()
        else:
            raise ProtocolError(f"client may not send {type(packet).__name__}")


class _TcpConnection:
    """The broker's end of one TCP link, served by the broker loop.

    ``send`` never blocks. What the socket does not take at once waits in
    ``pending`` until the loop sees the socket writable; a PUBLISH that
    would take ``pending`` past ``OUTBOUND_LIMIT`` is dropped whole and
    counted in ``dropped``.
    """

    def __init__(self, sock: socket.socket, selector: selectors.BaseSelector) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # small frames
        sock.setblocking(False)
        self.sock = sock
        self.decoder = PacketDecoder()
        self.pending = bytearray()
        self.dropped = 0
        self._selector = selector

    def send(self, packet: Packet) -> None:
        data = getattr(packet, "frame", None) or encode_packet(packet)
        if self.pending:
            if isinstance(packet, Publish) and len(self.pending) + len(data) > OUTBOUND_LIMIT:
                self.dropped += 1
            else:
                self.pending += data
            return
        try:
            sent = self.sock.send(data)
        except OSError:  # full, or broken: then the loop's write to it fails
            sent = 0
        if sent < len(data):
            self.pending += memoryview(data)[sent:]
            self._selector.modify(self.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self)

    def flush(self) -> None:
        """Write what the socket takes of ``pending``; OSError if the link broke."""
        try:
            del self.pending[: self.sock.send(self.pending)]
        except BlockingIOError:
            return
        if not self.pending:
            self._selector.modify(self.sock, selectors.EVENT_READ, self)

    def close(self) -> None:
        if self.sock.fileno() >= 0:  # not closed yet, by the broker or the loop
            self._selector.unregister(self.sock)
            self.sock.close()


class TcpBrokerServer:
    """Stream-socket front-end for a :class:`Broker`, served by one thread.

    The ``broker-loop`` thread owns the listener and every connection; the
    connections are the selector's registered keys that carry one.
    ``stop()`` wakes it, and it closes them all before it ends.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Bind and start serving; raises OSError if the bind fails."""
        self._listener = socket.create_server((self.host, self.port), backlog=16)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake, self._waker = socket.socketpair()  # stop() closes the waker
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, daemon=True, name="broker-loop")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._waker.close()
            self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        try:
            while True:
                for key, mask in self._selector.select():
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._wake:
                            return
                        self._accept()
                        continue
                    try:
                        if mask & selectors.EVENT_WRITE:
                            conn.flush()
                        if mask & selectors.EVENT_READ:
                            data = conn.sock.recv(65536)
                            if not data:
                                raise ConnectionResetError("peer closed the link")
                            self.broker.data_received(conn, data)
                    except OSError:
                        self.broker.connection_lost(conn)
                        conn.close()
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    self.broker.connection_lost(key.data)
                key.fileobj.close()
            self._selector.close()

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return  # the peer gave up before we got to it
        conn = _TcpConnection(sock, self._selector)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self.broker.register_connection(conn)
