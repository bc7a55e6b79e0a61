"""QoS-0 broker: session registry, topic fan-out, TCP front-end.

The broker core takes packet objects from connections (anything with
``send(packet)`` and ``close()``). The in-process loopback passes objects
both ways and never frames them; the codec runs only on TCP links, where
``data_received`` decodes a stream and ``_TcpConnection`` writes frames.

A protocol violation terminates the offending session only; the broker
survives. Dispatch for a single publish is atomic with respect to
subscription changes. All subscribers get the same ``Publish`` object; a
TCP peer gets the frame it arrived in, byte for byte, re-encoded only if
its remaining length is not minimal, so TCP peers get canonical frames.
"""

from __future__ import annotations

import logging
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


class SessionError(Exception):
    """Operation referenced a client id with no live session."""


class Connection(Protocol):
    def send(self, packet: Packet) -> None: ...

    def close(self) -> None: ...


# Distinct topics whose fan-out lists BrokerState keeps; a peer that
# publishes to more topics than this only empties the cache.
ROUTE_CACHE_TOPICS = 256


@dataclass
class BrokerState:
    """Connected client ids, their subscription filters and cached routes.

    ``sessions`` is insertion-ordered (dict keyed by client id) so that
    fan-out order is deterministic. Duplicate filters per client collapse.
    Each topic's targets are matched once and cached until the sessions or
    subscriptions change.
    """

    sessions: dict[str, None] = field(default_factory=dict)
    subscriptions: dict[str, set[str]] = field(default_factory=dict)
    _routes: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False)

    def add_session(self, client_id: str) -> None:
        self.sessions[client_id] = None
        self._routes.clear()

    def remove_session(self, client_id: str) -> None:
        self.sessions.pop(client_id, None)
        self.subscriptions.pop(client_id, None)
        self._routes.clear()

    def add_subscription(self, client_id: str, filter_: str) -> None:
        if client_id not in self.sessions:
            raise SessionError(f"unknown client {client_id!r}")
        validate_filter(filter_)
        self.subscriptions.setdefault(client_id, set()).add(filter_)
        self._routes.clear()

    def targets(self, topic: str) -> list[str]:
        """Client ids subscribed to ``topic``, in session order."""
        targets = self._routes.get(topic)
        if targets is None:
            if len(self._routes) >= ROUTE_CACHE_TOPICS:
                self._routes.clear()
            targets = [
                client_id
                for client_id in self.sessions
                if any(topic_matches(f, topic) for f in self.subscriptions.get(client_id, ()))
            ]
            self._routes[topic] = targets
        return targets


def broker_dispatch(state: BrokerState, from_id: str, publish: Publish) -> list[tuple[str, Publish]]:
    """Targets for one publish: (client id, packet), deduplicated per client.

    The publisher receives its own message if self-subscribed; with no
    matching subscribers the QoS-0 message is dropped silently.
    """
    if from_id not in state.sessions:
        raise SessionError(f"unknown client {from_id!r}")
    return [(client_id, publish) for client_id in state.targets(publish.topic)]


class Broker:
    """Transport-agnostic broker core.

    ``on_publish`` (when set) is called exactly once per accepted PUBLISH,
    in dispatch order, under the broker lock - used for trace logging.
    """

    def __init__(self) -> None:
        self.state = BrokerState()
        self.on_publish: Callable[[str, bytes], None] | None = None
        self._lock = threading.RLock()
        self._decoders: dict[int, PacketDecoder] = {}
        self._client_ids: dict[int, str] = {}
        self._connections: dict[str, Connection] = {}

    def register_connection(self, conn: Connection) -> None:
        with self._lock:
            self._decoders[id(conn)] = PacketDecoder()

    def connection_lost(self, conn: Connection) -> None:
        with self._lock:
            self._decoders.pop(id(conn), None)
            client_id = self._client_ids.pop(id(conn), None)
            if client_id is not None and self._connections.get(client_id) is conn:
                self._connections.pop(client_id, None)
                self.state.remove_session(client_id)

    def data_received(self, conn: Connection, data: bytes) -> None:
        with self._lock:
            decoder = self._decoders.get(id(conn))
            if decoder is None:
                return
            try:
                packets = decoder.feed(data)
            except ProtocolError as exc:
                self._terminate(conn, f"codec error: {exc}")
                return
            for packet in packets:
                self.packet_received(conn, packet)

    def packet_received(self, conn: Connection, packet: Packet) -> None:
        """Handle one packet from ``conn``; ignored once ``conn`` is dropped."""
        with self._lock:
            if id(conn) not in self._decoders:
                return
            try:
                self._handle(conn, packet)
            except ProtocolError as exc:
                self._terminate(conn, f"protocol error: {exc}")

    def session_count(self) -> int:
        with self._lock:
            return len(self.state.sessions)

    def _terminate(self, conn: Connection, reason: str) -> None:
        logger.warning("dropping session: %s", reason)
        self.connection_lost(conn)
        try:
            conn.close()
        except OSError:
            pass

    def _handle(self, conn: Connection, packet: Packet) -> None:
        client_id = self._client_ids.get(id(conn))
        if isinstance(packet, Connect):
            if client_id is not None:
                raise ProtocolError("second CONNECT on one connection")
            old = self._connections.get(packet.client_id)
            if old is not None:
                self._terminate(old, f"session taken over by new {packet.client_id!r}")
            self._client_ids[id(conn)] = packet.client_id
            self._connections[packet.client_id] = conn
            self.state.add_session(packet.client_id)
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
            for target_id, _ in broker_dispatch(self.state, client_id, packet):
                target = self._connections.get(target_id)
                if target is not None:
                    target.send(packet)
        elif isinstance(packet, PingReq):
            conn.send(PingResp())
        elif isinstance(packet, Disconnect):
            self.connection_lost(conn)
            conn.close()
        else:
            raise ProtocolError(f"client may not send {type(packet).__name__}")


class _TcpConnection:
    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # small frames
        self._sock = sock
        self._send_lock = threading.Lock()

    def send(self, packet: Packet) -> None:
        data = getattr(packet, "frame", None) or encode_packet(packet)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError:
            pass  # receiver loop will notice the broken pipe

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpBrokerServer:
    """Stream-socket front-end for a :class:`Broker`.

    Each connection has a reader thread; a connection and its thread are
    tracked in ``_conns`` until the reader loop ends.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: dict[_TcpConnection, threading.Thread] = {}
        self._conns_lock = threading.Lock()
        self._running = False

    def start(self) -> None:
        """Bind and start accepting; raises OSError if the bind fails."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
        except OSError:
            listener.close()
            raise
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="broker-accept"
        )
        self._accept_thread.start()

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in accept()
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        with self._conns_lock:
            conns = dict(self._conns)
        for conn in conns:
            conn.close()  # unblocks the reader threads
        for thread in conns.values():
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            conn = _TcpConnection(sock)
            self.broker.register_connection(conn)
            thread = threading.Thread(
                target=self._recv_loop, args=(sock, conn), daemon=True, name="broker-conn"
            )
            with self._conns_lock:  # tracked before it starts, so its own removal finds it
                self._conns[conn] = thread
            thread.start()

    def _recv_loop(self, sock: socket.socket, conn: _TcpConnection) -> None:
        while True:
            try:
                data = sock.recv(4096)
            except OSError:
                data = b""
            if not data:
                self.broker.connection_lost(conn)
                conn.close()
                with self._conns_lock:
                    self._conns.pop(conn, None)
                return
            self.broker.data_received(conn, data)
