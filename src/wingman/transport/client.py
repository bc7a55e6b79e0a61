"""Client session over either an in-process loopback or a TCP socket.

Clients and transports exchange packet objects: the loopback link never
frames them, and the codec runs only on TCP links, where the broker still
forwards each received frame byte for byte.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Callable

from wingman.transport.broker import Broker
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
)


CONNECT_TIMEOUT = 5.0  # seconds to open a TCP link to the broker
ACK_TIMEOUT = 5.0  # seconds to wait for CONNACK, SUBACK or PINGRESP


class TransportClosed(Exception):
    """The underlying link went away."""


class MemoryTransport:
    """In-process duplex link pairing one client with a broker.

    Packets sent by the client are handed to the broker synchronously, and
    the broker's packets are delivered back inline, as the same objects,
    so deterministic simulations need no OS networking, threads or framing.
    """

    def __init__(self, broker: Broker) -> None:
        self._broker = broker
        self._open = True
        self._conn = _MemoryConnection(self)
        broker.register_connection(self._conn)

    def set_receiver(self, callback: Callable[[Packet], None]) -> None:
        self._conn.send = callback

    def send(self, packet: Packet) -> None:
        if not self._open:
            raise TransportClosed("loopback link is closed")
        self._broker.packet_received(self._conn, packet)

    def close(self) -> None:
        if self._open:
            self._open = False
            self._broker.connection_lost(self._conn)


class _MemoryConnection:
    """Broker-side half of a :class:`MemoryTransport`; ``send`` is the
    client's receiver, and drops packets until one is set."""

    def __init__(self, transport: MemoryTransport) -> None:
        self._transport = transport
        self.send: Callable[[Packet], None] = lambda packet: None

    def close(self) -> None:
        self._transport._open = False


class SocketTransport:
    """TCP link with a background reader thread that decodes the stream.

    An exception on the reader thread, from the decoder or from the
    receiver, is kept in ``fault`` and closes the link; the owner of the
    link decides how to fail.
    """

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # small frames
        self._decoder = PacketDecoder()
        self._open = True
        self.fault: Exception | None = None

    def set_receiver(self, callback: Callable[[Packet], None]) -> None:
        threading.Thread(target=self._read_loop, args=(callback,), daemon=True, name="mqtt-reader").start()

    def send(self, packet: Packet) -> None:
        if not self._open:
            raise TransportClosed("socket is closed")
        self._sock.sendall(encode_packet(packet))

    def close(self) -> None:
        if self._open:
            self._open = False
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def _read_loop(self, receiver: Callable[[Packet], None]) -> None:
        try:
            while self._open:
                try:
                    data = self._sock.recv(4096)
                except OSError:
                    return
                if not data:
                    return
                for packet in self._decoder.feed(data):
                    receiver(packet)
        except Exception as exc:
            self.fault = exc
            self.close()


class MqttClient:
    """Minimal QoS-0 session: connect, subscribe, publish, ping.

    ``on_message(topic, payload)`` runs inline on the delivering context:
    the publisher's own call stack for a loopback link, the reader thread
    for a socket.
    """

    def __init__(
        self,
        transport: MemoryTransport | SocketTransport,
        client_id: str,
        on_message: Callable[[str, bytes], None] | None = None,
    ) -> None:
        self.client_id = client_id
        self.on_message = on_message
        self.transport = transport
        self._acks: queue.Queue[Packet] = queue.Queue()
        self._next_packet_id = 1
        transport.set_receiver(self._on_packet)

    def connect(self) -> None:
        self.transport.send(Connect(self.client_id))
        ack = self._wait_ack()
        if not isinstance(ack, ConnAck):
            raise ProtocolError(f"expected CONNACK, got {type(ack).__name__}")

    def subscribe(self, filter_: str) -> None:
        packet_id = self._next_packet_id
        self._next_packet_id = packet_id % 0xFFFF + 1
        self.transport.send(Subscribe(packet_id, filter_))
        ack = self._wait_ack()
        if not isinstance(ack, SubAck) or ack.packet_id != packet_id:
            raise ProtocolError(f"expected SUBACK {packet_id}, got {ack!r}")

    def publish(self, topic: str, payload: bytes) -> None:
        self.transport.send(Publish(topic, payload))

    def ping(self) -> None:
        self.transport.send(PingReq())
        ack = self._wait_ack()
        if not isinstance(ack, PingResp):
            raise ProtocolError(f"expected PINGRESP, got {type(ack).__name__}")

    def disconnect(self) -> None:
        try:
            self.transport.send(Disconnect())
        except (TransportClosed, OSError):
            pass
        self.transport.close()

    def _wait_ack(self) -> Packet:
        try:
            return self._acks.get(timeout=ACK_TIMEOUT)
        except queue.Empty:
            raise TimeoutError("no broker response") from None

    def _on_packet(self, packet: Packet) -> None:
        if isinstance(packet, Publish):
            on_message = self.on_message
            if on_message is not None:
                on_message(packet.topic, packet.payload)
        elif isinstance(packet, (ConnAck, SubAck, PingResp)):
            self._acks.put(packet)
        else:
            raise ProtocolError(f"broker may not send {type(packet).__name__}")
