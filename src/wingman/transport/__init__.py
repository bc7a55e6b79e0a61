"""Topic pub/sub transport: MQTT-3.1.1-subset codec, broker and client."""

from wingman.transport.broker import Broker, BrokerState, TcpBrokerServer, broker_dispatch
from wingman.transport.client import MemoryTransport, MqttClient, SocketTransport
from wingman.transport.packets import (
    ConnAck,
    Connect,
    Disconnect,
    Packet,
    PacketDecoder,
    PacketError,
    PingReq,
    PingResp,
    ProtocolError,
    Publish,
    SubAck,
    Subscribe,
    decode_packet,
    encode_packet,
    encode_remaining_length,
    topic_matches,
)

__all__ = [
    "Broker",
    "BrokerState",
    "ConnAck",
    "Connect",
    "Disconnect",
    "MemoryTransport",
    "MqttClient",
    "Packet",
    "PacketDecoder",
    "PacketError",
    "PingReq",
    "PingResp",
    "ProtocolError",
    "Publish",
    "SocketTransport",
    "SubAck",
    "Subscribe",
    "TcpBrokerServer",
    "broker_dispatch",
    "decode_packet",
    "encode_packet",
    "encode_remaining_length",
    "topic_matches",
]
