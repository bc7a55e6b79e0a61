"""bus_tcp: an open-loop pose stream through the TCP broker and follower.

Each round starts the system (bench/bus_system.py) in a child process,
connects two raw MQTT connections from this process over loopback TCP
("wearable" publishes poses, "drone" subscribes to the command topic),
sends the seeded, pre-encoded pose stream on a fixed schedule and
records when each command arrives. The wire protocol is spoken through
``encode_packet``/``PacketDecoder`` directly, not through ``MqttClient``,
so the benchmark side adds no client threads: this process runs the
generator and one reader thread.

Pose->command latency runs from each pose's due time to the arrival of
the command it triggered; which pose triggered which command comes from
replaying the same pose bytes through an offline ``FollowerLoop``.
Latencies, the system's CPU time and the replay's time are scaled to
reference speed (speed.py); the system process measures its own slowdown.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import metrics
import workloads
from harness import compare_streams, interquartile_mean, median, pose_command_pairs, pose_to_cmd_ms
from speed import Sampler

HERE = Path(__file__).resolve().parent
START_LEAD_S = 0.01
DRAIN_TIMEOUT_S = 10.0
SETTLE_S = 0.05  # after the expected commands, how long an extra one may take to arrive
CHILD_TIMEOUT_S = 60.0
GENERATOR_SWITCH_S = 0.0002
GENERATOR_SPIN_S = 0.0003
REPLAYS = 5  # the replay takes ~0.15 s; one timing of it is too short to be steady


class _ChildLines:
    """Line reader over a child's stdout pipe with a deadline per line."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self._proc = proc
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(proc.stdout, selectors.EVENT_READ)

    def read(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - perf_counter()
            if left <= 0 or not self._sel.select(left):
                raise TimeoutError("system process did not answer")
            chunk = os.read(self._proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise RuntimeError(f"system process exited with {self._proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self._sel.close()


class _RawClient:
    """One MQTT connection spoken through the packet codec."""

    def __init__(self, port: int, client_id: str) -> None:
        from wingman.transport import ConnAck, Connect, PacketDecoder, encode_packet

        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = PacketDecoder()
        self.sock.sendall(encode_packet(Connect(client_id)))
        self._expect(ConnAck)

    def subscribe(self, topic: str) -> None:
        from wingman.transport import SubAck, Subscribe, encode_packet

        self.sock.sendall(encode_packet(Subscribe(1, topic)))
        self._expect(SubAck)

    def _expect(self, kind) -> None:
        packets = []
        while not packets:
            data = self.sock.recv(4096)
            if not data:
                raise ConnectionError("broker closed the connection")
            packets = self.decoder.feed(data)
        if not isinstance(packets[0], kind) or len(packets) > 1:
            raise ConnectionError(f"expected {kind.__name__}, got {packets!r}")

    def disconnect(self) -> None:
        """Send DISCONNECT; the broker then closes the connection."""
        from wingman.transport import Disconnect, encode_packet

        try:
            self.sock.sendall(encode_packet(Disconnect()))
        except OSError:
            pass

    def close(self) -> None:
        self.disconnect()
        self.sock.close()


def replay(stream: list[tuple[bytes, bytes]]) -> tuple[list[bytes], list[int]]:
    """Commands an offline FollowerLoop publishes for the pose stream, and
    how many it published while handling each pose."""
    from wingman.follower import FollowerConfig, FollowerLoop
    from wingman.protocol import TOPIC_POSE

    commands: list[bytes] = []
    loop = FollowerLoop(FollowerConfig(), publish=lambda topic, payload: commands.append(payload))
    emitted = []
    for payload, _ in stream:
        before = len(commands)
        loop.on_message(TOPIC_POSE, payload)
        emitted.append(len(commands) - before)
    return commands, emitted


def _receive(sock: socket.socket, expected_bytes: int, chunks: list[tuple[float, bytes]], drained: threading.Event) -> None:
    """Record each chunk the drone connection receives with its arrival time
    until the connection closes; set ``drained`` once ``expected_bytes``
    have arrived. Reading on to the close is what catches extra commands.

    Decoding waits until the round is over, so that this thread holds the
    interpreter lock as briefly as possible while the generator runs.
    """
    got = 0
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append((perf_counter(), data))
            got += len(data)
            if got >= expected_bytes:
                drained.set()
    except OSError:
        pass
    finally:
        drained.set()


def _commands(decoder, chunks: list[tuple[float, bytes]]) -> tuple[list[float], list[bytes]]:
    """Arrival time and payload of every PUBLISH in the received chunks."""
    from wingman.transport import Publish

    times, payloads = [], []
    for arrived, data in chunks:
        for packet in decoder.feed(data):
            if isinstance(packet, Publish):
                times.append(arrived)
                payloads.append(packet.payload)
    return times, payloads


def _round(stream: "_Stream", traced: bool, spans_path: Path, src: Path) -> dict:
    """One set-up, pose stream, drain and teardown of the system."""
    t_setup = perf_counter()
    command = [sys.executable, str(HERE / "bus_system.py"), "--src", str(src), "--trace", str(int(traced))]
    if traced:
        command += ["--spans", str(spans_path)]
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    lines = _ChildLines(proc)
    clients: list[_RawClient] = []
    reader = None
    try:
        port = lines.read()["port"]
        wearable = _RawClient(port, "wearable")
        clients.append(wearable)
        drone = _RawClient(port, "drone")
        clients.append(drone)
        drone.subscribe("tagteam/cmd")
        drone.sock.settimeout(None)
        setup_s = perf_counter() - t_setup

        proc.stdin.write(b"start\n")
        proc.stdin.flush()
        lines.read()
        chunks: list[tuple[float, bytes]] = []
        done = threading.Event()
        reader = threading.Thread(
            target=_receive, args=(drone.sock, stream.command_bytes, chunks, done), name="bench-drone"
        )
        reader.start()

        packets = [packet for _, packet in stream.poses]
        due = [0.0] * len(packets)
        sent = [0.0] * len(packets)
        interval = 1.0 / workloads.BUS_OFFERED_RATE
        send = wearable.sock.sendall
        # A collection, the reader thread keeping the interpreter lock for a
        # whole switch interval, or a slow wake-up from sleep would make the
        # generator late, which is not the system's latency: the generator
        # sleeps until GENERATOR_SPIN_S before each due time, then polls.
        gc.collect()
        gc.disable()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(GENERATOR_SWITCH_S)
        try:
            t0 = perf_counter() + START_LEAD_S
            for i, packet in enumerate(packets):
                due[i] = t0 + i * interval
                lead = due[i] - perf_counter()
                if lead > GENERATOR_SPIN_S:
                    time.sleep(lead - GENERATOR_SPIN_S)
                while perf_counter() < due[i]:
                    time.sleep(0)  # poll, releasing the lock to the reader thread
                sent[i] = perf_counter()
                send(packet)
            done.wait(DRAIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(switch_interval)
            gc.enable()
        time.sleep(SETTLE_S)
        drone.disconnect()
        reader.join(CHILD_TIMEOUT_S)
        for client in clients:
            client.close()
        clients.clear()
        proc.stdin.write(b"stop\n")
        proc.stdin.flush()
        system = lines.read()
        proc.wait(CHILD_TIMEOUT_S)
    finally:
        for client in clients:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        lines.close()
        proc.stdin.close()
        proc.stdout.close()
        if reader is not None:
            reader.join(CHILD_TIMEOUT_S)

    recv_times, received = _commands(drone.decoder, chunks)
    gc.collect()  # so that this process's garbage is not collected inside a timed replay
    replay_s = []
    with Sampler() as sampler:  # scales each replay to reference speed
        for _ in range(REPLAYS):
            before = sampler.mark()
            expected_cmds, emitted = replay(stream.poses)
            comparison = compare_streams(expected_cmds, received)
            replay_s.append(sampler.scaled_wall(before, sampler.mark()))
    raw_latencies, _ = pose_to_cmd_ms(pose_command_pairs(emitted), due, recv_times)
    last = recv_times[-1] if recv_times else perf_counter()
    return {
        "setup_s": setup_s,
        "run_s": last - t0,
        "sim_ticks_per_s": len(packets) / (last - t0),
        "evaluate_s": interquartile_mean(replay_s),
        "peak_rss_mb": system["peak_rss_mb"],
        "bus_cpu_ms_per_pose": system["cpu_s"] * 1000.0 / len(packets),
        "raw_bus_cpu_ms_per_pose": system["raw_cpu_s"] * 1000.0 / len(packets),
        "teardown_s": system["teardown_s"],
        "slowdown": system["slowdown"],
        # scaled by the system process's slowdown over the stream
        "latencies_ms": [lat / system["slowdown"] for lat in raw_latencies],
        "raw_pose_to_cmd_p50_ms": metrics.latency(raw_latencies, 50),
        "attempted": len(expected_cmds),
        "failed": comparison["mismatched"] + comparison["missing"] + comparison["extra"],
        "comparison": comparison,
        "system": system,
        "sent": sent,
        "due": due,
        "recv": recv_times,
    }


class _Stream:
    """What the rounds of one run share: the pose stream and the bytes of
    the commands it should produce."""

    def __init__(self, seed: int) -> None:
        from wingman.protocol import TOPIC_CMD
        from wingman.transport import Publish, encode_packet

        self.poses = workloads.pose_stream(seed)
        commands, _ = replay(self.poses)
        self.command_bytes = sum(len(encode_packet(Publish(TOPIC_CMD, payload))) for payload in commands)


def _summarize(rounds: list[dict]) -> dict:
    latencies = [lat for r in rounds for lat in r["latencies_ms"]]
    values = {
        name: interquartile_mean([r[name] for r in rounds])
        for name in ("setup_s", "run_s", "sim_ticks_per_s", "evaluate_s", "peak_rss_mb", "bus_cpu_ms_per_pose", "teardown_s")
    }
    values["pose_to_cmd_p50_ms"] = metrics.latency(latencies, 50)
    values["pose_to_cmd_p99_ms"] = metrics.latency(latencies, 99)
    return values


def _layers(rounds: list[dict]) -> dict:
    names = [name for name, _, _ in metrics.PER_LAYER]
    layers = {name: median([r["system"]["layers"].get(name, 0.0) for r in rounds]) for name in names}
    layers["transport.broker.threads_left"] = median([r["system"]["threads_left"] for r in rounds])
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        marks = dict(r["system"]["marks"])
        marks["pose_sent"] = r["sent"]
        marks["drone_cmd_recv"] = r["recv"]
        marks["generator_late_s"] = [s - d for s, d in zip(r["sent"], r["due"])]
        for key, hops in metrics.rep_hops(marks).items():
            pooled.setdefault(key, []).extend(hops)
    layers.update({k: v for k, v in metrics.hop_values(pooled).items() if v is not None})
    return layers


def run(workload: str, seed: int, seconds: float, traced: bool, src: Path, out_dir: Path) -> dict:
    stream = _Stream(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rounds: list[dict] = []
    started = perf_counter()
    # a traced run measures one untraced round first, for the tracing overhead
    while not rounds or perf_counter() - started < seconds or (traced and len(rounds) < 2):
        trace_this = traced and bool(rounds)
        spans_path = out_dir / f"spans-{workload}-round{len(rounds)}.npz"
        rounds.append(_round(stream, trace_this, spans_path, src))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failed_checks = [
        f"round {k}: {n} {kind} commands" for k, r in enumerate(rounds) for kind, n in r["comparison"].items() if n
    ]
    notes: dict = {}
    if traced:
        untraced = _summarize(rounds[:1])
        traced_rounds = rounds[1:]
        traced_values = _summarize(traced_rounds)
        values = _layers(traced_rounds)
        values["pose_to_cmd_p99_ms"] = untraced["pose_to_cmd_p99_ms"]
        for name, _, _ in metrics.END_TO_END:
            if name != "setup_s" and traced_values[name] is not None and untraced[name] is not None:
                values[f"trace_overhead.{name}"] = traced_values[name] - untraced[name]
        notes = {"untraced": untraced, "traced": traced_values}
    else:
        values = _summarize(rounds)
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "reps": len(rounds),
        "per_rep": [{k: v for k, v in r.items() if isinstance(v, float)} for r in rounds],
        "notes": notes,
    }
