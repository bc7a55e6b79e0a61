"""System side of the bus_tcp workload, run in its own process.

Starts a TcpBrokerServer on a free loopback port and wires a follower and
a cue engine to it over TCP the way ``wingman.scenario._run_sockets``
wires them. The benchmark process drives it over stdin/stdout, one JSON
object per line:

    -> {"port": p}              ready; the benchmark connects its clients
    <- start                    measurement starts
    -> {"ok": true}
    <- stop                     the benchmark's clients have disconnected
    -> {...}                    CPU, teardown and (traced) per-layer figures

From start to stop a ``speed.Sampler`` runs in the main thread, which
otherwise only waits for the next command, so the CPU time can be scaled
to reference speed and the host's slowdown reported.

Usage: python3 bench/bus_system.py --src <src dir> --trace <0|1> [--spans <file>]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

from speed import Sampler


def _say(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace:
        import metrics
        from tracer import Tracer, component_counts, install

        tracer = Tracer()
        install(tracer)  # before wiring: the clients bind follower.on_message now

    from wingman.cueing import AttentionModel, CueEngine
    from wingman.follower import FollowerConfig, FollowerLoop
    from wingman.protocol import TOPIC_CMD, TOPIC_DETECTIONS, TOPIC_POSE
    from wingman.transport import Broker, MqttClient, SocketTransport, TcpBrokerServer

    follower = FollowerLoop(FollowerConfig())
    cues = CueEngine(AttentionModel())
    broker = Broker()
    logged = []
    broker.on_publish = lambda topic, payload: logged.append((topic, payload))
    server = TcpBrokerServer(broker, "127.0.0.1", 0)
    server.start()
    follower_client = MqttClient(SocketTransport("127.0.0.1", server.port), "follower")
    cue_client = MqttClient(SocketTransport("127.0.0.1", server.port), "cueing")
    follower.publish = follower_client.publish
    follower_client.on_message = follower.on_message
    cue_client.on_message = cues.on_message
    cues.publish = cue_client.publish
    for client in (follower_client, cue_client):
        client.connect()
    follower_client.subscribe(TOPIC_POSE)
    follower_client.subscribe(TOPIC_CMD)
    cue_client.subscribe(TOPIC_POSE)
    cue_client.subscribe(TOPIC_DETECTIONS)
    _say({"port": server.port})

    sampler = Sampler()
    start = None
    for line in sys.stdin:
        command = line.strip()
        if command == "start":
            if tracer is not None:
                tracer.end_rep()  # drop the connect/subscribe spans
                tracer.start_rep()
            logged.clear()
            sampler.start()
            start = sampler.mark()
            _say({"ok": True})
        elif command == "stop":
            break
    if start is None:
        return 2
    end = sampler.mark()
    sampler.stop()
    report = {
        "cpu_s": sampler.scaled_cpu(start, end),
        "raw_cpu_s": end.cpu - start.cpu,
        "slowdown": sampler.slowdown(start, end)[0],
        "messages_logged": len(logged),
        "commands": sum(1 for topic, _ in logged if topic == TOPIC_CMD),
    }
    if tracer is not None:
        spans = tracer.end_rep()
        component_counts(tracer)
        tracer.counts["scenario.messages_logged"] = len(logged)
        report["layers"] = metrics.layer_values(spans, tracer.counts)
        report["marks"] = {key: tracer.marks.get(key, []) for key in ("follower_pose_enter", "follower_handle_s", "cmd_sent")}

    t0 = time.perf_counter()
    for client in (follower_client, cue_client):
        client.disconnect()
    server.stop()
    report["teardown_s"] = time.perf_counter() - t0
    report["threads_left"] = sum(1 for t in threading.enumerate() if t.name.startswith("broker-") and t.is_alive())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
        if args.spans:
            tracer.write(Path(args.spans))
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
