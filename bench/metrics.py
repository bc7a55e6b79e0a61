"""Metric names and units, and the per-layer values of one repetition.

BENCHMARK.json declares the same names; test_harness.py checks that the
two agree.
"""

from __future__ import annotations

from harness import min_samples_for, percentile, windowed_percentile

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("sim_ticks_per_s", "1/s", "higher"),
    ("evaluate_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pose_to_cmd_p50_ms", "ms", "lower"),
    ("bus_cpu_ms_per_pose", "ms", "lower"),
    ("teardown_s", "s", "lower"),
)

# spans reported as <name>.calls and <name>.self_s
_CALLED_SPANS = (
    "evaluation.dtw",
    "agents.detect_objects",
    "agents.drone_step",
    "cueing.on_message",
    *(f"protocol.encode_message.{kind}" for kind in ("pose", "cmd", "detections", "cues")),
    *(f"protocol.decode_message.{kind}" for kind in ("pose", "cmd", "detections", "cues")),
    "transport.encode_packet",
    "transport.decoder_feed",
    "transport.broker_dispatch",
    "follower.on_message",
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = []
    for span in _CALLED_SPANS:
        rows += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    rows += [
        # too unsteady on bus_tcp to be bounded; taken from the traced run's untraced part
        ("pose_to_cmd_p99_ms", "ms", "lower"),
        ("evaluation.dtw.cells", "count", "lower"),
        ("evaluation.other_s", "s", "lower"),
        ("agents.detect_objects.objects_scanned", "count", "lower"),
        ("agents.detect_objects.detections", "count", "lower"),
        ("agents.next_pose.self_s", "s", "lower"),
        ("cueing.cues", "count", "lower"),
        ("cueing.cue_ratio", "ratio", "higher"),
        *((f"protocol.decode_message.{kind}.rejects", "count", "lower") for kind in ("pose", "cmd", "detections", "cues")),
        ("transport.decoder_feed.bytes", "bytes", "lower"),
        ("transport.broker_dispatch.deliveries", "count", "lower"),
        ("transport.broker.data_received.self_s", "s", "lower"),
        ("transport.broker.threads_left", "count", "lower"),
        ("follower.commands", "count", "lower"),
        ("follower.stale", "count", "lower"),
        ("follower.missed", "count", "lower"),
        ("follower.protocol_errors", "count", "lower"),
        ("bus.pose_hop_ms.p50", "ms", "lower"),
        ("bus.pose_hop_ms.p99", "ms", "lower"),
        ("follower.handle_ms.p50", "ms", "lower"),
        ("bus.cmd_hop_ms.p50", "ms", "lower"),
        ("bus.cmd_hop_ms.p99", "ms", "lower"),
        ("bench.generator_late_p99_ms", "ms", "lower"),
        ("scenario.write_trace_csv.self_s", "s", "lower"),
        ("scenario.write_messages_jsonl.self_s", "s", "lower"),
        ("scenario.write_report_json.self_s", "s", "lower"),
        ("scenario.messages_logged", "count", "lower"),
        ("scenario.artifact_bytes", "bytes", "lower"),
    ]
    # traced minus untraced value of each end-to-end metric but set-up,
    # which the traced run measures the same way as the untraced one; it is
    # better in the same direction as the metric itself
    rows += [(f"trace_overhead.{name}", unit, better) for name, unit, better in END_TO_END if name != "setup_s"]
    return tuple(rows)


PER_LAYER = _per_layer()
# p99 is taken per window of this many consecutive samples (the fewest that
# can report it) and the median over windows is reported, so that one burst
# of interference from the host moves one window, not the run; p50 is
# already robust to bursts and is taken over all samples
LATENCY_WINDOW = min_samples_for(99)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# layers whose self time makes up the tick loop
TICK_LOOP_LAYERS = ("agents.", "protocol.", "transport.", "follower.", "cueing.")


def layer_values(spans: dict[str, tuple[int, float, float]], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one repetition from span totals and boundary counts."""
    values: dict[str, float] = dict(counts)
    for name, (calls, _total, own) in spans.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
    values["evaluation.other_s"] = values.get("evaluation.sync_report.self_s", 0.0)
    delivered = counts.get("cueing.detections_delivered", 0)
    values["cueing.cue_ratio"] = counts.get("cueing.cues", 0) / delivered if delivered else 0.0
    return values


def rep_hops(marks: dict[str, list[float]]) -> dict[str, list[float]]:
    """Per-message hop latencies (ms) of one repetition from its timestamps.

    pose hop: pose sent -> follower starts handling it; command hop:
    follower publishes a command -> the drone side receives it.
    """

    def gaps(sent: str, received: str) -> list[float]:
        return [(b - a) * 1000 for a, b in zip(marks.get(sent, ()), marks.get(received, ()))]

    return {
        "bus.pose_hop_ms": gaps("pose_sent", "follower_pose_enter"),
        "bus.cmd_hop_ms": gaps("cmd_sent", "drone_cmd_recv"),
        "follower.handle_ms": [d * 1000 for d in marks.get("follower_handle_s", ())],
        "bench.generator_late_ms": [d * 1000 for d in marks.get("generator_late_s", ())],
    }


def latency(samples: list[float], q: float) -> float | None:
    """Reported q-th percentile of latencies listed in the order they were taken."""
    if q <= 50:
        return percentile(samples, q)
    return windowed_percentile(samples, q, LATENCY_WINDOW)


def hop_values(pooled: dict[str, list[float]]) -> dict[str, float | None]:
    """Hop percentiles from hop latencies pooled over repetitions."""
    return {
        "bus.pose_hop_ms.p50": latency(pooled["bus.pose_hop_ms"], 50),
        "bus.pose_hop_ms.p99": latency(pooled["bus.pose_hop_ms"], 99),
        "follower.handle_ms.p50": latency(pooled["follower.handle_ms"], 50),
        "bus.cmd_hop_ms.p50": latency(pooled["bus.cmd_hop_ms"], 50),
        "bus.cmd_hop_ms.p99": latency(pooled["bus.cmd_hop_ms"], 99),
        "bench.generator_late_p99_ms": latency(pooled["bench.generator_late_ms"], 99),
    }


def tick_loop_share(spans: dict[str, tuple[int, float, float]], loop_s: float) -> float:
    """Share of the tick loop's wall time spent as self time in the layers."""
    inside = sum(own for name, (_c, _t, own) in spans.items() if name.startswith(TICK_LOOP_LAYERS))
    return inside / loop_s


def dtw_share(spans: dict[str, tuple[int, float, float]]) -> float | None:
    """Share of sync_report's wall time that is DTW self time."""
    report = spans.get("evaluation.sync_report")
    dtw = spans.get("evaluation.dtw")
    if not report or not dtw or not report[1]:
        return None
    return dtw[2] / report[1]
