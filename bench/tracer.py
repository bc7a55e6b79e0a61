"""Span tracing of wingman from outside the package.

The benchmark wraps public functions where the calling module looks them
up (``from ... import`` binds names early, so ``wingman.scenario.detect_objects``
is patched, not ``wingman.agents.detect_objects``). Each wrapped call
records a span: name, start, end and the span that caused it. Spans stay
in memory in compact per-thread arrays and are written out at the end of
the run; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from harness import self_times

# message kind per topic (decode) and per message class (encode)
TOPIC_KIND = {
    "tagteam/pose": "pose",
    "tagteam/cmd": "cmd",
    "tagteam/detections": "detections",
    "tagteam/cues": "cues",
}
CLASS_KIND = {
    "PoseMsg": "pose",
    "CommandMsg": "cmd",
    "DetachMsg": "cmd",
    "DetectionMsg": "detections",
    "CueMsg": "cues",
}
MOVE_MARKER = b'"kind":"move"'


class Patcher:
    """Replaces attributes and puts the originals back on restore()."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _ThreadSpans:
    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer(Patcher):
    """Records spans, counts and timestamp marks for one repetition at a time.

    ``counts`` holds work counted at span boundaries, ``marks`` holds
    per-message timestamps (perf_counter seconds) used for hop latencies,
    and ``objects`` the last component instance seen of each kind.
    """

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._live: list[_ThreadSpans] = []
        self._done: list[_ThreadSpans] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.marks: defaultdict[str, list[float]] = defaultdict(list)
        self.objects: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self._live.append(spans)
            self._local.spans = spans
        return spans

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        before: Callable | None = None,
        after: Callable | None = None,
        on_error: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``before(*args)``, ``after(args, result, t0, t1)`` and
        ``on_error(args, exc)`` count work at the boundary.
        """
        fn = getattr(owner, attr)
        fixed = None if callable(name) else self._name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(*args))
            if before is not None:
                before(*args)
            spans = getattr(self._local, "spans", None) or self._spans()
            stack = spans.stack
            idx = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            spans.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans.end[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(args, exc)
                raise
            t1 = perf_counter()
            spans.end[idx] = t1
            stack.pop()
            if after is not None:
                after(args, result, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def mark(self, owner: object, attr: str, hook: Callable) -> None:
        """Call ``hook(now, *args)`` before each call, without a span."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            hook(perf_counter(), *args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def end_rep(self) -> dict[str, tuple[int, float, float]]:
        """Close one repetition: (calls, total s, self s) per span name.

        The repetition's spans are kept for write(); counts and marks are
        left for the caller to read and are cleared by start_rep().
        """
        with self._lock:
            stores, self._live = self._live, []
            self._local = threading.local()
        self._done.extend(stores)
        calls = np.zeros(len(self.names))
        total = np.zeros(len(self.names))
        own = np.zeros(len(self.names))
        for spans in stores:
            if not spans.name:
                continue
            names = np.frombuffer(spans.name, dtype=np.int_)
            start = np.frombuffer(spans.start)
            end = np.frombuffer(spans.end)
            calls += np.bincount(names, minlength=len(self.names))
            total += np.bincount(names, weights=end - start, minlength=len(self.names))
            own += np.bincount(
                names, weights=self_times(spans.parent, start, end), minlength=len(self.names)
            )
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def start_rep(self) -> None:
        self.counts.clear()
        self.marks.clear()
        self.objects.clear()

    def write(self, path: Path) -> int:
        """Write every closed span to ``path`` (.npz); returns the span count."""
        columns: dict[str, list[np.ndarray]] = {"name": [], "parent": [], "start": [], "end": [], "thread": []}
        offset = 0
        for k, spans in enumerate(s for s in self._done if s.name):
            parent = np.array(spans.parent, dtype=np.int64)
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            columns["name"].append(np.array(spans.name, dtype=np.int64))
            columns["start"].append(np.array(spans.start))
            columns["end"].append(np.array(spans.end))
            columns["thread"].append(np.full(len(spans.name), k))
            offset += len(spans.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            **{key: np.concatenate(parts) if parts else np.zeros(0) for key, parts in columns.items()},
        )
        return offset


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every wingman layer where they are looked up."""
    import wingman.agents as agents
    import wingman.cueing as cueing
    import wingman.evaluation as evaluation
    import wingman.follower as follower
    import wingman.scenario as scenario
    from wingman.transport import broker, client, packets

    counts, marks, objects = tracer.counts, tracer.marks, tracer.objects

    def encode_name(msg, *_):
        return "protocol.encode_message." + CLASS_KIND.get(type(msg).__name__, "other")

    def decode_name(topic, *_):
        return "protocol.decode_message." + TOPIC_KIND.get(topic, "other")

    def decode_rejected(args, exc):
        counts[decode_name(args[0]) + ".rejects"] += 1

    for module in (scenario, follower, cueing):
        tracer.wrap(module, "encode_message", encode_name)
    for module in (follower, cueing, agents):
        tracer.wrap(module, "decode_message", decode_name, on_error=decode_rejected)

    def feed_bytes(decoder, data):
        counts["transport.decoder_feed.bytes"] += len(data)

    def dispatched(args, deliveries, t0, t1):
        counts["transport.broker_dispatch.deliveries"] += len(deliveries)

    for module in (client, broker):
        tracer.wrap(module, "encode_packet", "transport.encode_packet")
    tracer.wrap(packets.PacketDecoder, "feed", "transport.decoder_feed", before=feed_bytes)
    tracer.wrap(broker, "broker_dispatch", "transport.broker_dispatch", after=dispatched)
    tracer.wrap(broker.Broker, "data_received", "transport.broker.data_received")

    def detected(args, detections, t0, t1):
        counts["agents.detect_objects.objects_scanned"] += len(args[1])
        counts["agents.detect_objects.detections"] += len(detections)

    tracer.wrap(scenario, "detect_objects", "agents.detect_objects", after=detected)
    tracer.wrap(agents, "drone_step", "agents.drone_step")
    tracer.wrap(agents.WearableSim, "next_pose", "agents.next_pose")

    def follower_handled(args, result, t0, t1):
        loop, topic = args[0], args[1]
        objects["follower"] = loop
        if topic == "tagteam/pose":
            marks["follower_pose_enter"].append(t0)
            marks["follower_handle_s"].append(t1 - t0)

    def cue_handled(args, result, t0, t1):
        objects["cueing"] = args[0]
        if args[1] == "tagteam/detections":
            counts["cueing.detections_delivered"] += 1

    tracer.wrap(follower.FollowerLoop, "on_message", "follower.on_message", after=follower_handled)
    tracer.wrap(cueing.CueEngine, "on_message", "cueing.on_message", after=cue_handled)

    def cells(a, b):
        counts["evaluation.dtw.cells"] += len(a) * len(b)

    tracer.wrap(scenario, "sync_report", "evaluation.sync_report")
    tracer.wrap(evaluation, "dtw", "evaluation.dtw", before=cells)
    for writer in ("write_trace_csv", "write_messages_jsonl", "write_report_json"):
        tracer.wrap(scenario, writer, "scenario." + writer)

    def client_publish(now, mqtt_client, topic, payload):
        if mqtt_client.client_id == "wearable":
            marks["pose_sent"].append(now)
        elif mqtt_client.client_id == "follower":
            marks["cmd_sent"].append(now)

    def drone_received(now, drone, topic, payload):
        if topic == "tagteam/cmd" and MOVE_MARKER in payload:
            marks["drone_cmd_recv"].append(now)

    tracer.mark(client.MqttClient, "publish", client_publish)
    tracer.mark(agents.DroneAgent, "on_message", drone_received)


def component_counts(tracer: Tracer) -> None:
    """Copy the counters of the follower and cue engine into tracer.counts."""
    loop = tracer.objects.get("follower")
    if loop is not None:
        tracer.counts["follower.stale"] = loop.stale_count
        tracer.counts["follower.missed"] = loop.missed_count
        tracer.counts["follower.protocol_errors"] = loop.protocol_error_count
    cues = tracer.objects.get("cueing")
    if cues is not None:
        tracer.counts["cueing.cues"] = cues.cue_count
    tracer.counts["follower.commands"] = len(tracer.marks.get("cmd_sent", ()))
