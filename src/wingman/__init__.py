"""Desk-scale human-drone teaming simulator.

A simulated wearable streams pose samples over a minimal MQTT-subset
bus; a dead-reckoning follower turns them into drone move commands; the
drone covers the human's blind spots with a mock detector whose
sightings become human-relative spatial cues; and a DTW-based evaluator
scores how tightly the drone mimicked the human's trajectory.

The package itself provides only ``__version__``: import the submodule
you use (``wingman.scenario``, ``wingman.evaluation``, ...). The bus-side
modules (geometry, protocol, transport, agents, follower and cueing) load
only the standard library; numpy comes in with ``wingman.evaluation``.
"""

__version__ = "0.1.0"
