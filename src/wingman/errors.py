"""The input errors that the CLI reports with exit 2, and the broker port
check and default that raise one.

Only the standard library and the transport's default port load here, so
``wingman broker``, which needs no more than this, starts without numpy
or the evaluator. ``wingman.scenario`` and ``wingman.evaluation`` export
these errors under the same names.
"""

from __future__ import annotations

import os

from wingman.transport.broker import DEFAULT_PORT

PORT_ENV_VAR = "WINGMAN_BROKER_PORT"


class ConfigError(Exception):
    """The scenario configuration is invalid or references missing files."""


class AnnotationError(ValueError):
    """Malformed annotation input: CSV content or frame rate."""


def check_broker_port(port) -> int:
    """``port`` if it is an int (not a bool) in 0..65535; else ConfigError."""
    if isinstance(port, bool) or not isinstance(port, int) or not 0 <= port <= 65535:
        raise ConfigError(f"broker_port must be 0..65535, got {port!r}")
    return port


def broker_port_default() -> int:
    """Default broker port honoring the environment override."""
    value = os.environ.get(PORT_ENV_VAR)
    if value is None:
        return DEFAULT_PORT
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{PORT_ENV_VAR} must be an integer, got {value!r}") from exc
