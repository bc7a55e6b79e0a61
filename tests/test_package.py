"""Package layout: the bus-side modules and the CLI start without the evaluator."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import wingman

BUS_SIDE = ["wingman", "wingman.geometry", "wingman.protocol", "wingman.transport",
            "wingman.agents", "wingman.follower", "wingman.cueing", "wingman.errors"]
EVALUATOR_SIDE = ["numpy", "wingman.evaluation", "wingman.scenario", "wingman.cli"]


def loaded_after(imports: list[str], watched: list[str]) -> list[str]:
    """The ``watched`` modules that importing ``imports`` loads in a fresh
    interpreter (this one has long since imported everything)."""
    src = str(Path(wingman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import importlib, json, sys\n"
        f"for name in {imports!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps(sorted(name for name in {watched!r} if name in sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bus_side_modules_load_no_evaluator():
    assert loaded_after(BUS_SIDE, EVALUATOR_SIDE) == []


def test_the_cli_loads_no_evaluator():
    # `wingman broker` runs only the transport: the scenario engine and the
    # evaluator come in with the commands that use them
    assert loaded_after(["wingman.cli"], ["numpy", "wingman.evaluation", "wingman.scenario"]) == []
