"""Package layout: the bus-side modules start without the evaluator."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import wingman

BUS_SIDE = ["wingman", "wingman.geometry", "wingman.protocol", "wingman.transport",
            "wingman.agents", "wingman.follower", "wingman.cueing"]
EVALUATOR_SIDE = ["numpy", "wingman.evaluation", "wingman.scenario", "wingman.cli"]


def test_bus_side_modules_load_no_evaluator():
    # a fresh interpreter: this one has long since imported everything
    src = str(Path(wingman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import importlib, sys\n"
        f"for name in {BUS_SIDE!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(name for name in {EVALUATOR_SIDE!r} if name in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
