"""The traced benchmark sample still runs against the package API.

`bench/tracer.py` wraps `GreenContext` methods and layer functions by name,
and builds each workload through the scenario builder named in
`bench/spec.json`, so a refactor that renames or reshapes them breaks the
traced run without failing any library test.  One toy-size traced sample per
workload guards that contract.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from condenser import scenarios

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "bench", "spec.json")) as fh:
    WORKLOADS = json.load(fh)["workloads"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_toy_sample_reports_finite_layers(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "sample.py"),
         "--workload", workload, "--seed", "3", "--toy", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in record, record["error"]
    layers = record["layers"]
    assert layers
    bad = {k: v for k, v in layers.items() if not math.isfinite(v)}
    assert not bad
    wl = WORKLOADS[workload]
    built = getattr(scenarios, wl["builder"])(**wl["toy_kwargs"])
    plates = built.spec.condenser.plates
    assert layers["model.nodes_positive"] == len(plates[0].nodes)
    assert layers["model.nodes_negative"] == len(plates[-1].nodes)
    assert layers["balayage.sweep_columns"] > 0
    if workload.startswith("ballinball"):
        # every sweep column of the Newtonian ball-in-ball clips
        assert layers["balayage.clipped_columns"] == \
            layers["balayage.sweep_columns"]
