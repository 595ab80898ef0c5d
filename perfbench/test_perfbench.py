"""Tests of the benchmark itself: layer closure and the output contract.

    python3 -m pytest perfbench

The closure tests run every workload in-process at a reduced size; the
contract tests start ``run.py`` as the benchmark's users do.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from layers import LayerClock, install  # noqa: E402
from rep import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_EVERY_S,
    REFERENCE_PROBE_S,
    WORKLOADS,
    HostSpeed,
    Pacer,
    run_once,
)

#: traced self times plus unattributed time must match the wall this well
CLOSURE_TOLERANCE = 0.03


def small(spec):
    """The workload at a size a unit test can afford."""
    return dataclasses.replace(spec, n=256, t_end=min(spec.t_end, 8.0))


def per_layer_names() -> set:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc["per_layer"]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    spec = small(WORKLOADS[request.param])
    clock = LayerClock()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with install(clock):
            res = run_once(spec, 7, tmp_path_factory.mktemp(spec.name), clock)
    return spec, clock, res


def test_layers_close_on_the_wall(traced):
    spec, clock, res = traced
    layers = layer_metrics(clock, res)
    self_times = [v for k, v in layers.items()
                  if k.endswith("_s") and not k.endswith("_per_s")
                  and k not in (
                      "core.wall_s", "core.unattributed_s",
                      "parallel.straggler_wait_s", "planetesimal.build_disk_s")]
    assert all(v >= 0.0 for v in self_times)
    assert layers["core.unattributed_s"] >= 0.0
    total = sum(self_times) + layers["core.unattributed_s"]
    assert math.isclose(total, res["wall_s"], rel_tol=CLOSURE_TOLERANCE)
    # the layers, not the remainder, account for the run
    assert layers["core.unattributed_s"] < 0.2 * res["wall_s"]


def test_layer_metrics_match_declaration(traced):
    _, clock, res = traced
    names = set(layer_metrics(clock, res)) | {"obs.tracing_overhead"}
    assert names == per_layer_names()


def test_layers_are_exercised_where_expected(traced):
    spec, clock, res = traced
    layers = layer_metrics(clock, res)
    assert layers["core.block_steps"] > 0
    assert layers["planetesimal.build_disk_s"] > 0.0
    assert (layers["accel.acc_jerk_active_s"] > 0.0) == (spec.backend == "host")
    assert (layers["hybrid.tree_walk_s"] > 0.0) == (spec.backend == "hybrid")
    assert (layers["parallel.supersteps"] > 0) == (spec.backend == "spmd")
    assert ((layers["parallel.straggler_wait_s"] > 0.0)
            == (spec.backend == "spmd"))
    assert (layers["resilience.checkpoints"] > 0) == spec.managed
    if spec.backend == "hybrid":
        # the benchmark's timer agrees with the backend's own split
        assert math.isclose(layers["hybrid.tree_build_s"],
                            res["build_seconds"], rel_tol=0.1, abs_tol=2e-3)
    if spec.managed:
        assert layers["runio.energy_calls"] > 2
        assert res["checkpoint_roundtrip"]


def test_probes_stay_off_the_wall_clock():
    speed = HostSpeed()
    pacer = Pacer(speed)
    pacer.start()
    time.sleep(PROBE_EVERY_S)
    pacer()
    pacer()  # too soon after the first probe to probe again
    assert len(speed.samples) == 1
    assert pacer.paused >= speed.samples[0]
    assert speed.scale() == pytest.approx(REFERENCE_PROBE_S / speed.samples[0])


def test_untraced_run_reports_host_speed(tmp_path):
    spec = small(WORKLOADS["direct-disk"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = run_once(spec, 7, tmp_path)
    assert res["wall_scale"] > 0.0 and res["setup_scale"] > 0.0
    assert res["wall_s"] > 0.0 and res["block_steps"] > 0


def test_rank_memory_counts_what_a_rank_adds():
    # a fresh interpreter, so RUSAGE_CHILDREN holds only this child
    script = """
import multiprocessing, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from workloads import ForkWatch

inherited = np.ones(100 * 2**20 // 8)
watch = ForkWatch()
rank = multiprocessing.get_context("fork").Process(
    target=lambda: np.ones(60 * 2**20 // 8))
rank.start()
rank.join()
print(watch.peak_rss_mb(1) - watch.peak_rss_mb(0))
"""
    out = subprocess.run([sys.executable, "-c", script, str(HERE)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    added = float(out.stdout.split()[-1])
    # the rank's own 60 MB, not the 100 MB it inherited
    assert 55.0 < added < 95.0


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_and_overhead():
    out = _run(["--workload", "direct-disk", "--seed", "3", "--seconds", "1",
                "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == per_layer_names()
    assert math.isfinite(result["metrics"]["obs.tracing_overhead"]["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "direct-disk", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
