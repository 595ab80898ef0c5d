"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --disk-seed N --workdir DIR
        [--trace | --reference]

Prints one JSON object (the measurements of :func:`workloads.run_once`,
plus ``layers`` when traced) as its last line of output.  ``run.py``
starts one of these per repetition so that peak memory and lazily
built engines belong to a single run.  ``--reference`` runs the
workload's bit-identity reference (:func:`workloads.reference`)
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import LayerClock, install  # noqa: E402
from workloads import WORKLOADS, reference, run_once  # noqa: E402

#: the paper's operation count for one acc + jerk pair interaction
FLOPS_PER_PAIR = 57
_ACCEL = ("acc_jerk_active", "acc_jerk_masked", "node_force", "potential")
_PARALLEL_COUNTS = ("messages", "bytes", "supersteps", "restarts", "deaths")


def layer_metrics(clock: LayerClock, res: dict) -> dict:
    """Per-layer metrics of one traced run (all but tracing overhead)."""
    s, calls, counts = clock.self_s, clock.calls, clock.counts
    blocks, steps = res["block_steps"], res["particle_steps"]
    out = {
        "core.wall_s": clock.wall,
        "core.predict_s": s["core.predict"],
        "core.correct_s": s["core.correct"],
        "core.schedule_s": s["core.schedule"],
        "core.unattributed_s": clock.unattributed,
        "core.block_steps": blocks,
        "core.particle_steps": steps,
        "core.mean_block": steps / blocks if blocks else 0.0,
        "core.energy_error": res["energy_error"],
    }
    accel_s = 0.0
    pairs = 0.0
    for op in _ACCEL:
        out[f"accel.{op}_s"] = s[f"accel.{op}"]
        accel_s += s[f"accel.{op}"]
        pairs += counts[f"accel.{op}"]["pairs"]
    out["accel.interactions"] = pairs
    out["accel.interactions_per_s"] = pairs / accel_s if accel_s else 0.0
    out["accel.gflops_57"] = (
        FLOPS_PER_PAIR * pairs / accel_s / 1e9 if accel_s else 0.0
    )

    tested = counts["hybrid.near_field"]["pairs"]
    near = res.get("near_pairs", 0)
    far = res.get("far_terms", 0)
    out.update({
        "hybrid.tree_build_s": s["hybrid.tree_build"],
        "hybrid.tree_walk_s": s["hybrid.tree_walk"],
        "hybrid.near_field_s": s["hybrid.near_field"],
        "hybrid.near_pairs": near,
        "hybrid.far_terms": far,
        "hybrid.near_hit_ratio": near / tested if tested else 0.0,
        "hybrid.work_ratio": (near + far) / tested if tested else 0.0,
    })

    proc = counts["parallel.run"]
    out["parallel.run_s"] = s["parallel.run"]
    out["parallel.share_s"] = s["parallel.share"]
    out["parallel.straggler_wait_s"] = res.get("op_wait_s", 0.0)
    for key in _PARALLEL_COUNTS:
        out[f"parallel.{key}"] = proc[key]

    out.update({
        "runio.energy_s": s["runio.energy"],
        "runio.energy_calls": calls["runio.energy"],
        "runio.snapshot_s": s["runio.snapshot"],
        "resilience.checkpoint_s": s["resilience.checkpoint"],
        "resilience.checkpoints": calls["resilience.checkpoint"],
        "resilience.checkpoint_max_ms": 1e3 * clock.max_s["resilience.checkpoint"],
        "resilience.checkpoint_bytes": counts["resilience.checkpoint"]["bytes"],
        "planetesimal.build_disk_s": (
            s["planetesimal.build_disk"] / calls["planetesimal.build_disk"]
        ),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--disk-seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    # scaled disks trip the mass-ratio guard by design
    warnings.filterwarnings("ignore", message="mean particle mass")

    spec = WORKLOADS[args.workload]
    if args.reference:
        spec = reference(spec)
    workdir = Path(args.workdir)
    if args.trace:
        clock = LayerClock()
        with install(clock):
            res = run_once(spec, args.disk_seed, workdir, clock)
        res["layers"] = layer_metrics(clock, res)
    else:
        res = run_once(spec, args.disk_seed, workdir)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
