"""End-to-end benchmark of the disk integrations in ``repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (see ``workloads.py``), each in a
fresh interpreter, until ``--seconds`` are used, checks every run's
output, and prints one JSON result as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics (medians over
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones.  Run it from the
root of a source checkout: it imports ``repro`` from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ENERGY_TOL, WORKLOADS, reference  # noqa: E402

MIN_REPS = 3
MAX_REPS = 64
#: kernel threads per process: a second thread on the shared host runs
#: at whatever the neighbours leave of the other core (the exact
#: potential on hybrid-managed took either 0.8 s or 1.3-1.6 s with
#: two), and the SPMD ranks already fill the cores
KERNEL_THREADS = 1
#: repetitions still running this long after ``--seconds`` are killed [s]
DEADLINE_MARGIN = 130.0


def declared_units(trace: bool) -> dict:
    """``name -> unit`` of the metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_rep(spec, seed: int, workdir: Path, deadline: float,
            trace: bool = False, ref: bool = False) -> dict:
    """One repetition in a fresh interpreter, killed if it still runs at
    ``deadline`` (a ``time.monotonic()`` reading); raises RuntimeError
    on any failure."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", spec.name,
           "--disk-seed", str(seed), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if ref:
        cmd.append("--reference")
    env = dict(os.environ, REPRO_KERNEL_THREADS=str(KERNEL_THREADS))
    # own session, so a timeout can kill the SPMD ranks with the repetition
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        out, err = "", "killed at the benchmark's deadline"
    finally:
        # rank processes a crashed repetition may have left behind
        _kill_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"repetition exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise RuntimeError(f"unreadable repetition output: {exc}") from exc


def disk_seed(seed: int, k: int) -> int:
    """Disk of the ``k``-th repetition: every repetition integrates its
    own disk, so a run's median is not hostage to one disk's close
    encounters."""
    return 1000 * seed + k


def check(spec, res: dict, expected_digest: str | None) -> list[str]:
    """Why one run's output is wrong (empty when it is right).

    ``expected_digest`` is the reference run's final state on the same
    disk, or None where no reference was run.
    """
    problems = []
    if not res["finite"]:
        problems.append("non-finite final state")
    if res["n_final"] != res["n_initial"]:
        problems.append(f"particle count {res['n_initial']} -> {res['n_final']}")
    if res["block_steps"] <= 0:
        problems.append("no block steps taken")
    if not res["energy_error"] <= ENERGY_TOL:
        problems.append(f"|dE/E| {res['energy_error']:.3e} above {ENERGY_TOL:g}")
    if expected_digest is not None and res["digest"] != expected_digest:
        problems.append("final state differs from the in-process reference")
    if spec.managed:
        if not res.get("checkpoint_roundtrip"):
            problems.append("last checkpoint does not reload to its state")
        if not res.get("snapshots"):
            problems.append("no snapshots written")
    return problems


def host_info(spec) -> dict:
    """Informational provenance; never gates anything."""
    mem_kb = 0
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(
        len(p.read_bytes().splitlines())
        for p in (ROOT / "src" / "repro").rglob("*.py")
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_threads": KERNEL_THREADS,
        "ranks": spec.ranks,
        "src_repro_lines": src_lines,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=work_root))
    runs: list[tuple[bool, dict]] = []
    untraced_wall: dict[int, float] = {}  # disk -> wall of its untraced run
    overheads: list[float] = []
    failures: list[str] = []
    attempted = 0
    reference_digest = None
    try:
        if reference(spec) is not None:
            try:
                reference_digest = run_rep(spec, disk_seed(args.seed, 0),
                                           work / "ref", deadline,
                                           ref=True)["digest"]
            except RuntimeError as exc:
                # the runs on disk 0 then fail their reference check
                reference_digest = ""
                print(f"reference run failed: {exc}")
        start = time.monotonic()
        # traced runs pair with an untraced run of the same disk
        plan = [False, True] if args.trace else [False]
        rep_s: list[float] = []
        while attempted < MAX_REPS:
            elapsed = time.monotonic() - start
            if (attempted >= MIN_REPS * len(plan)
                    and attempted % len(plan) == 0
                    and elapsed + median(rep_s) > args.seconds):
                break
            traced = plan[attempted % len(plan)]
            disk = attempted // len(plan)
            attempted += 1
            t0 = time.monotonic()
            try:
                res = run_rep(spec, disk_seed(args.seed, disk),
                              work / str(attempted), deadline, traced)
            except RuntimeError as exc:
                failures.append(f"run {attempted}: {exc}")
                continue
            finally:
                rep_s.append(time.monotonic() - t0)
            problems = check(spec, res, reference_digest if disk == 0 else None)
            if problems:
                failures.append(f"run {attempted}: " + "; ".join(problems))
            runs.append((traced, res))
            if not traced:
                untraced_wall[disk] = res["wall_s"]
            elif disk in untraced_wall:
                overheads.append(res["wall_s"] / untraced_wall[disk] - 1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(bool(args.trace))
    plain = [r for traced, r in runs if not traced]
    metrics = {}
    if args.trace:
        traced = [r for t, r in runs if t]
        for name in units:
            if name != "obs.tracing_overhead":
                metrics[name] = median([r["layers"][name] for r in traced])
        # each traced run against the untraced run of its disk just
        # before it, so slow drifts of the host cancel
        metrics["obs.tracing_overhead"] = median(overheads)
    else:
        # timings in seconds at the reference host speed
        metrics = {
            "setup_s": median([r["setup_s"] * r["setup_scale"] for r in plain]),
            "wall_s": median([r["wall_s"] * r["wall_scale"] for r in plain]),
            "particle_steps_per_s": median(
                [r["particle_steps"] / (r["wall_s"] * r["wall_scale"])
                 for r in plain]
            ),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }

    for traced, r in runs:
        speed = "" if traced else (
            f" at host speed {r['wall_scale']:.3f} of reference")
        print(f"{'traced' if traced else 'run':6s} wall {r['wall_s']:.3f} s"
              f"{speed}, setup {1e3 * r['setup_s']:.3f} ms, "
              f"{r['block_steps']} blocks, "
              f"{r['particle_steps']} particle steps, "
              f"|dE/E| {r['energy_error']:.2e}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"samples: {len(plain)} untraced, {len(runs) - len(plain)} traced; "
          f"failed runs: {len(failures)} of {attempted}")
    for line in failures:
        print(f"FAILED {line}")
    print("info: " + json.dumps(host_info(spec), sort_keys=True))
    print(json.dumps({
        "correct": not failures and bool(runs),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
