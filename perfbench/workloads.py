"""The benchmark's workloads and one repetition of each.

Every workload integrates a seeded, scaled paper disk (planetesimals
between the Uranus and Neptune orbits plus the two protoplanets) under
the Sun's Kepler field with the block-timestep Hermite integrator.
They differ in force backend, particle count, run length and run
management; README.md says why each was chosen.
"""

from __future__ import annotations

import hashlib
import importlib
import mmap
import os
import resource
import shutil
import statistics
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

EPS = 0.008
ETA = 0.02
#: the CLI's largest block step
DT_MAX = 1.0
#: largest final |dE/E| a correct run may show
ENERGY_TOL = 1e-3
_DIGEST_ARRAYS = ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key")
#: times a repetition sets up its disk; ``setup_s`` is their median
SETUP_REPEATS = 30
#: set-ups between two host speed probes
SETUP_PROBE_EVERY = 5
#: least integration time between two host speed probes [s]
PROBE_EVERY_S = 0.25
#: the probe kernel's time at the reference host speed [s]; timings
#: are reported in seconds at that speed (see :class:`HostSpeed`)
REFERENCE_PROBE_S = 0.013
#: modules the program imports lazily during set-up or the run (scipy
#: for the disk's mass function, the kernel engine, the grouped walk,
#: the rank processes' plumbing), loaded before the clocks start so
#: that neither clock times imports
_PRELOAD = {
    "all": ("numpy.random", "scipy.optimize", "repro.accel", "repro.core",
            "repro.core.diagnostics", "repro.planetesimal.disk",
            "repro.runio", "repro.runio.runlog"),
    "host": (),
    "hybrid": ("repro.hybrid", "repro.hybrid.walk"),
    "spmd": ("repro.parallel", "repro.parallel.proc",
             "multiprocessing.sharedctypes", "multiprocessing.popen_fork"),
    "managed": ("repro.resilience",),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: "host" (direct summation), "hybrid" (tree + near field), "spmd"
    backend: str
    #: planetesimals; the disk adds two protoplanets
    n: int
    t_end: float
    ranks: int = 0
    #: force the accel engine onto its fused chunk kernels at every
    #: block size, the configuration the SPMD bit-identity contract is
    #: stated for
    pinned_kernels: bool = False
    #: managed (ProductionRun) settings; None = plain Simulation loop
    diagnostics_interval: float | None = None
    snapshot_interval: float | None = None
    checkpoint_interval: int | None = None

    @property
    def managed(self) -> bool:
        return self.diagnostics_interval is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("direct-disk", "host", n=2048, t_end=8.0),
        Workload("hybrid-wide", "hybrid", n=8192, t_end=1.0),
        Workload("hybrid-managed", "hybrid", n=2048, t_end=8.0,
                 diagnostics_interval=1.0, snapshot_interval=2.0,
                 checkpoint_interval=1),
        Workload("spmd-disk", "spmd", n=2048, t_end=8.0, ranks=2),
    )
}


def reference(spec: Workload) -> Workload | None:
    """The in-process run an SPMD workload must reproduce bit for bit.

    It is the same disk on host direct summation with the kernels
    pinned: with the default size heuristic, blocks of one particle
    at N < 4096 take the reference kernel, whose summation order
    differs from the chunk kernel every rank runs.
    """
    if spec.backend != "spmd":
        return None
    return replace(spec, name=f"{spec.name}/reference", backend="host",
                   ranks=0, pinned_kernels=True)


def digest(system) -> str:
    """SHA-256 over the integrator state arrays, in a fixed order."""
    h = hashlib.sha256()
    for name in _DIGEST_ARRAYS:
        h.update(np.ascontiguousarray(getattr(system, name)).tobytes())
    return h.hexdigest()


def _backend(spec: Workload, obs=None):
    if spec.backend == "host":
        from repro.accel import EngineConfig, KernelEngine
        from repro.core import HostDirectBackend

        engine = None
        if spec.pinned_kernels:
            engine = KernelEngine(EngineConfig.from_env(accel_min_pairs=1))
        return HostDirectBackend(eps=EPS, engine=engine)
    if spec.backend == "hybrid":
        from repro.hybrid import HybridBackend

        return HybridBackend(eps=EPS)
    if spec.backend == "spmd":
        from repro.parallel import SpmdBackend

        return SpmdBackend(eps=EPS, n_ranks=spec.ranks, mode="proc", obs=obs)
    raise ValueError(f"unknown backend {spec.backend!r}")


class ForkWatch:
    """Resident memory a forked rank process starts with.

    A rank starts as a copy of its parent, so its ``ru_maxrss`` holds
    the parent's pages it inherited.  Each child records its resident
    size on starting in a page shared with the parent; the peak less
    that start is what the rank added.
    """

    def __init__(self) -> None:
        self._start = mmap.mmap(-1, 8)  # anonymous and shared across fork
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        with open("/proc/self/statm", encoding="ascii") as fh:
            resident = int(fh.read().split()[1]) * mmap.PAGESIZE
        self._start[:] = struct.pack("q", resident)

    def peak_rss_mb(self, ranks: int) -> float:
        """Peak resident memory of this process plus its rank processes.

        ``RUSAGE_CHILDREN`` reports the largest reaped child; the ranks
        of a gang run concurrently and alike, so each adds that peak
        less its resident size at start.  Shared library pages a rank
        touches only after it starts still count in that difference.
        """
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        added = 0.0
        if ranks:
            child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            start = struct.unpack("q", self._start[:])[0] / 1024.0
            added = max(0.0, child - start)
        return (own + ranks * added) / 1024.0


_PROBE_POS = np.random.default_rng(2002).random((160, 3))
#: the probe's buffers, allocated once so that it never touches fresh
#: pages: the allocator's state differs between workloads and blocks
_PROBE_BUF = (np.empty((160, 160, 3)), np.empty((160, 160)))


def _probe_kernel() -> float:
    """Fixed work in the program's mix: dense softened pairwise sums in
    numpy on cache-resident buffers, then an interpreted loop."""
    d, r2 = _PROBE_BUF
    total = 0.0
    for _ in range(12):
        np.subtract(_PROBE_POS[:, None, :], _PROBE_POS[None, :, :], out=d)
        np.multiply(d, d, out=d)
        np.sum(d, axis=-1, out=r2)
        r2 += 1e-4
        np.sqrt(r2, out=r2)
        np.reciprocal(r2, out=r2)
        total += float(r2.sum())
    for i in range(30000):
        total += i % 7
    return total


class HostSpeed:
    """Speed of the host while a timing is taken.

    The shared host's speed drifts by 15-20% over seconds to minutes,
    and all kinds of work (memory-bound numpy, cache-resident numpy,
    interpreted loops) drift together: the ratio of two of them keeps
    to about 4% where each alone spreads 16-23%.  So a timing is taken
    with probes of a fixed kernel interleaved, and reported as
    ``raw * scale()``: seconds at the speed where the probe takes
    :data:`REFERENCE_PROBE_S`.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        _probe_kernel()
        self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)


class Pacer:
    """Block callback probing the host speed at most every
    :data:`PROBE_EVERY_S` of integration; :attr:`paused` is the time
    the probes took, to leave off the wall clock."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.paused = 0.0
        self._last = perf_counter()

    def start(self) -> float:
        """Start the integration clock; returns its reading."""
        self._last = perf_counter()
        return self._last

    def __call__(self, _sim=None) -> None:
        now = perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.speed.probe()
            self._last = perf_counter()
            self.paused += self._last - now


def _setup(spec: Workload, disk_seed: int, workdir: Path, obs=None,
           pacer=None):
    """Disk build, backend construction and ``backend.load`` (which
    starts an SPMD gang); returns ``(sim, run, written)``, where ``run``
    is the ProductionRun of a managed workload and ``written`` collects
    the digest of every state it checkpoints.  ``pacer`` is called after
    every block of a managed run."""
    import repro.planetesimal.disk as disk
    from repro.core import KeplerField, Simulation, TimestepParams
    from repro.runio import ProductionRun

    system = disk.build_disk_system(
        disk.PlanetesimalDiskConfig(n_planetesimals=spec.n, seed=disk_seed)
    )
    backend = _backend(spec, obs)
    sim = Simulation(
        system,
        backend,
        external_field=KeplerField(),
        timestep_params=TimestepParams(
            eta=ETA, eta_start=ETA / 2.0, dt_max=DT_MAX
        ),
    )
    backend.load(system)
    written: list[str] = []
    run = None
    if spec.managed:
        run = ProductionRun(
            sim,
            workdir,
            snapshot_interval=spec.snapshot_interval,
            diagnostics_interval=spec.diagnostics_interval,
            checkpoint_interval=spec.checkpoint_interval,
            run_id=spec.name,
            on_block=lambda s: _on_block(s, run, written, pacer),
        )
    return sim, run, written


def _on_block(sim, run, written: list, pacer) -> None:
    # runs right after a due checkpoint, on the state it wrote
    if run.checkpoints_written > len(written):
        written.append(digest(sim.system))
    if pacer is not None:
        pacer(sim)


def run_once(spec: Workload, disk_seed: int, workdir: Path,
             clock=None) -> dict:
    """Set up and integrate one disk; returns the measurements.

    ``setup_s`` is the median of :data:`SETUP_REPEATS` set-ups of the
    disk (the modules they import are loaded first); the last one is
    integrated.  Untraced, both clocks run with host speed probes
    interleaved (``setup_scale``, ``wall_scale``; see
    :class:`HostSpeed`).  ``clock`` (a :class:`layers.LayerClock`
    already installed) wraps the integration in its root span instead,
    and a traced SPMD run also records the ranks' op waits.
    """
    for group in ("all", spec.backend) + (("managed",) if spec.managed else ()):
        for module in _PRELOAD[group]:
            importlib.import_module(module)
    obs = None
    if clock is not None and spec.backend == "spmd":
        from repro.obs import NULL_TRACER, Observability

        obs = Observability(tracer=NULL_TRACER)
    forks = ForkWatch()
    for _ in range(3):  # warm the probe's code and memory
        _probe_kernel()
    setup_speed, run_speed = HostSpeed(), HostSpeed()
    pacer = Pacer(run_speed) if clock is None else None

    setup_times = []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        if k % SETUP_PROBE_EVERY == 0:
            setup_speed.probe()
        where = workdir if last else workdir / f"setup-{k}"
        t0 = perf_counter()
        sim, run, written = _setup(spec, disk_seed, where, obs, pacer)
        setup_times.append(perf_counter() - t0)
        if not last:
            _close(sim)
            shutil.rmtree(where, ignore_errors=True)
    setup_speed.probe()
    n_initial = sim.system.n

    try:
        if clock is not None:
            t0 = perf_counter()
            with clock.root():
                energy_error = _integrate(sim, run, spec.t_end)
            wall_s = perf_counter() - t0
        else:
            run_speed.probe()
            t0 = pacer.start()
            energy_error = _integrate(sim, run, spec.t_end, pacer)
            wall_s = perf_counter() - t0 - pacer.paused
            run_speed.probe()
        rss = forks.peak_rss_mb(spec.ranks)
    finally:
        _close(sim)
    if run is not None:
        energy_error = _final_energy_error(workdir)

    state = sim.system
    out = {
        "setup_s": float(np.median(setup_times)),
        "setup_scale": setup_speed.scale(),
        "wall_s": wall_s,
        "wall_scale": run_speed.scale() if clock is None else None,
        "peak_rss_mb": rss,
        "energy_error": energy_error,
        "block_steps": sim.block_steps,
        "particle_steps": sim.particle_steps,
        "n_initial": n_initial,
        "n_final": state.n,
        "finite": bool(
            np.all(np.isfinite(state.pos)) and np.all(np.isfinite(state.vel))
        ),
        "digest": digest(state),
    }
    if spec.backend == "hybrid":
        out["near_pairs"] = sim.backend.near_interactions
        out["far_terms"] = sim.backend.far_interactions
        out["build_seconds"] = sim.backend.build_seconds
    if obs is not None:
        out["op_wait_s"] = obs.metrics.histogram("spmd.op_wait_seconds").sum
    if run is not None:
        out.update(_checkpoint_roundtrip(workdir, written))
        out["snapshots"] = len(list(workdir.glob("snap_*.npz")))
    return out


def _close(sim) -> None:
    close = getattr(sim.backend, "close", None)
    if close is not None:
        close()


def _integrate(sim, run, t_end: float, pacer=None) -> float | None:
    """Initialize through the final synchronize and energy sample,
    calling ``pacer`` after every block (a managed run's ``on_block``
    already does).

    Returns the final |dE/E|; a managed run logs it instead (None).
    """
    from repro.core.diagnostics import EnergyTracker

    if run is not None:
        run.execute(t_end)
        return None
    sim.initialize()
    tracker = EnergyTracker(sim.backend.eps, sim.external_field)
    tracker.start(sim.system)
    sim.evolve(t_end, callback=pacer)
    sim.synchronize(min(t_end, float(sim.system.t.max())))
    return tracker.sample(sim.system)


def _final_energy_error(workdir: Path) -> float:
    from repro.runio.runlog import read_run_log

    final = [r for r in read_run_log(workdir / "run.jsonl")
             if r.get("note") == "final"]
    return float(final[-1]["energy_error"])


def _checkpoint_roundtrip(workdir: Path, written: list[str]) -> dict:
    """Reload the newest checkpoint; compare with its digest at write."""
    from repro.resilience import CheckpointManager

    if not written:
        return {"checkpoints": 0, "checkpoint_roundtrip": False}
    system, _ = CheckpointManager(workdir / "checkpoints").load_latest()
    return {
        "checkpoints": len(written),
        "checkpoint_roundtrip": digest(system) == written[-1],
    }
