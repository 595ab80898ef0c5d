"""Layer timers installed from outside the program.

The benchmark attributes a run's wall time to the layers of ``repro``
without editing ``src/``: :func:`install` replaces the public entry
points of each layer (module functions, class methods) with timed
wrappers for the lifetime of a :class:`LayerClock`.  Timing is
stack-based, so every span's *self* time is its duration minus the
spans it encloses, and the self times of all spans plus the root span
(:attr:`LayerClock.unattributed`) sum to the measured wall.

Only calls on the thread that installed the clock are timed.  Kernel
work the accel engine farms out to its thread pool is already inside
the calling span, and spans in forked SPMD ranks stay in the ranks.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _pairs_ij(_self, pos_i, _b, c, *rest, **kw):
    # (self, pos_i, vel_i, pos_j, ...) for acc_jerk_masked/node_force
    return _rows(pos_i) * _rows(c)


def _pairs_potential(_self, pos_i, pos_j, *rest, **kw):
    return _rows(pos_i) * _rows(pos_j)


def _pairs_active(_self, system, active, *rest, **kw):
    return int(np.asarray(active).size) * int(system.n)


def _proc_stats(result) -> dict:
    return {
        "messages": result.messages,
        "bytes": result.total_bytes,
        "supersteps": result.supersteps,
        "restarts": result.restarts,
        "deaths": result.deaths,
    }


def _targets():
    """``(span, owner, attribute, work, result_stats)`` for every timed
    entry point.  ``work(*args)`` counts the pairs a kernel call
    evaluates; ``result_stats(result)`` reads counts off the return
    value."""
    import repro.core.diagnostics as diagnostics
    import repro.core.integrator as integrator
    import repro.planetesimal.disk as disk
    from repro.accel.engine import KernelEngine
    from repro.baselines.tree import Octree
    from repro.core.scheduler import BlockScheduler
    from repro.hybrid.backend import HybridBackend
    from repro.parallel.proc import ProcEngine
    from repro.resilience.checkpoint import CheckpointManager
    from repro.runio.schedule import OutputManager

    return [
        ("core.predict", integrator, "predict_positions", None, None),
        ("core.predict", integrator, "predict_velocities", None, None),
        ("core.correct", integrator, "correct", None, None),
        ("core.correct", integrator, "aarseth_dt", None, None),
        ("core.correct", integrator, "startup_dt", None, None),
        ("core.correct", integrator, "quantize", None, None),
        ("core.schedule", BlockScheduler, "next_block", None, None),
        ("core.schedule", BlockScheduler, "peek_time", None, None),
        ("accel.acc_jerk_active", KernelEngine, "acc_jerk_active",
         _pairs_active, None),
        ("accel.acc_jerk_masked", KernelEngine, "acc_jerk_masked",
         _pairs_ij, None),
        ("accel.node_force", KernelEngine, "node_force", _pairs_ij, None),
        ("accel.potential", KernelEngine, "pairwise_potential",
         _pairs_potential, None),
        ("hybrid.tree_build", Octree, "__init__", None, None),
        ("hybrid.tree_walk", Octree, "accelerations", None, None),
        ("hybrid.near_field", HybridBackend, "forces_on", _pairs_active, None),
        ("parallel.run", ProcEngine, "run", None, _proc_stats),
        ("parallel.share", ProcEngine, "share", None, None),
        ("runio.energy", diagnostics, "energy", None, None),
        ("runio.snapshot", OutputManager, "write", None, None),
        ("resilience.checkpoint", CheckpointManager, "write", None,
         lambda path: {"bytes": os.path.getsize(path)}),
        ("planetesimal.build_disk", disk, "build_disk_system", None, None),
    ]


class LayerClock:
    """Self-time accounting over a stack of timed calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.max_s: dict[str, float] = defaultdict(float)
        #: per-span counters: ``pairs`` from ``work`` plus result stats
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.wall = 0.0
        self.unattributed = 0.0
        self._stack: list[float] = []
        self._thread = threading.get_ident()

    def wrap(self, span, fn, work=None, result_stats=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self.self_s[span] += duration - children
                self.calls[span] += 1
                self.max_s[span] = max(self.max_s[span], duration)
            counts = self.counts[span]
            if work is not None:
                counts["pairs"] += work(*args, **kwargs)
            if result_stats is not None:
                for key, value in result_stats(result).items():
                    counts[key] += value
            return result

        return timed

    @contextmanager
    def root(self):
        """The timed region: its self time is the unattributed time."""
        if self._stack:
            raise RuntimeError("root span must be outermost")
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.wall = perf_counter() - t0
            self.unattributed = self.wall - self._stack.pop()


@contextmanager
def install(clock: LayerClock):
    """Time every layer entry point into ``clock`` until exit."""
    saved = []
    try:
        for span, owner, attr, work, stats in _targets():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            saved.append((owner, attr, original))
            setattr(owner, attr, clock.wrap(span, original, work, stats))
        yield clock
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
