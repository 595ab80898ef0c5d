"""Tree/direct hybrid force backend for the block-timestep integrator.

Per active block the force on each sink ``i`` is split at its
neighbour sphere ``h_i``:

* **near field** — sources with unsoftened ``dist2 < h_i**2`` (the
  range predicate the GRAPE-6 neighbour memory answers in hardware)
  are summed directly through the :mod:`repro.accel` engine's masked
  kernel, so the fixed-order j-chunk reduction keeps serial and
  threaded results bit-identical;
* **far field** — everything else comes from one grouped
  :class:`repro.baselines.tree.Octree` walk (:mod:`repro.hybrid.walk`)
  with the sink's sphere carved out of the node-acceptance test (a
  node is only taken as a multipole when its cube lies wholly outside
  the sphere, so every in-sphere source lies in an opened leaf).

The walk supplies the near field: its leaf sums test every opened
source against the sphere anyway, and hand the hits back as
``Octree.neighbour_pairs`` instead of throwing them away — as GRAPE-6
finds neighbours in the force pass.  No dense ``n_active x N`` search
runs, and near + far is an exact partition by construction: no pair
is double-counted or dropped, and at ``theta = 0`` the hybrid
reproduces pure direct summation to summation-order rounding.

Jerks stay 4th-order-Hermite-grade on both sides of the split: the
near field uses the exact pairwise jerk, the far field the analytic
monopole jerk from tree-node velocity moments.

The per-particle radii live in ``ParticleSystem.h_nb`` (0 means "use
this backend's ``r_neighbour`` default") and survive prediction,
correction, snapshots and mergers.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..baselines.tree import Octree
from ..core.backends import ForceBackend
from ..core.forces import InteractionCounter
from ..core.predictor import predict_system
from ..errors import ConfigurationError
from ..grape.neighbours import NeighbourResult, neighbour_search
from ..obs import NULL_OBS

__all__ = ["HybridBackend"]


class HybridBackend(ForceBackend):
    """Neighbour-scheme hybrid: octree far field + direct near field.

    Parameters
    ----------
    eps:
        Plummer softening (matching the direct backends).
    theta:
        Tree opening angle for the far field; 0 degrades to exact
        direct summation (every walk bottoms out in leaves).
    r_neighbour:
        Default neighbour-sphere radius for particles whose
        ``system.h_nb`` is 0.  Larger spheres shift work from the tree
        to the direct sum (more accurate, more expensive).
    leaf_size:
        Octree bucket size.
    engine:
        A :class:`repro.accel.KernelEngine` for the near-field masked
        kernel and the diagnostic potential; defaults to the shared
        process-wide engine.
    n_crit:
        Sink-group size target of the walk (bigger groups amortise
        the walk over more sinks, at the price of a looser bounding
        sphere and thus longer interaction lists).
    """

    def __init__(
        self,
        eps: float,
        theta: float = 0.5,
        r_neighbour: float = 0.05,
        leaf_size: int = 8,
        engine=None,
        n_crit: int = 32,
    ) -> None:
        if eps < 0:
            raise ConfigurationError("softening must be non-negative")
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        if r_neighbour < 0:
            raise ConfigurationError("r_neighbour must be non-negative")
        if n_crit < 1:
            raise ConfigurationError("n_crit must be >= 1")
        self.eps = float(eps)
        self.theta = float(theta)
        self.r_neighbour = float(r_neighbour)
        self.leaf_size = int(leaf_size)
        self.n_crit = int(n_crit)
        self.counter = InteractionCounter()
        if engine is None:
            from ..accel import get_engine

            engine = get_engine()
        self.engine = engine
        #: trees built over the run (== force calls; the far-field cost)
        self.builds = 0
        #: cumulative direct near-field pair count (the collisional work)
        self.near_interactions = 0
        #: cumulative tree walk interaction count (pp + node terms)
        self.far_interactions = 0
        #: wall seconds spent in tree build + walk / in the direct sum
        self.tree_seconds = 0.0
        self.direct_seconds = 0.0
        #: the tree phase split out: construction vs. walk+evaluate
        self.build_seconds = 0.0
        self.walk_seconds = 0.0
        self.observe(NULL_OBS)

    # -- observability -----------------------------------------------------

    def observe(self, obs) -> None:
        """Bind the ``hybrid.*`` metric family and tracer to ``obs``."""
        self._tracer = getattr(obs, "tracer", NULL_OBS.tracer)
        metrics = getattr(obs, "metrics", obs)
        self._c_builds = metrics.counter("hybrid.tree_builds_total")
        self._c_near = metrics.counter("hybrid.near_interactions_total")
        self._c_far = metrics.counter("hybrid.far_interactions_total")
        self._c_tree_s = metrics.counter("hybrid.tree_seconds")
        self._c_direct_s = metrics.counter("hybrid.direct_seconds")
        self._c_build_s = metrics.counter("hybrid.tree_build_seconds")
        self._c_walk_s = metrics.counter("hybrid.tree_walk_seconds")
        self._c_groups = metrics.counter("hybrid.walk.groups_total")
        self._c_node_terms = metrics.counter("hybrid.walk.node_terms_total")
        self._c_pp_terms = metrics.counter("hybrid.walk.pp_terms_total")
        self._h_group_size = metrics.histogram("hybrid.walk.group_size")
        self._h_nb_count = metrics.histogram("hybrid.neighbour_count")
        self._g_theta = metrics.gauge("hybrid.theta")
        self._g_theta.set(self.theta)

    # -- ForceBackend protocol --------------------------------------------

    def load(self, system) -> None:
        return None

    def forces_on(self, system, active: np.ndarray, t_now: float):
        active = np.asarray(active)
        n = system.n
        predict_system(system, t_now)
        h_eff = np.where(system.h_nb > 0.0, system.h_nb, self.r_neighbour)
        h_act = h_eff[active]
        pos_i = system.pred_pos[active]
        vel_i = system.pred_vel[active]

        with self._tracer.span("hybrid.tree", n_active=int(active.size)):
            t0 = perf_counter()
            with self._tracer.span("tree.build", n=int(n)):
                tree = Octree(
                    system.pred_pos, system.mass,
                    vel=system.pred_vel, leaf_size=self.leaf_size,
                )
            dt_build = perf_counter() - t0
            t0 = perf_counter()
            with self._tracer.span("tree.walk"):
                acc, jerk = tree.accelerations(
                    pos_i,
                    theta=self.theta,
                    eps=self.eps,
                    vel_i=vel_i,
                    exclude_self=active.astype(np.int64),
                    h_i=h_act,
                    n_crit=self.n_crit,
                    engine=self.engine,
                )
            dt_walk = perf_counter() - t0
        dt_tree = dt_build + dt_walk
        far = int(tree.stats.total_interactions)

        t0 = perf_counter()
        with self._tracer.span("hybrid.direct", n_active=int(active.size)):
            # the walk's in-sphere pairs (dist2 < h**2, self excluded)
            # as a boolean sink x source mask over the ascending union
            # of their sources
            rows, src = tree.neighbour_pairs
            near = int(rows.size)
            union = np.unique(src)
            if union.size:
                include = np.zeros((active.size, union.size), dtype=bool)
                include[rows, np.searchsorted(union, src)] = True
                acc_near, jerk_near = self.engine.acc_jerk_masked(
                    pos_i, vel_i,
                    system.pred_pos[union], system.pred_vel[union],
                    system.mass[union], self.eps, include,
                )
                # fixed accumulation order (far += near), part of the
                # serial/threaded bit-identity contract
                acc += acc_near
                jerk += jerk_near
        dt_direct = perf_counter() - t0

        self.builds += 1
        self.near_interactions += near
        self.far_interactions += far
        self.tree_seconds += dt_tree
        self.direct_seconds += dt_direct
        self.build_seconds += dt_build
        self.walk_seconds += dt_walk
        self._c_builds.inc()
        self._c_near.inc(near)
        self._c_far.inc(far)
        self._c_tree_s.inc(dt_tree)
        self._c_direct_s.inc(dt_direct)
        self._c_build_s.inc(dt_build)
        self._c_walk_s.inc(dt_walk)
        wstats = tree.walk_stats
        self._c_groups.inc(wstats.n_groups)
        self._c_node_terms.inc(wstats.node_terms)
        self._c_pp_terms.inc(wstats.pp_terms)
        for size in wstats.group_sizes:
            self._h_group_size.observe(float(size))
        if active.size:
            self._h_nb_count.observe(near / active.size)
        # Book the equivalent direct-sum load for cross-backend flop
        # comparability (like TreeBackend); the real split lives in the
        # near/far counters above.
        self.counter.add(active.size, n, with_jerk=True)
        return acc, jerk

    def push_updates(self, system, active: np.ndarray) -> None:
        return None

    def potential(self, system) -> np.ndarray:
        # Diagnostics use the exact mutual potential so energy-drift
        # figures measure force-split error, not a second approximation.
        n = system.n
        return self.engine.pairwise_potential(
            system.pos, system.pos, system.mass, self.eps,
            self_indices=np.arange(n),
        )

    # -- neighbour plumbing ------------------------------------------------

    def neighbours_of(self, system, active: np.ndarray, t_now: float, h) -> NeighbourResult:
        """Key-indexed neighbour query at ``t_now``.

        Mirrors ``Grape6Machine.neighbours_of`` so the integrator's
        collision screening can ride the same range query the force
        split already uses.
        """
        active = np.asarray(active)
        predict_system(system, t_now)
        return neighbour_search(
            system.pred_pos[active], system.pred_pos, system.key, h,
            exclude_keys=system.key[active],
        )
