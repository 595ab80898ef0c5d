"""Tree-based force backend for the block-timestep integrator.

The [MA93] hybrid the paper discusses: individual timesteps with a tree
for the force loop.  The tree must be rebuilt whenever sources move,
which under individual timesteps means *every block step* — this
rebuild cost (plus the poor amortisation of the walk over tiny blocks)
is precisely why the paper says "the actual gain in the calculation
speed turned out to be rather small".  The TREE-VS-DIRECT benchmark
measures that with this backend.

The tree is built over source particles *predicted to the block time*,
so the force is consistent with the direct backends up to the multipole
truncation error.  Forces come from the octree's grouped walk
(:mod:`repro.hybrid.walk`), which at ``theta = 0`` is bitwise equal to
direct summation.
"""

from __future__ import annotations

import numpy as np

from ..accel import get_engine
from ..core.backends import ForceBackend
from ..core.forces import InteractionCounter
from ..core.predictor import predict_system
from ..errors import ConfigurationError
from .tree import Octree

__all__ = ["TreeBackend"]


class TreeBackend(ForceBackend):
    """Barnes–Hut force backend (monopole, rebuilt every block, grouped walk).

    Parameters
    ----------
    eps:
        Plummer softening (matching the direct backends).
    theta:
        Opening angle; smaller is more accurate and more expensive.
    leaf_size:
        Bucket size of the octree.
    n_crit:
        Grouped-walk sink-group size target.
    engine:
        :class:`repro.accel.KernelEngine` for grouped-walk bulk
        evaluation (defaults to the process-wide engine).
    """

    def __init__(self, eps: float, theta: float = 0.5, leaf_size: int = 8,
                 n_crit: int = 32, engine=None) -> None:
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        if n_crit < 1:
            raise ConfigurationError("n_crit must be >= 1")
        self.eps = float(eps)
        self.theta = float(theta)
        self.leaf_size = int(leaf_size)
        self.n_crit = int(n_crit)
        self.engine = engine
        self.counter = InteractionCounter()
        #: trees built over the run (== block steps; the cost driver)
        self.builds = 0
        #: cumulative tree walk interaction count (pp + node)
        self.walk_interactions = 0

    def load(self, system) -> None:
        return None

    def forces_on(self, system, active: np.ndarray, t_now: float):
        predict_system(system, t_now)
        tree = Octree(
            system.pred_pos, system.mass, vel=system.pred_vel, leaf_size=self.leaf_size
        )
        self.builds += 1
        active = np.asarray(active)
        acc, jerk = tree.accelerations(
            system.pred_pos[active],
            theta=self.theta,
            eps=self.eps,
            vel_i=system.pred_vel[active],
            exclude_self=_dense_exclusion(active, system.n),
            n_crit=self.n_crit,
            engine=self.engine,
        )
        self.walk_interactions += tree.stats.total_interactions
        # Book as force_interactions for comparability with direct sums.
        self.counter.add(active.size, system.n, with_jerk=True)
        return acc, jerk

    def push_updates(self, system, active: np.ndarray) -> None:
        return None

    def potential(self, system) -> np.ndarray:
        n = system.n
        return get_engine().pairwise_potential(
            system.pos, system.pos, system.mass, self.eps, self_indices=np.arange(n)
        )


def _dense_exclusion(active: np.ndarray, n: int) -> np.ndarray:
    """Per-sink source index for self-exclusion in leaf sums.

    ``Octree.accelerations`` indexes ``exclude_self`` by sink position,
    so simply return the active indices themselves.
    """
    return np.asarray(active, dtype=np.int64)
