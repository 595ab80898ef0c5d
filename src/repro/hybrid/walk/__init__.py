"""repro.hybrid.walk — vectorised grouped-walk tree-force engine.

Fukushige & Kawai's GRAPE tree scheme in NumPy: partition sinks into
spatially coherent groups along the octree itself
(:func:`build_groups`), run one array-based frontier walk per group
with conservative bounding-sphere acceptance (:func:`walk_groups`),
and evaluate the shared interaction lists in bulk through the
:mod:`repro.accel` kernel engine (:func:`grouped_accelerations`).

This is the only walk :meth:`repro.baselines.tree.Octree.accelerations`
has: the tree backend and the hybrid far field both run on it, and
direct summation (which it equals bitwise at ``theta = 0``) is its
oracle.
"""

from .engine import WalkStats, grouped_accelerations
from .groups import InteractionLists, SinkGroups, build_groups, walk_groups

__all__ = [
    "SinkGroups",
    "InteractionLists",
    "WalkStats",
    "build_groups",
    "walk_groups",
    "grouped_accelerations",
]
