"""Bulk evaluation of grouped-walk interaction lists via ``repro.accel``.

:func:`grouped_accelerations` is the octree's one force walk: group
the sinks (:func:`~repro.hybrid.walk.groups.build_groups`), walk once
per group (:func:`~repro.hybrid.walk.groups.walk_groups`), then
evaluate each group's shared lists in two bulk kernel calls —
accepted-node multipoles through :meth:`KernelEngine.node_force` and
opened-leaf sources through :meth:`KernelEngine.acc_jerk` /
:meth:`~KernelEngine.acc_jerk_masked`.

Exactness contracts (tested):

* the kernel is pinned to the ``accel`` implementation for every call,
  so results do not depend on group sizes (the size heuristic would
  route small groups to the ``reference`` kernels, whose low-order
  bits differ) and serial ≡ threaded stays bit-identical through the
  engine's fixed-order reduction;
* per-sink neighbour spheres and self-exclusion are applied at
  *evaluation* (mask / self-index), never at acceptance; the in-sphere
  hits the mask drops are handed back as ``(sink row, source id)``
  pairs, and the clearance test puts every in-sphere source in an
  opened leaf, so those pairs are the whole near field and near + far
  is an exact partition;
* at ``theta = 0`` nothing is accepted, every group's source list is
  all particles in ascending order, and each group's ``acc_jerk`` call
  is a row-subset of the full direct call — bit-identical to direct
  summation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import build_groups, walk_groups

__all__ = ["WalkStats", "grouped_accelerations"]


@dataclass
class WalkStats:
    """Counters of one grouped walk (exposed as ``hybrid.walk.*``)."""

    n_groups: int = 0
    node_terms: int = 0  # sum over groups of |sinks| * |node list|
    pp_terms: int = 0  # sum over groups of |sinks| * |pp list|
    group_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def grouped_accelerations(
    tree,
    pos_i: np.ndarray,
    theta: float,
    eps: float,
    vel_i: np.ndarray | None = None,
    exclude_self: np.ndarray | None = None,
    h_i: np.ndarray | None = None,
    n_crit: int = 32,
    engine=None,
):
    """Tree forces for a sink block via grouped walks + bulk kernels.

    Arguments mirror :meth:`repro.baselines.tree.Octree.accelerations`
    (which normalises them before delegating here); ``vel_i=None``
    evaluates accelerations only and returns ``jerk=None``.

    Returns ``(acc, jerk_or_None, WalkStats, pairs_or_None)``; with
    ``h_i`` given, ``pairs`` is the ``(rows, src)`` tuple of every
    opened-leaf source with unsoftened ``dist2 < h_i[row]**2``, the
    sink's own particle excluded.
    """
    if engine is None:
        from ...accel import get_engine

        engine = get_engine()
    n_i = pos_i.shape[0]
    want_jerk = tree.vel is not None and vel_i is not None
    acc = np.zeros((n_i, 3))
    jerk = np.zeros((n_i, 3)) if want_jerk else None
    stats = WalkStats()
    near_rows: list[np.ndarray] = []
    near_src: list[np.ndarray] = []
    if n_i == 0:
        return acc, jerk, stats, None if h_i is None else _pair_arrays(near_rows, near_src)

    # sinks without velocities still go through the acc+jerk kernels
    # (the node-monopole jerk falls out of the same tile); the jerk
    # outputs are simply dropped
    vi_all = vel_i if want_jerk else np.zeros((n_i, 3))
    src_vel = tree.vel if tree.vel is not None else np.zeros_like(tree.pos)

    groups = build_groups(tree, pos_i, h_i=h_i, n_crit=n_crit)
    lists = walk_groups(tree, groups, theta)
    stats.n_groups = groups.n_groups
    stats.group_sizes = groups.sizes

    node_mass = tree.node_mass[:, None]
    node_vel = np.divide(
        tree.node_mom, node_mass,
        out=np.zeros_like(tree.node_mom), where=node_mass > 0,
    )

    for g in range(groups.n_groups):
        rows = groups.rows(g)
        pi = pos_i[rows]
        vi = vi_all[rows]
        a_g = None
        j_g = None

        nodes = lists.nodes(g)
        if nodes.size:
            quad = tree.node_quad[nodes] if tree.quadrupole else None
            a_g, j_g = engine.node_force(
                pi, vi, tree.node_com[nodes], node_vel[nodes],
                tree.node_mass[nodes], eps, quad_j=quad, kernel="accel",
            )
            stats.node_terms += rows.size * nodes.size

        src = lists.sources(g)
        if src.size:
            sp = tree.pos[src]
            if exclude_self is None:
                hit = pos_in = None
            else:
                # position of each sink's own particle in the sorted
                # source list (rows ``hit`` hold it at ``pos_in``)
                pos_in = np.searchsorted(src, exclude_self[rows])
                pos_in = np.clip(pos_in, 0, src.size - 1)
                hit = np.flatnonzero(src[pos_in] == exclude_self[rows])
            if h_i is None:
                self_idx = None
                if hit is not None:
                    self_idx = np.full(rows.size, -1, dtype=np.int64)
                    self_idx[hit] = pos_in[hit]
                pa, pj = engine.acc_jerk(
                    pi, vi, sp, src_vel[src], tree.mass[src], eps,
                    self_indices=self_idx, kernel="accel",
                )
            else:
                # evaluation-time neighbour carve with neighbour_search's
                # unsoftened range predicate; the hits are the near field
                dr = sp[None, :, :] - pi[:, None, :]
                dist2 = np.einsum("ijk,ijk->ij", dr, dr)
                within = dist2 < h_i[rows][:, None] ** 2
                include = ~within
                if hit is not None:
                    within[hit, pos_in[hit]] = False
                    include[hit, pos_in[hit]] = False
                r, c = np.nonzero(within)
                near_rows.append(rows[r])
                near_src.append(src[c])
                pa, pj = engine.acc_jerk_masked(
                    pi, vi, sp, src_vel[src], tree.mass[src], eps,
                    include, kernel="accel",
                )
            stats.pp_terms += rows.size * src.size
            if a_g is None:
                a_g, j_g = pa, pj
            else:
                a_g = a_g + pa
                j_g = j_g + pj

        if a_g is not None:
            acc[rows] = a_g
            if want_jerk:
                jerk[rows] = j_g

    return acc, jerk, stats, None if h_i is None else _pair_arrays(near_rows, near_src)


def _pair_arrays(rows: list[np.ndarray], src: list[np.ndarray]):
    """Concatenate per-group neighbour hits into ``(rows, src)`` int64 arrays."""
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows), np.concatenate(src)
