"""Contracts of the octree's force walk, with direct summation as oracle.

The tree has one walk, the vectorised grouped walk of
:mod:`repro.hybrid.walk`.  These tests pin down its contracts:

* at ``theta = 0`` it is *bitwise* identical to direct summation
  through the tiled kernels;
* at finite ``theta`` it stays inside the documented
  ``0.1 * theta**2`` median relative-error envelope;
* per-sink neighbour spheres carve an exact near/far partition out of
  it — near + far reassembles direct summation, and the walk's
  in-sphere pairs equal the dense range predicate;
* it is bit-identical between serial and threaded kernel engines;
* a sink coinciding with a node's centre of mass stays finite
  (regression for the guarded ``1/(r2*sqrt(r2))`` sites).
"""

import numpy as np
import pytest
from conftest import make_random_cluster

from repro.accel import EngineConfig, KernelEngine
from repro.baselines.tree import Octree
from repro.hybrid.walk import build_groups, walk_groups

EPS = 0.01


@pytest.fixture(scope="module")
def cluster():
    return make_random_cluster(300, seed=9)


@pytest.fixture(scope="module")
def tree(cluster):
    return Octree(cluster.pos, cluster.mass, vel=cluster.vel)


@pytest.fixture(scope="module")
def direct(cluster):
    """Direct summation through the same tiled ``accel`` kernel the
    grouped walk evaluates its lists with — the bit-identity baseline."""
    from repro.accel import get_engine

    c = cluster
    return get_engine().acc_jerk(c.pos, c.vel, c.pos, c.vel, c.mass, EPS,
                                 self_indices=np.arange(c.n), kernel="accel")


def _walk(tree, cluster, theta, **kw):
    return tree.accelerations(
        cluster.pos, theta=theta, eps=EPS, vel_i=cluster.vel,
        exclude_self=np.arange(cluster.n), **kw,
    )


def med_rel_err(a, a_ref):
    return np.median(
        np.linalg.norm(a - a_ref, axis=1) / np.linalg.norm(a_ref, axis=1)
    )


class TestThetaZeroBitIdentity:
    """theta = 0 opens everything: the walk IS direct summation.

    The grouped walk evaluates its per-group source lists (each the
    full ascending particle range at theta = 0) through the same tiled
    ``accel`` kernel as the direct baseline, so it is *bitwise*
    identical.
    """

    def test_grouped_matches_direct_bitwise(self, cluster, tree, direct):
        acc, jerk = _walk(tree, cluster, 0.0)
        a_d, j_d = direct
        assert np.array_equal(acc, a_d)
        assert np.array_equal(jerk, j_d)

    def test_quadrupole_tree_also_exact(self, cluster, direct):
        qtree = Octree(cluster.pos, cluster.mass, vel=cluster.vel,
                       quadrupole=True)
        acc, _ = _walk(qtree, cluster, 0.0)
        assert np.array_equal(acc, direct[0])


class TestErrorEnvelope:
    @pytest.mark.parametrize("theta", [0.3, 0.6, 1.0])
    def test_within_envelope(self, cluster, tree, direct, theta):
        acc, _ = _walk(tree, cluster, theta)
        err = med_rel_err(acc, direct[0])
        assert err < 0.1 * theta**2, (theta, err)

    def test_grouped_actually_approximates_at_scale(self, cluster, tree):
        """Guard against the grouped walk silently degenerating to
        direct summation (zero accepted nodes) on a generic cluster."""
        _walk(tree, cluster, 1.0)
        assert tree.walk_stats.node_terms > 0


class TestNeighbourSphereExactness:
    def test_near_plus_far_reassembles_direct(self, cluster, tree, direct):
        c = cluster
        n = c.n
        h = np.full(n, 0.5)
        far, _ = _walk(tree, c, 0.0, h_i=h)

        dr = c.pos[None, :, :] - c.pos[:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", dr, dr)
        within = dist2 < h[:, None] ** 2
        within[np.arange(n), np.arange(n)] = False
        assert within.any(), "h too small: near field empty, test vacuous"

        r2 = dist2 + EPS**2
        inv_r3 = 1.0 / (r2 * np.sqrt(r2))
        near = np.einsum("ij,ijk->ik", np.where(within, c.mass * inv_r3, 0.0),
                         dr)
        np.testing.assert_allclose(far + near, direct[0], rtol=1e-12,
                                   atol=1e-13)


class TestGroupedDeterminism:
    def _engine(self, threads):
        return KernelEngine(EngineConfig(threads=threads, j_chunk=64,
                                         parallel_pairs=1))

    @pytest.mark.parametrize("theta", [0.0, 0.6])
    def test_serial_vs_threaded_bit_identical(self, cluster, tree, theta):
        serial, threaded = self._engine(1), self._engine(4)
        try:
            a1, j1 = _walk(tree, cluster, theta, engine=serial)
            a4, j4 = _walk(tree, cluster, theta, engine=threaded)
        finally:
            serial.close()
            threaded.close()
        assert np.array_equal(a1, a4)
        assert np.array_equal(j1, j4)


class TestGroupStructure:
    def test_groups_partition_the_sinks(self, cluster, tree):
        groups = build_groups(tree, cluster.pos, n_crit=16)
        seen = np.concatenate(
            [groups.rows(g) for g in range(groups.n_groups)]
        )
        assert np.array_equal(np.sort(seen), np.arange(cluster.n))
        assert (groups.sizes >= 1).all()

    def test_lists_cover_every_source_exactly_once(self, cluster, tree):
        """Accepted nodes + opened leaves tile the particle set: each
        source contributes to each group through exactly one term."""
        groups = build_groups(tree, cluster.pos, n_crit=16)
        lists = walk_groups(tree, groups, 0.8)
        for g in range(groups.n_groups):
            counts = np.zeros(tree.n, dtype=np.int64)
            src = lists.sources(g)
            np.add.at(counts, src, 1)
            for node in lists.nodes(g):
                counts[_subtree_particles(tree, node)] += 1
            assert (counts == 1).all()

    def test_pp_lists_sorted_ascending(self, cluster, tree):
        groups = build_groups(tree, cluster.pos, n_crit=16)
        lists = walk_groups(tree, groups, 0.8)
        for g in range(groups.n_groups):
            src = lists.sources(g)
            assert (np.diff(src) > 0).all()


def _subtree_particles(tree, node):
    out = []
    stack = [node]
    while stack:
        v = stack.pop()
        if tree.node_leaf_start[v] >= 0:
            s = tree.node_leaf_start[v]
            out.append(tree.leaf_perm[s:s + tree.node_leaf_count[v]])
        else:
            stack.extend(tree.children(v))
    return np.concatenate(out)


class TestCoincidentSinkRegression:
    """A sink sitting exactly on a node's centre of mass must not
    produce NaN/inf — the ``1/(r2*sqrt(r2))`` sites are guarded and
    only ever evaluated with softening or with the self pair excluded.
    """

    @pytest.fixture()
    def symmetric(self):
        # two mirrored pairs whose COM (and the root's COM) is the
        # origin, plus a probe particle exactly at the origin
        pos = np.array([
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        mass = np.ones(5)
        return pos, mass

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_stays_finite(self, symmetric, theta):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        com = tree.node_com[tree.root]
        assert np.allclose(com, 0.0)  # probe coincides with root COM
        acc, _ = tree.accelerations(
            pos, theta=theta, eps=0.05, exclude_self=np.arange(5),
        )
        assert np.isfinite(acc).all()
        # symmetry: the probe at the origin feels zero net force
        np.testing.assert_allclose(acc[4], 0.0, atol=1e-12)

    def test_unsoftened_theta_zero_finite(self, symmetric):
        pos, mass = symmetric
        tree = Octree(pos, mass, leaf_size=1)
        acc, _ = tree.accelerations(
            pos, theta=0.0, eps=0.0, exclude_self=np.arange(5),
        )
        assert np.isfinite(acc).all()


def dense_neighbour_pairs(sinks, pos, h, self_idx):
    """The oracle: the dense ``n_sinks x N`` range predicate.

    ``dr = src - sink``, unsoftened ``einsum`` ``dist2``, each sink's
    own particle set to ``inf``, strict ``dist2 < h**2`` — the
    predicate the hybrid's near field is defined by.  Returns the hits
    as lexicographically sorted ``(rows, src)`` arrays.
    """
    dr = pos[None, :, :] - sinks[:, None, :]
    dist2 = np.einsum("ijk,ijk->ij", dr, dr)
    dist2[np.arange(sinks.shape[0]), self_idx] = np.inf
    return np.nonzero(dist2 < h[:, None] ** 2)


def sorted_pairs(pairs):
    rows, src = pairs
    order = np.lexsort((src, rows))
    return rows[order], src[order]


class TestNeighbourPairsOracle:
    """The walk's in-sphere pairs are exactly the dense predicate's.

    Covers mixed radii including 0, sources exactly on (and one ulp
    inside) a sphere's boundary, coincident particles, and sinks at
    predicted positions that drifted off the particles the tree was
    built on.
    """

    @pytest.fixture(scope="class")
    def scene(self):
        rng = np.random.default_rng(21)
        n = 200
        pos = rng.normal(scale=1.0, size=(n, 3))
        # coincident particles: 10-12 sit on 3, 20 on 21
        pos[10:13] = pos[3]
        pos[20] = pos[21]
        # sink 0 at a dyadic point, 1 exactly on its h = 0.5 sphere,
        # 2 one ulp inside it
        pos[0] = [0.25, 0.5, -0.125]
        pos[1] = [0.75, 0.5, -0.125]
        pos[2] = [np.nextafter(0.75, 0.0), 0.5, -0.125]
        mass = rng.uniform(0.5, 1.5, size=n) / n
        vel = rng.normal(scale=0.1, size=(n, 3))
        h = rng.choice([0.0, 0.2, 0.5, 0.9], size=n)
        h[0] = 0.5
        h[3] = 0.3
        drift = pos + rng.normal(scale=0.05, size=(n, 3))
        drift[:3] = pos[:3]  # keep the boundary probes exact
        return pos, vel, mass, h, drift

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("sinks", ["particles", "drifted"])
    def test_pairs_equal_dense_predicate(self, scene, theta, sinks):
        pos, vel, mass, h, drift = scene
        n = pos.shape[0]
        tree = Octree(pos, mass, vel=vel, leaf_size=4)
        sink_pos = pos if sinks == "particles" else drift
        tree.accelerations(
            sink_pos, theta=theta, eps=EPS, vel_i=vel,
            exclude_self=np.arange(n), h_i=h, n_crit=8,
        )
        got = sorted_pairs(tree.neighbour_pairs)
        want = dense_neighbour_pairs(sink_pos, pos, h, np.arange(n))
        assert got[0].dtype == got[1].dtype == np.int64
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert want[0].size > 0, "no in-sphere pairs: test vacuous"
        hits = set(zip(*(a.tolist() for a in want)))
        assert (0, 1) not in hits  # exactly on the sphere: far field
        assert (0, 2) in hits  # one ulp inside: near field
        if sinks == "particles":
            assert {(3, 10), (3, 11), (3, 12)} <= hits  # coincident
        assert not (h[want[0]] == 0).any()  # h = 0 has no neighbours

    def test_subset_of_sinks_keeps_row_numbers(self, scene):
        """Rows index the sink block, not the particle array."""
        pos, vel, mass, h, _ = scene
        active = np.arange(0, pos.shape[0], 3)
        tree = Octree(pos, mass, vel=vel)
        tree.accelerations(
            pos[active], theta=0.7, eps=EPS, vel_i=vel[active],
            exclude_self=active, h_i=h[active],
        )
        got = sorted_pairs(tree.neighbour_pairs)
        want = dense_neighbour_pairs(pos[active], pos, h[active], active)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_no_spheres_no_pairs(self, cluster, tree):
        _walk(tree, cluster, 0.5)
        assert tree.neighbour_pairs is None
