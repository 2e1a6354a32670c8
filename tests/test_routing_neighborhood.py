"""Tests for the neighborhood oracle tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import graph as g
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology


class TestMembership:
    def test_line_membership(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.contains(0, 0)
        assert t.contains(0, 2)
        assert not t.contains(0, 3)

    def test_members_include_self(self, grid5):
        t = NeighborhoodTables(grid5, radius=1)
        assert 12 in t.members(12)
        assert set(t.members(12)) == {7, 11, 12, 13, 17}

    def test_size(self, line10):
        t = NeighborhoodTables(line10, radius=3)
        assert t.size(0) == 4   # 0,1,2,3
        assert t.size(5) == 7   # 2..8

    def test_any_member_of(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.any_member_of(0, [9, 2])
        assert not t.any_member_of(0, [8, 9])
        assert not t.any_member_of(0, [])

    def test_invalid_radius(self, line10):
        with pytest.raises((ValueError, TypeError)):
            NeighborhoodTables(line10, radius=0)
        with pytest.raises(TypeError):
            NeighborhoodTables(line10, radius=2.5)


class TestEdgeNodes:
    def test_line_edges(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert set(t.edge_nodes(5)) == {3, 7}
        assert set(t.edge_nodes(0)) == {2}
        assert set(t.edge_nodes(9)) == {7}

    def test_edges_at_exact_radius(self, grid5):
        t = NeighborhoodTables(grid5, radius=2)
        dist = g.hop_distance_matrix(grid5.adj)
        for u in range(25):
            assert set(t.edge_nodes(u)) == set(np.flatnonzero(dist[u] == 2))

    def test_isolated_node_no_edges(self):
        topo = line_topology(3, spacing=100.0, tx=50.0)
        t = NeighborhoodTables(topo, radius=2)
        assert len(t.edge_nodes(0)) == 0


class TestPaths:
    def test_path_within_valid(self, grid5):
        t = NeighborhoodTables(grid5, radius=3)
        path = t.path_within(0, 2)
        assert path[0] == 0 and path[-1] == 2 and len(path) == 3
        for a, b in zip(path, path[1:]):
            assert grid5.are_neighbors(a, b)

    def test_path_outside_zone_none(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.path_within(0, 5) is None

    def test_path_to_self(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.path_within(4, 4) == [4]

    def test_hops(self, line10):
        t = NeighborhoodTables(line10, radius=3)
        assert t.hops(0, 3) == 3
        assert t.hops(0, 9) == -1  # zone-scoped: beyond R answers -1


class TestFreshness:
    def test_refresh_after_topology_change(self):
        topo = line_topology(4)
        t = NeighborhoodTables(topo, radius=1)
        assert t.contains(0, 1)
        pos = np.array(topo.positions)
        pos[1][0] = topo.area[0]  # node 1 moves far away
        topo.set_positions(pos)
        assert not t.contains(0, 1)

    def test_membership_matrix_shape(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=2)
        n = rand_topo.num_nodes
        assert t.membership.shape == (n, n)
        assert t.membership.dtype == bool

    def test_membership_symmetric(self, rand_topo):
        # unit-disk links are symmetric, so hop distances and membership are
        t = NeighborhoodTables(rand_topo, radius=2)
        m = t.membership
        assert (m == m.T).all()


def scoped_bfs(topo, radius):
    """Full-BFS truth clipped to the zone: hops within R, else -1."""
    truth = g.hop_distance_matrix(topo.adj)
    return np.where((truth >= 0) & (truth <= radius), truth, -1)


def zone_distance_matrix(tables):
    """The tables' zone-scoped hop distances, one ``hops`` read per pair."""
    n = tables.topology.num_nodes
    return np.array(
        [[tables.hops(u, v) for v in range(n)] for u in range(n)], dtype=np.int64
    )


class TestMatchesScopedBFS:
    """The oracle equals the converged state of a scoped proactive protocol."""

    def test_line(self, line10):
        t = NeighborhoodTables(line10, radius=3)
        assert (zone_distance_matrix(t) == scoped_bfs(line10, 3)).all()

    def test_grid(self, grid5):
        t = NeighborhoodTables(grid5, radius=2)
        assert (zone_distance_matrix(t) == scoped_bfs(grid5, 2)).all()

    def test_random_topology(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=3)
        assert (zone_distance_matrix(t) == scoped_bfs(rand_topo, 3)).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), radius=st.integers(1, 4))
    def test_property(self, seed, radius):
        topo = random_topology(n=40, area=(200.0, 200.0), tx=60.0, seed=seed)
        t = NeighborhoodTables(topo, radius=radius)
        want = scoped_bfs(topo, radius)
        assert (zone_distance_matrix(t) == want).all()
        assert (np.asarray(t.membership) == (want >= 0)).all()

    def test_zone_hops_matches_hops(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=2)
        for u in range(0, rand_topo.num_nodes, 11):
            members = t.members(u)
            assert list(t.zone_hops(u, members)) == [t.hops(u, int(v)) for v in members]

    def test_contains_many_matches_contains(self, grid5):
        t = NeighborhoodTables(grid5, radius=2)
        everyone = np.arange(25)
        for u in range(25):
            want = [t.contains(u, v) for v in range(25)]
            assert list(t.contains_many(u, everyone)) == want
        assert t.contains_many(0, []).size == 0


class TestScoping:
    def test_no_knowledge_beyond_radius(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert set(int(v) for v in t.members(0)) == {0, 1, 2}
        assert all(t.hops(0, v) == -1 for v in range(3, 10))

    def test_path_within_walkable_diagonal(self, grid5):
        t = NeighborhoodTables(grid5, radius=2)
        path = t.path_within(0, 6)  # diagonal neighbor at 2 hops
        assert path is not None
        assert path[0] == 0 and path[-1] == 6 and len(path) == 3
        for a, b in zip(path, path[1:]):
            assert grid5.are_neighbors(a, b)

    def test_path_length_matches_hops(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=3)
        for u in range(0, rand_topo.num_nodes, 7):
            for v in t.members(u)[:5]:
                v = int(v)
                path = t.path_within(u, v)
                assert path is not None
                assert len(path) - 1 == t.hops(u, v)


class TestLinkChanges:
    def test_link_break_leaves_zone(self):
        topo = line_topology(4)
        t = NeighborhoodTables(topo, radius=3)
        assert t.contains(0, 3) and t.hops(0, 2) == 2
        # break the 1-2 link by moving nodes 2,3 to the far end of the line
        pos = np.array(topo.positions)
        pos[2][0] = topo.area[0] - 1.0
        pos[3][0] = topo.area[0]
        topo.set_positions(pos)
        assert not t.contains(0, 2)
        assert t.hops(0, 2) == -1
        assert t.path_within(0, 2) is None

    def test_matches_bfs_after_move(self):
        topo = line_topology(5)
        t = NeighborhoodTables(topo, radius=4)
        assert t.hops(0, 4) == 4
        # node 4 moves next to node 0: the line closes into a ring
        pos = np.array(topo.positions)
        pos[4] = [pos[0][0] + 10.0, pos[0][1]]
        topo.set_positions(pos)
        assert t.hops(0, 4) == 1
        assert (zone_distance_matrix(t) == scoped_bfs(topo, 4)).all()
