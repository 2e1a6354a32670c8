"""End-to-end integration tests across the whole stack."""

import numpy as np

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.flooding import FloodingDiscovery
from repro.metrics.comparison import SchemeComparison
from repro.discovery.base import CARDDiscoveryAdapter
from repro.net import graph as g
from repro.net.graph import bfs_hops
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.scenarios.factory import build_topology, query_workload
from tests.conftest import random_topology


class TestCARDOnSharedTables:
    """CARD on neighborhood tables handed in by the caller (sweep reuse)."""

    PARAMS = CARDParams(R=2, r=7, noc=3, depth=2)

    def build(self, seed=1, params=PARAMS):
        topo = random_topology(n=120, area=(350.0, 350.0), tx=65.0, seed=seed)
        tables = NeighborhoodTables(topo, params.R)
        card = CARDProtocol(Network(topo), params, seed=seed, tables=tables)
        return topo, tables, card

    def test_given_tables_are_used(self):
        topo, tables, card = self.build()
        assert card.tables is tables
        assert card.selector.tables is tables
        assert card.query_engine.tables is tables
        fresh = NeighborhoodTables(topo, self.PARAMS.R)
        assert (np.asarray(card.membership) == np.asarray(fresh.membership)).all()

    def test_bootstrap_keeps_contacts_outside_both_zones(self):
        topo, _, card = self.build()
        card.bootstrap()
        assert card.total_contacts() > 0
        dist = g.hop_distance_matrix(topo.adj)  # test oracle
        for s, table in card.contact_tables.items():
            for c in table.ids():
                # edge-method invariant: contact and source zones are disjoint
                assert dist[s, c] > 2 * self.PARAMS.R or dist[s, c] == -1

    def test_query_on_shared_tables(self):
        topo, _, card = self.build()
        card.bootstrap()
        dist = g.hop_distance_matrix(topo.adj)  # test oracle
        far = np.flatnonzero(dist[0] > 4)
        results = [card.query(0, int(t), max_depth=2) for t in far[:15]]
        hits = [r for r in results if r.success]
        assert hits
        for r in hits:
            assert r.path[0] == 0 and r.path[-1] == r.target
            for a, b in zip(r.path, r.path[1:]):
                assert topo.are_neighbors(a, b)

    def test_shared_tables_match_private_tables(self):
        # one tables instance serving a sweep changes no result
        topo, tables, _ = self.build()
        for noc in (1, 3):
            params = CARDParams(R=2, r=7, noc=noc, depth=2)
            shared = CARDProtocol(Network(topo), params, seed=1, tables=tables)
            private = CARDProtocol(Network(topo), params, seed=1)
            shared.bootstrap()
            private.bootstrap()
            for s in range(0, 120, 17):
                assert shared.contact_tables[s].ids() == private.contact_tables[s].ids()
            assert (
                shared.reachability(depth=1) == private.reachability(depth=1)
            ).all()


class TestFullComparison:
    def test_three_schemes_one_workload(self):
        topo = build_topology(150, (400.0, 400.0), 60.0, seed=5, salt="itest")
        workload = query_workload(topo, 12, seed=5, distinct_sources=True)
        params = CARDParams(R=2, r=8, noc=4, depth=3)
        card = CARDProtocol(Network(topo), params, seed=5)
        rows = SchemeComparison(
            [
                FloodingDiscovery(Network(topo)),
                BordercastDiscovery(
                    Network(topo), NeighborhoodTables(topo, 2), qd=QDMode.QD2
                ),
                CARDDiscoveryAdapter(card, max_depth=3),
            ]
        ).run(workload)
        by = {r.scheme: r for r in rows}
        # flooding always succeeds within components and pays the most events
        assert by["Flooding"].query_events >= by["Bordercasting"].query_events
        assert by["Flooding"].query_events >= by["CARD"].query_events
        # CARD prepared standing state, blind schemes did not
        assert by["CARD"].prepare_msgs > 0
        assert by["Flooding"].prepare_msgs == 0

    def test_flooding_success_is_component_truth(self):
        topo = build_topology(120, (500.0, 500.0), 50.0, seed=6, salt="itest2")
        workload = query_workload(topo, 20, seed=6)
        flood = FloodingDiscovery(Network(topo))
        for s, t in workload:
            expected = bfs_hops(topo.adj, s)[t] >= 0
            assert flood.query(s, t).success == expected


class TestDeterminismEndToEnd:
    def test_whole_pipeline_reproducible(self):
        def run():
            topo = build_topology(100, (320.0, 320.0), 60.0, seed=9, salt="det")
            card = CARDProtocol(
                Network(topo), CARDParams(R=2, r=7, noc=3, depth=2), seed=9
            )
            card.bootstrap()
            workload = query_workload(topo, 10, seed=9)
            return [
                (card.query(s, t).success, card.query(s, t).msgs)
                for s, t in workload
            ], card.network.stats.snapshot()

        first, stats1 = run()
        second, stats2 = run()
        assert first == second
        assert stats1 == stats2
