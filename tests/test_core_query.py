"""Tests for the DSQ query engine: neighborhood hits, depth escalation,
traffic accounting, dedup."""

import numpy as np
import pytest

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine
from repro.core.state import Contact, ContactTable
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import line_topology, random_topology


def line_setup(n=30, R=2, r=8, depth=3):
    """A long line with hand-placed contact chains.

    Node 0's contact is 6 (path 0..6); node 6's contact is 12; node 12's
    contact is 18 — a deterministic depth ladder for exact assertions.
    """
    topo = line_topology(n)
    params = CARDParams(R=R, r=r, depth=depth, noc=2)
    net = Network(topo)
    tables = NeighborhoodTables(topo, R)
    contact_tables = {}
    for start in range(0, n - 6, 6):
        t = ContactTable(start)
        t.add(Contact(node=start + 6, path=list(range(start, start + 7))))
        contact_tables[start] = t
    engine = QueryEngine(net, tables, params, contact_tables)
    return engine, net, tables


class TestNeighborhoodHit:
    def test_target_in_zone_costs_nothing(self):
        engine, net, _ = line_setup()
        res = engine.query(0, 2)
        assert res.success and res.depth_found == 0
        assert res.msgs == 0
        assert res.path == [0, 1, 2]
        assert net.stats.total() == 0

    def test_self_query(self):
        engine, _, _ = line_setup()
        res = engine.query(4, 4)
        assert res.success and res.path == [4]


class TestDepthOne:
    def test_found_via_first_level_contact(self):
        engine, net, _ = line_setup()
        # target 7 is within R=2 of contact 6
        res = engine.query(0, 7, max_depth=1)
        assert res.success and res.depth_found == 1
        # cost: one DSQ along the 6-hop contact path
        assert res.msgs == 6
        assert res.contacts_queried == 1
        assert res.path == list(range(0, 8))
        assert net.stats.total(MessageKind.QUERY) == 6

    def test_reply_counted_separately(self):
        engine, net, _ = line_setup()
        res = engine.query(0, 7, max_depth=1)
        assert res.reply_msgs == len(res.path) - 1
        assert net.stats.total(MessageKind.REPLY) == res.reply_msgs

    def test_miss_at_depth_one(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 20, max_depth=1)
        assert not res.success
        assert res.msgs == 6  # the failed probe still cost the walk


class TestEscalation:
    def test_depth_two_found(self):
        engine, _, _ = line_setup()
        # 13 is within R of 12 (contact of contact 6)
        res = engine.query(0, 13, max_depth=2)
        assert res.success and res.depth_found == 2
        # traffic: failed D=1 round (6) + D=2 round (6 + 6)
        assert res.msgs == 18
        assert res.path == list(range(0, 14))

    def test_depth_three_found(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 19, max_depth=3)
        assert res.success and res.depth_found == 3
        # D=1: 6; D=2: 6+6; D=3: 6+6+6 → 36 total
        assert res.msgs == 36

    def test_depth_cap_respected(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 19, max_depth=2)
        assert not res.success
        assert res.depth_found is None

    def test_params_depth_default(self):
        engine, _, _ = line_setup(depth=2)
        assert engine.query(0, 13).success        # depth 2 via params
        assert not engine.query(0, 19).success    # needs depth 3


class TestDedup:
    def chain_with_cycle(self):
        """Two nodes that are each other's contacts, to exercise dedup."""
        topo = line_topology(16)
        params = CARDParams(R=2, r=8, depth=3)
        net = Network(topo)
        tables = NeighborhoodTables(topo, 2)
        t0 = ContactTable(0)
        t0.add(Contact(node=6, path=list(range(7))))
        t6 = ContactTable(6)
        t6.add(Contact(node=0, path=list(range(6, -1, -1))))
        t6.add(Contact(node=12, path=list(range(6, 13))))
        cts = {0: t0, 6: t6}
        return QueryEngine(net, tables, params, cts), QueryEngine(
            Network(topo), tables, params, cts, dedup=False
        )

    def test_dedup_skips_revisited_contacts(self):
        dedup_on, dedup_off = self.chain_with_cycle()
        on = dedup_on.query(0, 13, max_depth=2)
        off = dedup_off.query(0, 13, max_depth=2)
        assert on.success and off.success
        assert on.msgs < off.msgs  # the 6→0 back-edge is skipped

    def test_cycle_terminates_without_dedup(self):
        _, dedup_off = self.chain_with_cycle()
        res = dedup_off.query(0, 15, max_depth=3)  # miss; bounded traffic
        assert not res.success
        assert res.msgs < 200


class TestNoContacts:
    def test_source_without_contacts_fails_fast(self):
        engine, _, _ = line_setup()
        res = engine.query(1, 25)  # node 1 owns no contact table
        assert not res.success and res.msgs == 0


class TestOnSelectedContacts:
    """Queries over contacts chosen by real selection, not hand-placed."""

    @staticmethod
    def bootstrapped(topo, params, seed):
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        return card

    def test_found_routes_walk_to_target(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=4)
        params = CARDParams(R=2, r=7, noc=4, depth=3)
        card = self.bootstrapped(topo, params, seed=4)
        targets = [int(t) for t in np.random.default_rng(0).choice(150, 5, replace=False)]
        hits = 0
        for source in range(0, 60, 3):
            for target in targets:
                res = card.query(source, target)
                if not res.success or res.depth_found == 0:
                    continue
                hits += 1
                assert 1 <= res.depth_found <= params.depth
                assert res.path[0] == source and res.path[-1] == target
                for a, b in zip(res.path, res.path[1:]):
                    assert topo.are_neighbors(a, b)
                # the reply retraces the discovered route
                assert res.reply_msgs == len(res.path) - 1
        assert hits > 10

    def test_deeper_search_finds_no_less(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=6)
        params = CARDParams(R=2, r=7, noc=3, depth=3)
        card = self.bootstrapped(topo, params, seed=6)
        found = [
            sum(card.query(s, 149, max_depth=d).success for s in range(30))
            for d in (1, 2, 3)
        ]
        assert found == sorted(found)

    def test_disconnected_target_fails_with_bounded_traffic(self):
        # a 20-node line plus one node far beyond radio range of all of it
        line = line_topology(20)
        pos = np.vstack([np.asarray(line.positions), [[line.area[0] + 500.0, 1.0]]])
        topo = Topology(pos, line.tx_range, (line.area[0] + 501.0, 10.0))
        params = CARDParams(R=2, r=8, noc=2, depth=3)
        card = self.bootstrapped(topo, params, seed=1)
        assert card.total_contacts() > 0
        stats = card.network.stats
        replies, queries = stats.total(MessageKind.REPLY), stats.total(MessageKind.QUERY)
        res = card.query(0, 20)
        assert not res.success
        assert res.depth_found is None and res.path is None
        assert res.reply_msgs == 0
        # every escalation round can at most walk each stored route once
        route_hops = sum(
            len(c.path) - 1 for t in card.contact_tables.values() for c in t
        )
        assert 0 < res.msgs <= params.depth * route_hops
        # a miss sends no reply; its forwards are all the query traffic
        assert stats.total(MessageKind.REPLY) == replies
        assert stats.total(MessageKind.QUERY) - queries == res.msgs
