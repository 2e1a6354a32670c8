"""Kernel-vs-oracle and batched-vs-sequential equivalence.

The CSQ walk kernel (`ContactSelector.select_one`, reached through
`CARDProtocol.bootstrap` and `maintain`) must match the per-hop walk
oracle (`repro.bench.oracle`), and `QueryEngine.query_many` / packed
`reachability_all` must match their sequential reference paths — all
*bit-identical*: same contact tables, same `SelectionOutcome`/`QueryResult`
fields, same message accounting down to per-node attribution.  These tests
pin that contract over random, mobile and disconnected topologies, both
selection methods and both dedup modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import oracle
from repro.bench.oracle import ReferenceSelector
from repro.core.params import CARDParams, SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine
from repro.net.network import Network
from repro.net.topology import Topology
from repro.mobility.waypoint import RandomWaypoint

from tests.conftest import grid_topology, random_topology


# ----------------------------------------------------------------------
# topology zoo
# ----------------------------------------------------------------------
def mobile_topology(n: int = 150, seed: int = 5, steps: int = 4) -> Topology:
    """A random layout advanced through a few RWP epochs."""
    rng = np.random.default_rng(seed)
    topo = Topology.uniform_random(n, (400.0, 400.0), 60.0, rng)
    model = RandomWaypoint(
        topo.positions, (400.0, 400.0), max_speed=20.0, rng=rng
    )
    for _ in range(steps):
        topo.set_positions(model.step(1.0))
    return topo


def disconnected_topology(seed: int = 9) -> Topology:
    """Two dense clusters far beyond radio range of each other."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 200.0, size=(60, 2))
    b = rng.uniform(0.0, 200.0, size=(60, 2))
    b[:, 0] += 1000.0
    return Topology(np.vstack([a, b]), 60.0, (1300.0, 220.0))


TOPOLOGIES = {
    "random": lambda: random_topology(150, (420.0, 420.0), 60.0, seed=3),
    "mobile": mobile_topology,
    "grid": lambda: grid_topology(8),
    "disconnected": disconnected_topology,
}


def _protocol(make_topo, method, seed, **kw) -> CARDProtocol:
    topo = make_topo()
    params = CARDParams(
        R=kw.pop("R", 2), r=kw.pop("r", 8), noc=kw.pop("noc", 4),
        method=method, **kw,
    )
    return CARDProtocol(Network(topo), params, seed=seed)


def assert_same_stats(a: Network, b: Network) -> None:
    assert a.stats.snapshot() == b.stats.snapshot()
    for kind in set(a.stats._per_node) | set(b.stats._per_node):
        pa = a.stats._per_node.get(kind)
        pb = b.stats._per_node.get(kind)
        assert pa is not None and pb is not None, kind
        assert np.array_equal(pa, pb), kind
    for kind in set(a.stats._series) | set(b.stats._series):
        assert dict(a.stats._series[kind]) == dict(b.stats._series[kind]), kind


def assert_same_selection(res_a, res_b) -> None:
    assert res_a.keys() == res_b.keys()
    for s in res_a:
        a, b = res_a[s], res_b[s]
        assert a.source == b.source
        assert a.attempts == b.attempts
        assert a.forward_msgs == b.forward_msgs
        assert a.backtrack_msgs == b.backtrack_msgs
        assert a.per_contact_cumulative == b.per_contact_cumulative
        assert a.table.ids() == b.table.ids()
        for ca, cb in zip(a.table, b.table):
            assert ca.path == cb.path
            assert ca.selected_at == cb.selected_at


# ----------------------------------------------------------------------
# CSQ walk parity
# ----------------------------------------------------------------------
class TestBatchedSelectionParity:
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bootstrap_matches_sequential(self, topo_name, method, seed):
        make = TOPOLOGIES[topo_name]
        card_b = _protocol(make, method, seed)
        card_s = _protocol(make, method, seed)
        res_b = card_b.bootstrap()
        res_s = oracle.bootstrap(card_s)
        assert_same_selection(res_b, res_s)
        assert_same_stats(card_b.network, card_s.network)

    def test_rng_streams_converge(self):
        """Post-bootstrap stream state must match, so later maintain()
        rounds draw identically whichever engine ran first."""
        make = TOPOLOGIES["random"]
        card_b = _protocol(make, SelectionMethod.PM, 7)
        card_s = _protocol(make, SelectionMethod.PM, 7)
        card_b.bootstrap()
        oracle.bootstrap(card_s)
        for s in range(card_b.network.num_nodes):
            ga = card_b.streams.get("select", s)
            gb = card_s.streams.get("select", s)
            assert (
                ga.bit_generator.state == gb.bit_generator.state
            ), f"stream diverged for source {s}"

    def test_subset_and_chunking(self):
        make = TOPOLOGIES["random"]
        sources = [3, 11, 42, 99, 120]
        card_s = _protocol(make, SelectionMethod.EM, 2)
        res_s = oracle.bootstrap(card_s, sources)
        card_b = _protocol(make, SelectionMethod.EM, 2)
        rngs = {s: card_b.streams.get("select", s) for s in sources}
        tables = {s: card_b.table_for(s) for s in sources}
        res_b = card_b.selector.select_contacts_many(
            sources, rngs, tables=tables
        )
        assert_same_selection(res_b, res_s)
        assert_same_stats(card_b.network, card_s.network)

    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    def test_maintenance_replenishment_matches_oracle(self, method):
        """RWP steps, each followed by a maintain() round on every source:
        the kernel's replenishment walks match the oracle's."""
        cards = [_protocol(mobile_topology, method, 3) for _ in range(2)]
        card_k, card_o = cards
        card_o.selector = ReferenceSelector(
            card_o.network, card_o.tables, card_o.params
        )
        card_k.bootstrap()
        oracle.bootstrap(card_o)
        models = [
            RandomWaypoint(
                c.network.topology.positions, (400.0, 400.0),
                max_speed=20.0, rng=np.random.default_rng(11),
            )
            for c in cards
        ]
        replenished = 0
        for _ in range(3):
            for card, model in zip(cards, models):
                card.network.topology.set_positions(model.step(1.0))
            for s in range(card_k.network.num_nodes):
                out_k, res_k = card_k.maintain(s)
                out_o, res_o = card_o.maintain(s)
                assert out_k == out_o
                assert (res_k is None) == (res_o is None)
                if res_k is not None:
                    replenished += res_k.attempts
                    assert_same_selection({s: res_k}, {s: res_o})
        assert replenished > 0
        for s in range(card_k.network.num_nodes):
            ta, tb = card_k.table_for(s), card_o.table_for(s)
            assert ta.ids() == tb.ids()
            assert [c.path for c in ta] == [c.path for c in tb]
        assert_same_stats(card_k.network, card_o.network)


# ----------------------------------------------------------------------
# DSQ query parity
# ----------------------------------------------------------------------
class TestBatchedQueryParity:
    def _workload(self, n, seed, count=50):
        rng = np.random.default_rng(seed)
        return [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)
        ]

    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_query_many_matches_sequential(self, topo_name, dedup, depth):
        make = TOPOLOGIES[topo_name]
        card_a = _protocol(make, SelectionMethod.PM, 1)
        card_b = _protocol(make, SelectionMethod.PM, 1)
        card_a.bootstrap()
        card_b.bootstrap()
        n = card_a.network.num_nodes
        ea = QueryEngine(
            card_a.network, card_a.tables, card_a.params,
            card_a.contact_tables, dedup=dedup,
        )
        eb = QueryEngine(
            card_b.network, card_b.tables, card_b.params,
            card_b.contact_tables, dedup=dedup,
        )
        pairs = self._workload(n, 100 + depth)
        card_a.network.stats.reset()
        card_b.network.stats.reset()
        seq = [ea.query(s, t, max_depth=depth) for s, t in pairs]
        bat = eb.query_many(pairs, max_depth=depth)
        # QueryResult is a plain dataclass: == compares every field,
        # including msgs/reply accounting and the discovered path
        assert seq == bat
        assert_same_stats(card_a.network, card_b.network)

    def test_query_many_empty_and_self(self):
        make = TOPOLOGIES["random"]
        card = _protocol(make, SelectionMethod.PM, 0)
        card.bootstrap()
        assert card.query_many([]) == []
        (res,) = card.query_many([(5, 5)])
        assert res.success and res.depth_found == 0 and res.msgs == 0

    def test_protocol_facade_matches_engine(self):
        make = TOPOLOGIES["random"]
        card = _protocol(make, SelectionMethod.PM, 4)
        card.bootstrap()
        pairs = self._workload(card.network.num_nodes, 77, count=20)
        assert card.query_many(pairs) == card.query_engine.query_many(pairs)
