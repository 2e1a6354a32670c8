"""Shared fixtures: hand-built and random topologies, networks, parameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import CARDParams
from repro.mobility.base import MobilityModel
from repro.net.network import Network
from repro.net.topology import Topology


class StaticMobility(MobilityModel):
    """Nobody moves: ``step`` returns the starting positions unchanged.

    A test stand-in for a mobility model (driver plumbing, runners on a
    frozen topology); no artifact needs it, so it lives here.
    """

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError("dt must be >= 0")
        return self.positions


def line_topology(n: int, spacing: float = 40.0, tx: float = 50.0) -> Topology:
    """n nodes on a line, each connected to its immediate neighbors only."""
    xs = np.arange(n, dtype=np.float64) * spacing
    pos = np.stack([xs, np.full(n, 1.0)], axis=1)
    width = max(float(xs.max()) + 1.0, 1.0)
    return Topology(pos, tx, (width, 10.0))


def grid_topology(side: int, spacing: float = 40.0, tx: float = 50.0) -> Topology:
    """side × side grid; 4-connectivity for spacing < tx < spacing*sqrt(2)."""
    coords = [
        (x * spacing + 1.0, y * spacing + 1.0)
        for y in range(side)
        for x in range(side)
    ]
    pos = np.array(coords, dtype=np.float64)
    extent = side * spacing + 2.0
    return Topology(pos, tx, (extent, extent))


def random_topology(
    n: int = 120,
    area=(400.0, 400.0),
    tx: float = 60.0,
    seed: int = 3,
) -> Topology:
    return Topology.uniform_random(n, area, tx, np.random.default_rng(seed))


@pytest.fixture
def line10() -> Topology:
    return line_topology(10)


@pytest.fixture
def grid5() -> Topology:
    return grid_topology(5)


@pytest.fixture
def rand_topo() -> Topology:
    return random_topology()


@pytest.fixture
def rand_net(rand_topo) -> Network:
    return Network(rand_topo)


@pytest.fixture
def small_params() -> CARDParams:
    return CARDParams(R=2, r=6, noc=3, depth=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
