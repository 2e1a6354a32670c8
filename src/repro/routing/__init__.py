"""Intra-neighborhood routing knowledge.

CARD assumes each node runs a proactive protocol "such as DSDV" within its
R-hop neighborhood, giving it complete knowledge of the nodes (resources)
there (§III.C).  The paper's figures never count that intra-zone update
traffic, so the reproduction models only its converged outcome:
:class:`~repro.routing.neighborhood.NeighborhoodTables`, an *oracle*
computed by scoped BFS over the live topology.  It is fast enough to
refresh every mobility step at N=1000 and exposes the neighborhood
queries CARD needs: membership, edge nodes, and intra-zone paths.
"""

from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["NeighborhoodTables"]
