"""Reference CSQ walk: the per-hop oracle for the selection kernel.

:class:`ReferenceSelector` runs the paper's contact-selection walk
(§III.C.1-2) the direct way: one :meth:`~repro.net.network.Network.transmit`
per hop and one :meth:`ReferenceSelector.admit` row probe per candidate.
It is the independent implementation that
:meth:`repro.core.selection.ContactSelector.select_one` must match bit for
bit — same contacts, paths, outcome fields, RNG stream states and message
accounting.  The parity tests compare the two, and ``card-bench``'s
``csq_walks_n*`` cases time the kernel against it.

Nothing on the simulation path may import this module (lint rule CARD-L02
forbids ``repro.bench`` under ``repro.core``, ``repro.net`` and
``repro.des``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.params import SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.selection import ContactSelector, SelectionOutcome, SourceSelectionResult
from repro.net.messages import ContactSelectionQuery, MessageKind, next_query_id

__all__ = ["ReferenceSelector", "bootstrap"]


class ReferenceSelector(ContactSelector):
    """:class:`ContactSelector` whose walk advances and accounts hop by hop.

    The per-source loop (:meth:`select_contacts`) is inherited; only the
    walk and the admission decision are re-implemented.
    """

    def admit(
        self,
        candidate: int,
        source: int,
        contact_list: Sequence[int],
        edge_list: Sequence[int],
        d: int,
        rng: np.random.Generator,
    ) -> bool:
        """Would ``candidate``, at walk distance ``d``, become a contact?"""
        p = self.params
        member = self.tables.membership
        # a node that already is a contact can never be re-admitted,
        # independent of any overlap policy (identity dedup)
        if candidate in contact_list:
            return False
        # overlap with the source's neighborhood (always checked)
        if member[candidate, source]:
            return False
        # overlap with already-selected contacts' neighborhoods
        if p.check_contact_overlap and len(contact_list) > 0:
            ids = np.fromiter(contact_list, dtype=np.int64)
            if member[candidate, ids].any():
                return False
        if p.method is SelectionMethod.EM:
            # Edge Method: also require no edge node in the neighborhood,
            # which guarantees true hop distance > 2R (§III.C.2b)
            if p.check_edge_overlap and len(edge_list) > 0:
                ids = np.asarray(edge_list, dtype=np.int64)
                if member[candidate, ids].any():
                    return False
            return True
        # Probabilistic Method
        prob = p.admission_probability(d)
        if prob <= 0.0:
            return False
        return bool(rng.random() < prob)

    def select_one(
        self,
        source: int,
        edge_node: int,
        contact_list: Sequence[int],
        rng: np.random.Generator,
    ) -> SelectionOutcome:
        """Launch one CSQ through ``edge_node`` and walk it to completion."""
        p = self.params
        net = self.network
        adj = net.adj
        edge_list = (
            tuple(int(e) for e in self.tables.edge_nodes(source))
            if p.method is SelectionMethod.EM
            else ()
        )
        msg = ContactSelectionQuery(
            source=source,
            query_id=next_query_id(),
            contact_list=tuple(int(c) for c in contact_list),
            edge_list=edge_list if p.method is SelectionMethod.EM else None,
        )
        seg = self.tables.path_within(source, edge_node)
        if seg is None:
            return SelectionOutcome(None, None, 0, 0, 0, exhausted=False)

        forward = 0
        backtrack = 0
        for hop_tx in seg[:-1]:
            net.transmit(msg, int(hop_tx))
            forward += 1

        use_visited = p.effective_loop_prevention
        cap = p.effective_max_walk_steps
        visited = np.zeros(net.num_nodes, dtype=bool)
        visited[seg] = True
        seen_count = len(seg)
        # DFS frames: [node, shuffled neighbor order, next index]
        stack: List[list] = [
            [int(u), rng.permutation(adj[int(u)]), 0] for u in seg
        ]
        steps = 0
        while stack:
            if cap is not None and steps >= cap:
                return SelectionOutcome(
                    None, None, forward, backtrack, seen_count, exhausted=False
                )
            frame = stack[-1]
            d = len(stack) - 1
            prev = stack[-2][0] if len(stack) >= 2 else -1
            nxt: Optional[int] = None
            if d < p.r:
                while frame[2] < len(frame[1]):
                    cand = int(frame[1][frame[2]])
                    frame[2] += 1
                    if use_visited:
                        if not visited[cand]:
                            nxt = cand
                            break
                    elif cand != prev:
                        nxt = cand
                        break
            if nxt is None:
                stack.pop()
                if stack:
                    net.transmit(msg, frame[0], kind=MessageKind.BACKTRACK)
                    backtrack += 1
                    steps += 1
                continue
            net.transmit(msg, frame[0])
            forward += 1
            steps += 1
            if not visited[nxt]:
                visited[nxt] = True
                seen_count += 1
            stack.append([nxt, rng.permutation(adj[nxt]), 0])
            if self.admit(nxt, source, contact_list, edge_list, len(stack) - 1, rng):
                path = [f[0] for f in stack]
                for hop_tx in reversed(path[1:]):
                    net.transmit(msg, int(hop_tx), kind=MessageKind.REPLY)
                return SelectionOutcome(
                    nxt, path, forward, backtrack, seen_count, exhausted=False
                )
        return SelectionOutcome(
            None, None, forward, backtrack, seen_count, exhausted=True
        )


def bootstrap(
    card: CARDProtocol, sources: Optional[Sequence[int]] = None
) -> Dict[int, SourceSelectionResult]:
    """:meth:`CARDProtocol.bootstrap` driven by :class:`ReferenceSelector`.

    Uses ``card``'s own RNG streams, contact tables and network, so a twin
    protocol bootstrapped the normal way must end up identical.
    """
    selector = ReferenceSelector(card.network, card.tables, card.params)
    srcs = range(card.network.num_nodes) if sources is None else sources
    return {
        int(s): selector.select_contacts(
            int(s),
            card.streams.get("select", int(s)),
            table=card.table_for(int(s)),
            now=card.network.sim.now,
        )
        for s in srcs
    }
