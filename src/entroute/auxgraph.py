"""Auxiliary search graph: each node is copied per remaining-qubit index so
that qubit budgets become plain reachability.

Vertices are (node_id, index) tuples plus a virtual sink, which every
sink copy hops into.  An arc from copy (u, i) into copy (w, j) allocates m =
Q_w - j pairs on the traversed edge, and exists only when 1 <= m <= min(i,
capacity); no arc enters the source.
"""

from __future__ import annotations

from bisect import bisect_left

from .network import QuantumNetwork

VIRTUAL_SINK = ("__virtual__", "sink")


class AuxiliaryGraph:
    def __init__(self, net: QuantumNetwork, s, t, deltaq: int = 1):
        if s == t:
            raise ValueError("source and sink must differ")
        if s not in net.nodes or t not in net.nodes:
            raise ValueError("source or sink not in network")
        if deltaq < 1:
            raise ValueError("deltaq must be >= 1")
        self.net = net
        self.s = s
        self.t = t
        self.deltaq = deltaq
        self._indices: dict = {}
        for v, spec in net.nodes.items():
            q = spec.qubits
            if v == s:
                idx = range(deltaq, q + 1, deltaq)
            elif v == t:
                idx = range(0, q, deltaq)
            else:
                idx = range(deltaq, q, deltaq)
            self._indices[v] = tuple(idx)

    def copy_indices(self, v) -> tuple:
        """Remaining-qubit indices instantiated for node v (coarsened by deltaq)."""
        return self._indices[v]

    def pair_counts(self, u, w) -> tuple:
        """The pair counts of the arcs from the copies of u into its
        neighbour w, j ascending (so m descending): m = Q_w - j for each
        copy index j of w with 1 <= m <= the edge's capacity.  The copy
        (u, i) takes those with m <= i, a suffix.  The copy indices ascend,
        so those j, Q_w - capacity <= j <= Q_w - 1, are one slice."""
        q_w = self.net.node(w).qubits
        cap = self.net.edge(u, w).capacity
        idx = self._indices[w]
        return tuple(q_w - j for j in idx[bisect_left(idx, q_w - cap) : bisect_left(idx, q_w)])


def build_aux_graph(net: QuantumNetwork, s, t, deltaq: int = 1) -> AuxiliaryGraph:
    return AuxiliaryGraph(net, s, t, deltaq)
