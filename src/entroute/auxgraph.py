"""Auxiliary search graph: each node is copied per remaining-qubit index so
that qubit budgets become plain reachability.

Vertices are (node_id, index) tuples plus two virtual endpoints.  An arc
into copy (v, j) allocates m = Q_v - j pairs on the traversed edge, and
exists only when the tail copy has index >= m and the edge capacity allows.
"""

from __future__ import annotations

from .network import QuantumNetwork

VIRTUAL_SOURCE = ("__virtual__", "source")
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

    def out_arcs(self, vertex):
        """Yield (head_vertex, pair_count, edge_spec) out of a node copy;
        the hop from a sink copy to the virtual sink carries pair_count 0
        and no edge."""
        u, i = vertex
        if u == self.t:
            yield VIRTUAL_SINK, 0, None
            return
        for w in self.net.neighbors(u):
            if w == self.s:
                continue
            edge = self.net.edge(u, w)
            q_w = self.net.node(w).qubits
            for m in self.pair_counts(u, w):
                if m <= i:
                    yield (w, q_w - m), m, edge

    def pair_counts(self, u, w) -> tuple:
        """The pair counts of the arcs from the copies of u into its
        neighbour w, in out_arcs order (j ascending, so m descending): m =
        Q_w - j for each copy index j of w with 1 <= m <= the edge's
        capacity.  The copy (u, i) takes those with m <= i, a suffix."""
        q_w = self.net.node(w).qubits
        cap = self.net.edge(u, w).capacity
        return tuple(q_w - j for j in self._indices[w] if 1 <= q_w - j <= cap)

    def encode_path(self, nodes: list, pair_counts: list) -> list:
        """Map (node path, per-edge pair counts) to its auxiliary vertex path.

        The source copy index is the first allocation, matching decode.
        """
        if len(nodes) < 2 or len(pair_counts) != len(nodes) - 1:
            raise ValueError("need one pair count per path edge")
        if nodes[0] != self.s or nodes[-1] != self.t:
            raise ValueError("path must run from the configured source to sink")
        if len(set(nodes)) != len(nodes):
            raise ValueError("path must be loop-free")
        if pair_counts[0] not in self._indices[self.s]:
            raise ValueError(f"source allocation {pair_counts[0]} not instantiated")
        path = [VIRTUAL_SOURCE, (self.s, pair_counts[0])]
        tail_index = pair_counts[0]
        for prev, node, m in zip(nodes, nodes[1:], pair_counts):
            if not self.net.has_edge(prev, node):
                raise ValueError(f"no edge ({prev!r},{node!r})")
            edge = self.net.edge(prev, node)
            if m > min(tail_index, edge.capacity):
                raise ValueError(f"allocation {m} exceeds budget on ({prev!r},{node!r})")
            j = self.net.node(node).qubits - m
            if j not in self._indices[node]:
                raise ValueError(f"no copy ({node!r},{j}) for allocation {m}")
            path.append((node, j))
            tail_index = j
        path.append(VIRTUAL_SINK)
        return path

    def decode_path(self, aux_path: list) -> tuple[list, list]:
        """Inverse of encode_path; validates every arc exists."""
        if (
            len(aux_path) < 4
            or aux_path[0] != VIRTUAL_SOURCE
            or aux_path[-1] != VIRTUAL_SINK
        ):
            raise ValueError("auxiliary path must run virtual source to sink")
        real = aux_path[1:-1]
        nodes = []
        counts = []
        for v, j in real:
            if v not in self._indices or j not in self._indices[v]:
                raise ValueError(f"unknown auxiliary vertex ({v!r},{j})")
            nodes.append(v)
        if nodes[0] != self.s or nodes[-1] != self.t:
            raise ValueError("auxiliary path endpoints mismatch")
        tail_index = real[0][1]
        for (u, _), (w, j) in zip(real, real[1:]):
            if not self.net.has_edge(u, w):
                raise ValueError(f"no edge ({u!r},{w!r})")
            m = self.net.node(w).qubits - j
            if not 1 <= m <= min(tail_index, self.net.edge(u, w).capacity):
                raise ValueError(f"arc ({u!r},{w!r}) with allocation {m} not in graph")
            counts.append(m)
            tail_index = j
        if len(set(nodes)) != len(nodes):
            raise ValueError("auxiliary path revisits a node")
        return nodes, counts


def build_aux_graph(net: QuantumNetwork, s, t, deltaq: int = 1) -> AuxiliaryGraph:
    return AuxiliaryGraph(net, s, t, deltaq)
