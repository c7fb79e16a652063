"""Oracles the tests check src/entroute against, written from the
definitions: the auxiliary graph's arcs and its path bijection, the
purification tree JSON reader, the gamma table, and lemma 1's delta and
success margin.  No entry point of the package needs them, so they live
here rather than in src/.
"""

from entroute.auxgraph import VIRTUAL_SINK
from entroute.pair_algebra import purification_success_prob, purified_fidelity, swap_fidelity
from entroute.purification import LEAF, _best_schedules

# the auxiliary graph's virtual source; the search starts at the top source
# copy instead
VIRTUAL_SOURCE = ("__virtual__", "source")


def out_arcs(aux, vertex):
    """Yield (head vertex, pair count m, edge) out of the node copy (u, i):
    for each neighbour w of u other than s, the copies j of w with 1 <= m =
    Q_w - j <= min(i, capacity), j ascending.  A sink copy's only arc is the
    hop into the virtual sink, with pair count 0 and no edge."""
    u, i = vertex
    if u == aux.t:
        yield VIRTUAL_SINK, 0, None
        return
    for w in aux.net.neighbors(u):
        if w == aux.s:
            continue
        edge = aux.net.edge(u, w)
        q_w = aux.net.node(w).qubits
        for j in aux.copy_indices(w):
            if 1 <= q_w - j <= min(i, edge.capacity):
                yield (w, j), q_w - j, edge


def encode_path(aux, nodes: list, pair_counts: list) -> list:
    """The auxiliary vertex path of a (node path, per-edge pair counts)
    plan.  The source copy index is the first allocation, matching
    decode_path."""
    net = aux.net
    if len(nodes) < 2 or len(pair_counts) != len(nodes) - 1:
        raise ValueError("need one pair count per path edge")
    if nodes[0] != aux.s or nodes[-1] != aux.t:
        raise ValueError("path must run from the configured source to sink")
    if len(set(nodes)) != len(nodes):
        raise ValueError("path must be loop-free")
    if pair_counts[0] not in aux.copy_indices(aux.s):
        raise ValueError(f"source allocation {pair_counts[0]} not instantiated")
    path = [VIRTUAL_SOURCE, (aux.s, pair_counts[0])]
    tail_index = pair_counts[0]
    for prev, node, m in zip(nodes, nodes[1:], pair_counts):
        if node not in net.neighbors(prev):
            raise ValueError(f"no edge ({prev!r},{node!r})")
        edge = net.edge(prev, node)
        if m > min(tail_index, edge.capacity):
            raise ValueError(f"allocation {m} exceeds budget on ({prev!r},{node!r})")
        j = net.node(node).qubits - m
        if j not in aux.copy_indices(node):
            raise ValueError(f"no copy ({node!r},{j}) for allocation {m}")
        path.append((node, j))
        tail_index = j
    path.append(VIRTUAL_SINK)
    return path


def decode_path(aux, aux_path: list) -> tuple[list, list]:
    """Inverse of encode_path; checks that every arc exists."""
    net = aux.net
    if len(aux_path) < 4 or aux_path[0] != VIRTUAL_SOURCE or aux_path[-1] != VIRTUAL_SINK:
        raise ValueError("auxiliary path must run virtual source to sink")
    real = aux_path[1:-1]
    nodes = []
    counts = []
    for v, j in real:
        if v not in net.nodes or j not in aux.copy_indices(v):
            raise ValueError(f"unknown auxiliary vertex ({v!r},{j})")
        nodes.append(v)
    if nodes[0] != aux.s or nodes[-1] != aux.t:
        raise ValueError("auxiliary path endpoints mismatch")
    tail_index = real[0][1]
    for (u, _), (w, j) in zip(real, real[1:]):
        if w not in net.neighbors(u):
            raise ValueError(f"no edge ({u!r},{w!r})")
        m = net.node(w).qubits - j
        if not 1 <= m <= min(tail_index, net.edge(u, w).capacity):
            raise ValueError(f"arc ({u!r},{w!r}) with allocation {m} not in graph")
        counts.append(m)
        tail_index = j
    if len(set(nodes)) != len(nodes):
        raise ValueError("auxiliary path revisits a node")
    return nodes, counts


def tree_from_json(obj):
    """Inverse of purification.tree_to_json."""
    if obj == "L":
        return LEAF
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return (tree_from_json(obj[0]), tree_from_json(obj[1]))
    raise ValueError(f"bad tree JSON: {obj!r}")


def gamma_table(n: int, f_e: float) -> list[float]:
    """Best achievable fidelity per leaf budget; entry i (1-based) is the
    maximum over all trees with at most i leaves.  Index 0 is NaN padding."""
    return [float("nan")] + [f for f, _ in _best_schedules(n, f_e)]


def lemma1_delta(a: float, b: float, c: float, d: float) -> float:
    """Fidelity advantage of purify-and-swap over swap-and-purify on the
    two-hop, two-pairs-per-hop instance (a,b | c,d)."""
    return swap_fidelity([purified_fidelity(a, b), purified_fidelity(c, d)]) - purified_fidelity(
        swap_fidelity([a, c]), swap_fidelity([b, d])
    )


def success_margin(a: float, b: float, c: float, d: float, p_s: float = 0.818) -> float:
    """purify-and-swap success minus swap-and-purify success, with one
    factor of p_s divided out."""
    return purification_success_prob(a, b) * purification_success_prob(
        c, d
    ) - p_s * purification_success_prob(swap_fidelity([a, c]), swap_fidelity([b, d]))
