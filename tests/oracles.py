"""Oracles the tests check src/entroute against, written from the
definitions: the auxiliary graph's arcs and its path bijection, the
purification tree JSON reader, the gamma table, lemma 1's delta and
success margin, and the former forms of four fast paths: the frontier
merge loop, the pumping chain loop, the first-k search and the search's
throughput steps.  No entry point of the package needs them, so they live
here rather than in src/.
"""

import itertools
import math
from operator import itemgetter

from entroute.auxgraph import VIRTUAL_SINK
from entroute.pair_algebra import (
    _purification_success_raw,
    _purified_fidelity_raw,
    inverse_pseudo_fidelity,
    pseudo_fidelity,
    purification_success_prob,
    purified_fidelity,
    swap_fidelity,
)
from entroute.purification import (
    _GRID_TOL,
    LEAF,
    ScheduleEntry,
    _best_schedules,
    _ceil_to_grid,
)
from entroute.routing import _first_k

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


def _dominated(entries: list, b: int, f: float, xi: float) -> bool:
    """Whether an entry with no more leaves and at least the fidelity and
    yield (within _GRID_TOL) of the candidate (b, f, xi) is in entries."""
    f -= _GRID_TOL
    xi -= _GRID_TOL
    for e in reversed(entries):
        if e.b <= b and e.f_hat >= f and e.xi_hat >= xi:
            return True
    return False


def _admit(entries: list, cand: ScheduleEntry) -> None:
    """Append a candidate that passed _dominated, dropping the entries it
    dominates."""
    b, f, xi = cand.b, cand.f_hat, cand.xi_hat
    entries[:] = [
        e
        for e in entries
        if not (b <= e.b and f >= e.f_hat - _GRID_TOL and xi >= e.xi_hat - _GRID_TOL)
    ]
    entries.append(cand)


def merge_frontier(bound: int, f_e: float, delta_f: float, delta_xi: float) -> list:
    """purification._merge_frontier in its former form: ScheduleEntry
    objects throughout, each round's old entries found by the ids of the
    previous snapshot, every partner of the snapshot visited and the pairs
    that overflow bound skipped, and _dominated and _admit called per
    candidate."""
    entries = [ScheduleEntry(1, f_e, 1.0, LEAF)]
    snapshot = []
    for _ in range(bound):
        prev = {id(e) for e in snapshot}
        snapshot = list(entries)
        old = sum(id(e) in prev for e in snapshot)
        if old == len(snapshot):
            break
        for i1, l1 in enumerate(snapshot):
            b1, f1, xi1 = l1.b, l1.f_hat, l1.xi_hat
            for l2 in snapshot[max(i1, old) :]:
                b3 = b1 + l2.b
                if b3 > bound:
                    continue
                f2 = l2.f_hat
                f3 = min(math.ceil(_purified_fidelity_raw(f1, f2) / delta_f - 1e-9) * delta_f, 1.0)
                xi3 = _purification_success_raw(f1, f2) * min(xi1, l2.xi_hat)
                xi3 = min(math.ceil(xi3 / delta_xi - 1e-9) * delta_xi, 1.0)
                if not _dominated(entries, b3, f3, xi3):
                    _admit(entries, ScheduleEntry(b3, f3, xi3, (l1.tree, l2.tree)))
    return entries


def first_k(f_hat: float, delta_phi: float) -> int:
    """routing._first_k in its former form, unmemoized and through the
    checked maps: the least k >= 1 with f_hat >=
    inverse_pseudo_fidelity(-k * delta_phi) - _GRID_TOL, by unit steps
    from the closed-form estimate."""

    def meets(k):
        return not f_hat < inverse_pseudo_fidelity(-k * delta_phi) - _GRID_TOL

    k = max(1, math.ceil(-pseudo_fidelity(f_hat) / delta_phi))
    while k > 1 and meets(k - 1):
        k -= 1
    while not meets(k):
        k += 1
    return k


def pumping_frontier_former(n: int, f_e: float, delta_f: float, delta_xi: float) -> list:
    """purification.pumping_frontier in its former form: each chain entry
    tested by _dominated and kept by _admit, which may drop entries."""
    cur = ScheduleEntry(1, f_e, 1.0, LEAF)
    entries = [cur]
    for b in range(2, n + 1):
        f3 = _ceil_to_grid(purified_fidelity(cur.f_hat, f_e), delta_f)
        xi3 = _ceil_to_grid(purification_success_prob(cur.f_hat, f_e) * min(cur.xi_hat, 1.0), delta_xi)
        cur = ScheduleEntry(b, min(f3, 1.0), min(xi3, 1.0), (cur.tree, LEAF))
        if not _dominated(entries, cur.b, cur.f_hat, cur.xi_hat):
            _admit(entries, cur)
    entries.sort(key=lambda e: (e.f_hat, -e.xi_hat, e.b))
    return entries


def first_k_order(frontier, delta_phi: float):
    """routing's former first-k order: the (first k, ratio xi_hat/b, entry)
    triples of a frontier, sorted by first k (ties in frontier order)."""
    return sorted(((_first_k(e.f_hat, delta_phi), e.xi_hat / e.b, e) for e in frontier), key=itemgetter(0))


def throughput_steps(frontier, m: int, delta_phi: float) -> tuple:
    """The search's former successors of an edge at pair count m, less the
    arc record, read off a frontier built at m or more pairs: its table
    swept over first_k_order of the whole frontier, skipping the entries
    with b > m inside each first-k group, and per step (k, entry,
    log(entry.ratio() * m))."""
    steps = []
    best = None
    best_ratio = last_ratio = -math.inf
    for k, group in itertools.groupby(first_k_order(frontier, delta_phi), key=itemgetter(0)):
        for _, ratio, e in group:
            if e.b <= m and (
                ratio > best_ratio + _GRID_TOL
                or abs(ratio - best_ratio) <= _GRID_TOL
                and (e.b < best.b or (e.b == best.b and e.f_hat > best.f_hat + _GRID_TOL))
            ):
                best, best_ratio = e, ratio
        if best_ratio > last_ratio + _GRID_TOL:
            steps.append((k, best))
            last_ratio = best_ratio
            if best.b == 1:
                break
    return tuple((k, e, math.log(e.ratio() * m)) for k, e in steps)
