"""Fidelity- and throughput-constrained min-cost entanglement paths.

Label-setting search over the auxiliary graph.  A label carries the path
cost, a discretized pseudo-fidelity budget, the bottleneck edge
log-throughput, and a discretized path log-throughput.  Per-edge
purification options come from three memoized functions, each a pure
function of its arguments: the purification frontier of an edge's
fidelity, built at the least power of two >= the pair count m, or at the
edge's budget min(capacity, Q_u, Q_v) if that is smaller; its entries in
first-k order for one delta_phi; and per m a throughput table, an
immutable staircase of (split index, schedule) steps swept from that
order (any frontier budget >= m gives the same staircase).  The budgets
depend on the edge and m alone, so every search over a network shares its
frontiers and tables, and a search that reaches small pair counts only
never builds the large frontiers.

The search starts from a single label at the top source copy.  Every
intermediate copy index is fixed by the allocation into it (j = Q_v - m),
and the top source copy reaches every arc a lower one does, so each
physical plan has exactly one auxiliary path and one label sequence.

Each search walks the arcs out of a vertex once, at its first expansion,
and computes the successors of an (edge, pair count) once, at the first arc
over it that passes the path and budget checks: the edge cost and, per
table step, the log-throughput, the budget charge and the arc record.  A
candidate is tested against its node's pool on its raw (cost, phi credit,
psi_hat, copy index) before any label, path tuple or heap key is built.
They are exactly the values the label would carry, and the test reads
nothing else, so testing before the build admits and kills the same labels
as testing after it would; a rejected candidate just allocates nothing.

Label pools.  Each original node, and the sink, has one pool: its alive
labels in insertion order.  A label d dominates x when d.cost <= x.cost +
_TOL, d.phi_credit >= x.phi_credit - _TOL and d.psi_hat >= x.psi_hat -
_TOL, and it counts against x at a copy index at least x's (a higher copy
reaches every arc a lower one does, at identical terms).  Under relaxed
dominance R, a candidate is admitted unless R pool labels count against
it, and a pool label dies once R do.  Each label keeps its number of alive
dominators, always < R.  A killed label leaves its pool at once; it keeps
an alive flag only because the heap deletes lazily.

A candidate costs one newest-first pass over its pool (_scan).  The pass
counts the candidate's dominators and rejects at the R-th, which does not
depend on the order, and collects the labels the candidate dominates.  An
admitted scan ran to the end, so its count is exact and becomes the new
label's.  Then (_admit) each collected label gains a dominator, in pool
order; one whose count reaches R is killed, and each label it dominated
loses one.

These are the kills of the former insert, which recounted from scratch, in
pool order, each label the newcomer dominates, and killed it at R.  Before
an admission every count is exact and < R.  A label the newcomer does not
dominate gains no dominator, so neither insert kills it.  A label x the
newcomer dominates is reached in the same order by both.  The recount then
finds x's dominators before the admission, plus the newcomer, minus those
killed earlier in this admission, and that is x's count, since each kill
took one off every label the killed one dominated.  So both kill x or
neither does, and afterwards every count is again exact and < R.

Table steps on one arc share the candidate's cost and copy index, and a
later step has less phi credit.  So a later step whose psi_hat is no higher
than that of a rejected one is dominated by each of the rejecting step's R
dominators, directly, with no chain through _TOL: it is skipped without a
scan.  Only an admission kills, so the rule holds until the arc's next
admission.  With R = 1 the earlier rule stays: a step is skipped when its
psi_hat is no higher than that of any earlier step on the arc that got past
this check (admitted, rejected or below a floor).  stats= reports the scans
that rejected, the kills, the skipped steps and the dead labels popped.

The phi lower bound.  Before the search, one Dijkstra from t over the
physical network (_charge_to_sink) gives LB(v) in units of delta_phi: no
path the search can extend a label along from v to t charges less than
LB(v)*delta_phi.  A label with phi credit c takes a step k into v only when
k - 1 + LB(v) <= floor((c - phi0 + 2e-9)/delta_phi).  Steps ascend in k, so
this caps each arc's k below kmax at no cost per step; stats= counts the
arcs whose cap it lowers as pruned.  A dropped step cannot reach the sink:
its completions would end with credit below phi0 - 2e-9, up to float
rounding (~1e-14), and the floor is phi0 - 1e-9.  Call a label at v safe
when its credit is at least LB(v)*delta_phi + phi0 - 1e-9 - 1e-13.  A
label that can complete is safe, and a safe label is never dropped.  The
parent of a safe label is safe (LB(u) is at most the edge's charge plus
LB(v)), and so is every label that dominates a safe one: credits are sums
of multiples of delta_phi, so a credit at least another's - _TOL lies on
the same multiple or a higher one (for delta_phi > 2*_TOL), and no chain
of dominators loses more than float rounding.  The admission, kills and
R>1 count of a safe label depend only on the labels that dominate it, and
the R = 1 psi_hat skip rule only on earlier steps of the arc, which no drop
precedes.  So the safe labels are admitted, killed and popped, in the same
relative order, as without the bound.  Sink labels are safe, so the sink
pops and plans are unchanged.

Each edge is charged _least_charge: the first k, less one, of a ceiling on
the f_hat of its frontier.  Each ceiling is a recursion over the edge's
budget, and on a network with many edges or large budgets, running it over
every edge at once costs less than edge by edge (_BATCH_SIZE's rule), so
such a network takes its ceilings from one numpy batch (_ceilings), the
same floats, and so the same charges.

The cost cap.  A second Dijkstra from t (_cost_to_sink; one helper, _to_sink,
serves both) gives togo(v), the least cost of a v-t path avoiding s, each
edge at the fewest pairs an arc over it can allocate (one when deltaq = 1).
Costs are nonnegative and nondecreasing in the pair count, so no completion
of a label at v costs less than its cost + togo(v).  A label's reach is the
largest cost + togo(v) over the labels of its path (0 at the root, its
parent's at the sink), so a child never reaches below its parent.  The
proof below takes these float sums as exact up to rho = _ROUND*(1 + c) near
c, which bounds their rounding along paths of under 2,000 edges.

The search runs in passes.  A pass cuts, before its table is built, every
arc whose reach (shared by the arc's steps) exceeds cap + _MARGIN*(1 + cap).
The first cap is togo(s), the least cost of an s-t path at those pair
counts, which no first arc reaches below.  Whenever the sink pool holds R
labels, the cap drops to the R-th smallest of their costs (an infinite cap
never drops).  A sink label leaves the pool only when R others
dominate it, so from then on the pool holds R labels, and each pops as a
result unless R results pop first: a pass that dropped its cap returns R
results.  A pass that returns fewer after cutting an arc had a fixed cap;
the search reruns at max(least reach cut, 2*cap), which lets that arc
through, so the passes end.  A pass that cut nothing was the uncapped
search.  Otherwise _certified looks for T >= top, the largest reach of the
results, with no reach of an arc let through in (T, T + gap], gap = _TOL +
rho(top), and every arc cut reaching above T + gap; it walks T up through
reaches closer than gap.  If there is none, the search reruns with no cap.
The passes share their arc and successor memos and both Dijkstras; stats=
describes the last one, except pushed_all_passes, which counts the labels
every pass pushed.  (The phi bound already drops every arc into a
node with no path to t that avoids s, so no arc the cap sees is a dead
end.)

Why a certified pass is exact.  Call a label low when its reach is at most
T.  A dominator of x, in x's pool, costs at most x.cost + _TOL, so its reach
is at most x's reach + gap; a label x dominates has reach at least x's -
gap.  Suppose both searches have so far admitted, killed and popped the same
low labels in the same relative order, and the uncapped one has made no
label with reach in (T, T + gap].  The next low label popped is the same in
both: heap keys order low labels alike, and their counter ties follow push
order, which is alike.  Each arc it takes in the uncapped search with reach
at most T + gap lies below every cut, so the pass takes it too, and by the
gap its reach is at most T.  A step's dominators are then low, so its scan
finds the same ones; the psi_hat skip reads only earlier steps of its arc.
So it is admitted in both or neither, and it kills the same low labels: a
label dies when R labels dominate it, all of them low.  A label that is not
low reaches above T + gap in both searches; it dominates no low label, and
when it dies only labels reaching above T lose a dominator.  This is where
_TOL chains end: each link lowers reach by at most gap, and none crosses the
empty band above T.  So the low labels are admitted, killed and popped
alike.  The results are low; a sink label that is not low costs more than
T + _TOL, which is more than any low one, so it pops later.  The first R
sink pops, and so the plans, are the uncapped search's.  The margin keeps
the cut arcs, on costs that differ by more than about 1e-9 relative, some
thousand gaps above the results, so T = top usually certifies a pass.

Budget accounting: an edge expanded at split index k demands per-edge
pseudo-fidelity -k*delta_phi but is charged only (k-1)*delta_phi against
the label's budget.  The round-down credit keeps the label of an exactly
feasible path alive (so cost never exceeds the true optimum) while
retained labels still certify phi_hat >= phi0 - |path|*delta_phi.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

import numpy as np

from .auxgraph import VIRTUAL_SINK, AuxiliaryGraph, build_aux_graph
from .network import QuantumNetwork
from .pair_algebra import (
    _purified_fidelity_raw,
    inverse_pseudo_fidelity,
    pseudo_fidelity,
    swap_fidelity,
)
from .purification import (
    _GRID_TOL,
    _pareto_sets,
    _prefer,
    candidate_frontier,
    evaluate_tree,
    pumping_frontier,
)

_TOL = 1e-12
_INF = math.inf
# the cost cap: arcs are cut above cap + _MARGIN*(1 + cap); _ROUND*(1 + c)
# bounds the float rounding of reaches near c (see the module docstring)
_MARGIN = 1e-9
_ROUND = 1e-12

# Bounds of the caches below.  They are keyed by float fidelities, so a
# long-lived process would otherwise grow them without limit; one search
# needs a frontier and a first-k order per edge and a table per (edge, m).
FRONTIER_CACHE_SIZE = 1024
TABLE_CACHE_SIZE = 8192
FRONTS_CACHE_SIZE = 256
# _ceilings is keyed by a whole network's edges, as a tuple of budgets and
# one of the edges' own fidelity floats: one entry per network and schedule
# mode (delta_phi is not in the key)
CEILINGS_CACHE_SIZE = 256

# _charge_to_sink batches the phi ceilings of a network of E edges and
# largest budget B (_ceilings) when E*(B + 29) > _BATCH_SIZE in optimal
# mode, E*29 > _BATCH_SIZE in pumping mode.  Timed on a 2-vCPU Xeon (Python
# 3.11, numpy 2.4), charges at delta_phi = 0.01 included: a batch level costs
# ~15 us (optimal) or ~9 us (pumping) whatever E; one edge's level costs
# ~0.042*(B + 29) us (B/4 map evaluations at 0.17 us, plus 1.25 us) or ~0.6
# us, so the two meet near the rule (pumping: at ~16 edges).  40 edges at
# budget 15 (route-compare): 0.28 vs 1.09 ms optimal, 0.29 vs 0.40 ms
# pumping; 4 at budget 39 (multiflow-mc): 0.55 vs 0.45 ms and 0.35 vs 0.09.
_BATCH_SIZE = 350


@lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def _frontier(budget: int, f_e: float, delta_f: float, delta_xi: float, mode: str) -> tuple:
    """The purification frontier of mode's schedule family, built at
    exactly budget pairs.

    Its entries with b <= m equal a fresh build at m, entry for entry and
    in order: an entry with b leaves is built only from entries with at
    most b leaves, and only such entries can dominate it.  So one build at
    an edge's largest pair count serves every smaller one.
    """
    if mode == "optimal":
        return tuple(candidate_frontier(budget, f_e, delta_f, delta_xi))
    if mode == "pumping":
        return tuple(pumping_frontier(budget, f_e, delta_f, delta_xi))
    raise ValueError(f"unknown schedule mode {mode!r}")


def _first_k(f_hat: float, delta_phi: float) -> int:
    """Least k >= 1 whose threshold f_hat meets by best_entry's test, by
    unit steps from the closed-form estimate (the test is monotone in k)."""

    def meets(k):
        return not f_hat < inverse_pseudo_fidelity(-k * delta_phi) - _GRID_TOL

    k = max(1, math.ceil(-pseudo_fidelity(f_hat) / delta_phi))
    while k > 1 and meets(k - 1):
        k -= 1
    while not meets(k):
        k += 1
    return k


@lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def _first_k_order(
    budget: int, f_e: float, delta_phi: float, delta_f: float, delta_xi: float, mode: str
) -> tuple:
    """The (first k, entry) pairs of _frontier(budget, ...), ascending in
    first k (ties in frontier order)."""
    entries = _frontier(budget, f_e, delta_f, delta_xi, mode)
    return tuple(sorted(((_first_k(e.f_hat, delta_phi), e) for e in entries), key=itemgetter(0)))


@lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def _least_charge(budget: int, f_e: float, delta_phi: float, delta_f: float, mode: str) -> int:
    """A lower bound on k - 1, the phi charge in units of delta_phi, of
    every table step of an edge at budget, for any delta_xi, built without
    a frontier: the first k of a ceiling g on the f_hat of every entry of
    _frontier(budget, ...), less one.

    g[i] bounds the entries with at most i leaves.  Optimal mode runs the
    gamma recursion on the delta_f grid: g[1] = f_e and g[i] = max(g[i-1],
    up(max over k <= i/2 of F(g[k], g[i-k]))), F the raw purification map.
    Pumping mode runs its chain: c = up(F(c, f_e)), g[i] = max(g[i-1], c).
    up is the merge's rounding, but of F + 1e-12 and with no 1e-9 margin
    taken off, so float asymmetry of F (a few ulps) cannot lift a merge
    above it at any delta_f; it is monotone, so rounding the largest merge
    alone gives the largest rounded one.  Every entry is a leaf (f_e) or
    the merge of entries with fewer leaves, and F is increasing in both
    arguments, so by induction g bounds every f_hat.  A larger f_hat has a
    first k no larger, and a table step's k is at least its entry's first k.

    _charge_to_sink charges edge by edge this way on small networks only;
    larger ones take every ceiling from one _ceilings batch (_BATCH_SIZE).
    """
    return _first_k(_ceiling(budget, f_e, delta_f, mode), delta_phi) - 1


def _ceiling(budget: int, f_e: float, delta_f: float, mode: str) -> float:
    """g[budget] of _least_charge's recursion, for one edge."""

    def up(f):
        return min(math.ceil((f + 1e-12) / delta_f) * delta_f, 1.0)

    if mode == "optimal":
        g = [math.nan, f_e]
        for i in range(2, budget + 1):
            merged = max(map(_purified_fidelity_raw, g[1 : i // 2 + 1], g[i - 1 : (i - 1) // 2 : -1]))
            g.append(max(g[i - 1], up(merged)))
        top = g[budget]
    elif mode == "pumping":
        top = cur = f_e
        for _ in range(budget - 1):
            cur = up(_purified_fidelity_raw(cur, f_e))
            top = max(top, cur)
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")
    return top


@lru_cache(maxsize=CEILINGS_CACHE_SIZE)
def _ceilings(budgets: tuple, fidelities: tuple, delta_f: float, mode: str) -> tuple:
    """_ceiling(budget, f_e, delta_f, mode) for every edge, budgets[i] and
    fidelities[i] being edge i's, by its recursion run level by level over
    all of them at once.

    Row i of g holds every edge's g[i].  Each level applies the same float
    operations to the same operands as _ceiling (F, up, max), one numpy
    operation per step over all edges, so every ceiling is the same float;
    rows past an edge's budget are computed and never read.
    """
    budgets = np.array(budgets)
    g = np.empty((int(budgets.max()) + 1, len(budgets)))
    g[1] = fidelities

    def up(f):
        return np.minimum(np.ceil((f + 1e-12) / delta_f) * delta_f, 1.0)

    if mode == "optimal":
        for i in range(2, len(g)):
            merged = _purified_fidelity_raw(g[1 : i // 2 + 1], g[i - 1 : (i - 1) // 2 : -1]).max(axis=0)
            g[i] = np.maximum(g[i - 1], up(merged))
    elif mode == "pumping":
        for i in range(2, len(g)):
            g[i] = up(_purified_fidelity_raw(g[i - 1], g[1]))
        np.maximum.accumulate(g[1:], axis=0, out=g[1:])
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")
    return tuple(g[budgets, np.arange(len(budgets))].tolist())


def _to_sink(net: QuantumNetwork, s, t, limit, weight) -> dict:
    """The least sum of weight(edge) over the edges of any v-t path in the
    physical network that avoids s, for every node v != s where it is <=
    limit, by one Dijkstra from t.  Weights must be nonnegative.  Edges out
    of the nodes left out are never weighed."""
    dist = {t: 0}
    done = set()
    counter = itertools.count()
    heap = [(0, next(counter), t)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for w in net.neighbors(u):
            if w == s or w in done:
                continue
            d2 = d + weight(net.edge(u, w))
            if d2 <= limit and d2 < dist.get(w, _INF):
                dist[w] = d2
                heapq.heappush(heap, (d2, next(counter), w))
    return dist


def _charge_to_sink(
    net: QuantumNetwork, s, t, limit: int, delta_phi: float, delta_f: float, mode: str
) -> dict:
    """LB(v) for every node v != s with LB(v) <= limit: the least sum of
    _least_charge over the edges of any v-t path that avoids s.  The search
    never enters s, and the bound ignores copy indices and simplicity, so no
    path it can extend a label along from v to t charges less than
    LB(v)*delta_phi.  A network large by _BATCH_SIZE's rule takes its
    ceilings from one _ceilings batch, giving _least_charge's charges."""
    budgets = {id(e): min(e.capacity, net.node(e.u).qubits, net.node(e.v).qubits) for e in net.edges}
    per_level = 29 + (max(budgets.values(), default=0) if mode == "optimal" else 0)
    if len(budgets) * per_level > _BATCH_SIZE:
        fidelities = tuple(e.fidelity for e in net.edges)
        tops = dict(zip(budgets, _ceilings(tuple(budgets.values()), fidelities, delta_f, mode)))

        def charge(edge):
            return _first_k(tops[id(edge)], delta_phi) - 1

    else:

        def charge(edge):
            return _least_charge(budgets[id(edge)], edge.fidelity, delta_phi, delta_f, mode)

    return _to_sink(net, s, t, limit, charge)


def _cost_to_sink(aux: AuxiliaryGraph) -> dict:
    """togo(v) for every node v that reaches t, s only as its start: the
    least cost of a v-t path, each edge at the fewest pairs an arc into
    either of its ends allocates (an arc into w allocates Q_w - j pairs, j a
    copy index of w below Q_w).  Costs are nonnegative and nondecreasing in
    the pair count, so no path the search can extend a label along from v
    to t costs less."""
    net, s = aux.net, aux.s
    fewest = {}
    for w, node in net.nodes.items():
        below = [j for j in aux.copy_indices(w) if j < node.qubits]
        fewest[w] = node.qubits - max(below) if below else 1

    def cost(edge):
        return edge.cost_of(min(fewest[edge.u], fewest[edge.v], edge.capacity))

    togo = _to_sink(net, s, aux.t, _INF, cost)
    first = [cost(net.edge(s, w)) + togo[w] for w in net.neighbors(s) if w in togo]
    if first:
        togo[s] = min(first)
    return togo


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def edge_throughput_table(
    budget: int,
    pair_budget: int,
    f_e: float,
    delta_phi: float,
    delta_f: float,
    delta_xi: float,
    mode: str,
) -> tuple:
    """Throughput table of one (pair budget, elementary fidelity): the
    staircase of (k, entry) steps worth expanding, ascending in k.  It is
    read off the frontier built at budget, which must be >= pair_budget.

    At split index k the edge must reach pseudo-fidelity -k*delta_phi and
    takes best_entry's pick at that threshold.  A step is kept when its
    ratio xi_hat/b beats the previous step's; a label at any other k is
    dominated by the step before it (same cost and throughput, less budget
    left).  The staircase ends at the raw pair (ratio 1, which no purified
    entry reaches).

    An entry meets the threshold of k exactly when k is at least its
    first k (the test is monotone in k), so the pick can change only at
    some entry's first k.  One sweep over the first-k order, over the
    entries with b <= pair_budget, keeps a running pick by best_entry's
    rule and closes a step candidate at the end of each first-k group.
    That is best_entry's pick over the whole qualifying set, because the
    rule's pick does not depend on the order it meets the entries in:
    yields are multiples of delta_xi, so ratios within _GRID_TOL of each
    other are equal (distinct ones differ by about delta_xi/b^2 or more),
    and a frontier holds no two entries with equal b and ratio (one would
    dominate the other).  The entries with b <= pair_budget are the
    frontier of pair_budget (see _frontier), so every budget >= pair_budget
    gives the same staircase.  The cost depends on the frontier size, not
    on delta_phi.
    """
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if budget < pair_budget:
        raise ValueError(f"budget {budget} is below pair_budget {pair_budget}")
    if delta_phi <= 0:
        raise ValueError("delta_phi must be positive")
    order = _first_k_order(budget, f_e, delta_phi, delta_f, delta_xi, mode)
    steps: list = []
    best = None
    for k, group in itertools.groupby(order, key=itemgetter(0)):
        for _, e in group:
            if e.b <= pair_budget and _prefer(e, best):
                best = e
        if best is None:
            continue
        if not steps or best.ratio() > steps[-1][1].ratio() + _GRID_TOL:
            steps.append((k, best))
        if best.b == 1:
            break
    return tuple(steps)


@dataclass
class RoutePlan:
    """A path with per-edge pair allocations and purification schedules,
    reported with exact (undiscretized) end-to-end metrics."""

    nodes: list
    pair_counts: list
    trees: list
    edge_fidelities: list
    edge_throughputs: list
    fidelity: float
    throughput: float
    cost: float
    phi_hat: float
    psi_hat: float

    def to_json(self) -> dict:
        from .purification import tree_to_json

        return {
            "nodes": list(self.nodes),
            "pair_counts": list(self.pair_counts),
            "trees": [tree_to_json(t) for t in self.trees],
            "edge_fidelities": list(self.edge_fidelities),
            "edge_throughputs": list(self.edge_throughputs),
            "fidelity": self.fidelity,
            "throughput": self.throughput,
            "cost": self.cost,
            "phi_hat": self.phi_hat,
            "psi_hat": self.psi_hat,
        }


class _Label:
    __slots__ = (
        "cost", "phi_credit", "psi_b", "psi_hat", "path", "pkey", "vertex", "copy", "parent", "arc",
        "alive", "dominators", "reach",
    )

    def __init__(self, cost, phi_credit, psi_b, psi_hat, path, pkey, vertex, copy, parent, arc, reach=0.0):
        self.cost = cost
        self.phi_credit = phi_credit
        self.psi_b = psi_b
        self.psi_hat = psi_hat
        self.path = path
        self.pkey = pkey  # heap tie-break: tuple(map(str, path))
        self.vertex = vertex
        self.copy = copy  # remaining-qubit copy index; the sink counts as copy 0
        self.parent = parent
        self.arc = arc  # (m, k, edge, schedule entry) of the arc into vertex
        self.alive = True
        self.dominators = 0  # alive labels of its pool that dominate it; < R
        self.reach = reach  # lower bound on the cost of every completion


def _scan(pool: list, cost: float, phi_credit: float, psi_hat: float, copy: int, R: int):
    """One newest-first pass over a pool for a candidate's values.

    Returns None at the R-th label at copy index copy or higher that
    dominates (cost, phi_credit, psi_hat).  Otherwise returns that count,
    then exact, and the labels at copy index <= copy that the values
    dominate, in pool order.  Values equal within _TOL dominate both ways.
    """
    tol = _TOL
    cost_hi = cost + tol
    phi_lo = phi_credit - tol
    psi_lo = psi_hat - tol
    count = 0
    beaten = []
    for e in reversed(pool):
        e_cost = e.cost
        if e_cost <= cost_hi and e.phi_credit >= phi_lo and e.psi_hat >= psi_lo and e.copy >= copy:
            count += 1
            if count >= R:
                return None
        if (
            cost <= e_cost + tol
            and phi_credit >= e.phi_credit - tol
            and psi_hat >= e.psi_hat - tol
            and e.copy <= copy
        ):
            beaten.append(e)
    beaten.reverse()
    return count, beaten


def _admit(pool: list, lab: _Label, count: int, beaten: list, R: int) -> int:
    """Append lab, whose _scan found count dominators and the labels
    beaten, to its pool; kill the labels that now have R alive dominators
    and return how many there were.

    Each label of beaten gains lab as a dominator, in pool order, and is
    killed when its count reaches R; a killed label leaves the pool, and
    each label it dominated loses a dominator.  With R = 1 no alive label
    dominates another, so lab kills all of beaten and no count changes.
    """
    lab.dominators = count
    pool.append(lab)
    if R == 1:
        for e in beaten:
            e.alive = False
            pool.remove(e)
        return len(beaten)
    killed = 0
    for e in beaten:
        e.dominators += 1
        if e.dominators < R:
            continue
        e.alive = False
        pool.remove(e)
        killed += 1
        cost, phi_credit, psi_hat, copy = e.cost, e.phi_credit, e.psi_hat, e.copy
        for x in pool:
            if (
                x.copy <= copy
                and cost <= x.cost + _TOL
                and phi_credit >= x.phi_credit - _TOL
                and psi_hat >= x.psi_hat - _TOL
            ):
                x.dominators -= 1
    return killed


def _certified(top: float, reaches: list, least_cut: float) -> bool:
    """Whether a pass whose results reach at most top is exact (see the
    module docstring): some T >= top has no reach of the arcs let through in
    (T, T + gap], for gap = _TOL + _ROUND*(1 + top), and every arc cut
    reaches above T + gap."""
    gap = _TOL + _ROUND * (1 + top)
    for r in sorted(r for r in reaches if r > top):
        if r > top + gap:
            break
        top = r
    return least_cut > top + gap


def _search(
    aux: AuxiliaryGraph,
    phi0: float,
    psi0: float,
    delta_phi: float,
    delta_psi: float,
    R: int,
    delta_f: float,
    delta_xi: float,
    stats: Optional[dict],
    mode: str = "optimal",
) -> list[_Label]:
    if phi0 > _TOL:
        raise ValueError("phi0 must be <= 0")
    for name, step in (
        ("delta_phi", delta_phi), ("delta_psi", delta_psi), ("delta_f", delta_f), ("delta_xi", delta_xi)
    ):
        # a step with an infinite reciprocal (a subnormal) overflows the grid
        if not (step > 0 and 1.0 / step < _INF):
            raise ValueError(f"step sizes must be positive with a finite reciprocal: {name}={step!r}")
    if R < 1:
        raise ValueError("R must be >= 1")
    net = aux.net
    # per-search memos, shared by every pass: vertex -> the arcs out of it,
    # as (head, pool key, copy, (str(v),), successor key, edge, m, psi_v,
    # LB(v), edge cost, togo(v)); successor key (id(edge), m) -> ((k, entry,
    # psi_e, (k-1)*delta_phi, arc), ...)
    arc_memo: dict = {}
    succ_memo: dict = {}
    psi_floor = psi0 - _TOL
    phi_floor = phi0 - 1e-9
    phi_low = phi0 - 2e-9
    # no label has more credit than the root's 0, so none can use an LB(v)
    # above the root's room; such nodes are left out, as if unreachable
    to_sink = _charge_to_sink(net, aux.s, aux.t, int(-phi_low / delta_phi), delta_phi, delta_f, mode)
    togo = _cost_to_sink(aux)

    def arcs_of(vertex):
        arcs = []
        for head, m, edge in aux.out_arcs(vertex):
            if edge is None:
                arcs.append((head, head, 0, None, None, None, 0, None, None, None, None))
            else:
                v, j = head
                psi_v = 0.0 if v == aux.t else math.log(net.node(v).swap_prob)
                lb = to_sink.get(v, _INF)
                g = togo.get(v, _INF)
                arcs.append((head, v, j, (str(v),), (id(edge), m), edge, m, psi_v, lb, edge.cost_of(m), g))
        return arcs

    def successors(edge, m):
        # every arc over the edge allocates m <= min(capacity, Q_tail, Q_head);
        # the frontier is built at the least power of two >= m below that
        # budget (any budget >= m gives the same staircase), so all searches
        # share it and small pair counts never build the large frontiers
        budget = min(edge.capacity, net.node(edge.u).qubits, net.node(edge.v).qubits)
        budget = min(budget, 1 << (m - 1).bit_length())
        steps = edge_throughput_table(budget, m, edge.fidelity, delta_phi, delta_f, delta_xi, mode)
        return tuple(
            (k, entry, math.log(entry.ratio() * m), (k - 1) * delta_phi, (m, k, edge, entry))
            for k, entry in steps
        )

    cap = togo.get(aux.s, _INF)  # no first arc reaches less
    source_copies = aux.copy_indices(aux.s)
    pushed_all = 0  # over every pass; the other counts describe the final pass
    for passes in itertools.count(1):
        pools: dict = {}
        counter = itertools.count()
        heap: list = []
        pushed_at: dict = {}
        expanded_at: dict = {}
        rejected = killed = skipped = dead_pops = pruned = capped = 0
        least_cut = _INF  # the least reach the cap cut
        reaches = []  # the reach of every arc the cap let through
        limit = cap + _MARGIN * (1 + cap)
        if source_copies:
            top = max(source_copies)
            root = _Label(0.0, 0.0, _INF, _INF, (aux.s,), (str(aux.s),), (aux.s, top), top, None, None)
            pools[aux.s] = [root]
            heapq.heappush(heap, (0.0, 0, root.pkey, next(counter), root))

        results: list[_Label] = []
        while heap:
            lab = heapq.heappop(heap)[-1]
            if not lab.alive:
                dead_pops += 1
                continue
            vertex = lab.vertex
            if vertex == VIRTUAL_SINK:
                results.append(lab)
                if len(results) >= R:
                    break
                continue
            expanded_at[vertex] = expanded_at.get(vertex, 0) + 1
            arcs = arc_memo.get(vertex)
            if arcs is None:
                arcs = arc_memo[vertex] = arcs_of(vertex)
            cost, phi_credit, psi_hat, psi_b = lab.cost, lab.phi_credit, lab.psi_hat, lab.psi_b
            reach0 = lab.reach
            path = lab.path
            depth = len(path)
            kmax = int(math.floor((phi_credit - phi0) / delta_phi + 1e-9)) + 1
            # a step k into v with k - 1 + LB(v) > kroom - 1 cannot reach t (see
            # the module docstring); phi_credit >= phi_floor, so int() floors
            kroom = int((phi_credit - phi_low) / delta_phi) + 1
            for head, key, j, pkey_v, succ_key, edge, m, psi_v, lb, edge_cost, g in arcs:
                if edge is None:
                    # zero-cost virtual hop into the sink
                    pool = pools.get(key)
                    if pool is None:
                        pool = pools[key] = []
                    found = _scan(pool, cost, phi_credit, psi_hat, 0, R)
                    if found is None:
                        rejected += 1
                        continue
                    new = _Label(cost, phi_credit, psi_b, psi_hat, path, lab.pkey, head, 0, lab, None, reach0)
                    killed += _admit(pool, new, *found, R)
                    heapq.heappush(heap, (cost, depth - 1, new.pkey, next(counter), new))
                    pushed_at[head] = pushed_at.get(head, 0) + 1
                    if len(pool) >= R and cap < _INF:
                        # from now on the pass returns R results (see the
                        # module docstring); an infinite cap never drops
                        cap = min(cap, sorted(e.cost for e in pool)[R - 1])
                        limit = cap + _MARGIN * (1 + cap)
                    continue
                if kmax < 1 or key in path:
                    continue
                kcap = kroom - lb
                if kcap < kmax:
                    pruned += 1
                    if kcap < 1:
                        continue
                else:
                    kcap = kmax
                cost2 = cost + edge_cost
                reach = cost2 + g
                if reach < reach0:
                    reach = reach0
                if reach > limit:
                    capped += 1
                    if reach < least_cut:
                        least_cut = reach
                    continue
                reaches.append(reach)
                steps = succ_memo.get(succ_key)
                if steps is None:
                    steps = succ_memo[succ_key] = successors(edge, m)
                psi_base = psi_v + psi_hat
                pool = pools.get(key)
                last_psi = -_INF
                for k, entry, psi_e, phi_charge, arc in steps:
                    if k > kcap:
                        break
                    # _ceil_to_grid of the path log-throughput, inlined; psi_base is the
                    # first partial sum of psi_v + psi_hat + psi_e - psi_b, so each value
                    # is the float that summing left to right gives
                    if psi_b == _INF:
                        psi_hat2 = math.ceil((psi_v + psi_e) / delta_psi - 1e-9) * delta_psi
                    elif psi_e <= psi_b:
                        psi_hat2 = math.ceil((psi_base + psi_e - psi_b) / delta_psi - 1e-9) * delta_psi
                    else:
                        psi_hat2 = math.ceil(psi_base / delta_psi - 1e-9) * delta_psi
                    if psi_hat2 <= last_psi:
                        # same cost and copy as the step that set last_psi, less
                        # phi credit and no more psi_hat (see the module docstring)
                        skipped += 1
                        continue
                    if R == 1:
                        last_psi = psi_hat2
                    if psi_hat2 < psi_floor:
                        continue
                    phi_credit2 = phi_credit - phi_charge
                    if phi_credit2 < phi_floor:
                        continue
                    if pool is None:
                        pool = pools[key] = []
                    found = _scan(pool, cost2, phi_credit2, psi_hat2, j, R)
                    if found is None:
                        rejected += 1
                        last_psi = psi_hat2
                        continue
                    new = _Label(
                        cost2,
                        phi_credit2,
                        psi_b if psi_b < psi_e else psi_e,
                        psi_hat2,
                        path + (key,),
                        lab.pkey + pkey_v,
                        head,
                        j,
                        lab,
                        arc,
                        reach,
                    )
                    killed += _admit(pool, new, *found, R)
                    if R > 1:
                        last_psi = -_INF
                    heapq.heappush(heap, (cost2, depth, new.pkey, next(counter), new))
                    pushed_at[head] = pushed_at.get(head, 0) + 1

        pushed_all += sum(pushed_at.values())
        if not capped:
            break  # the cap cut nothing: this was the uncapped search
        if len(results) < R:
            cap = max(least_cut, 2 * cap)  # no drop happened: deepen
            continue
        if _certified(max(e.reach for e in results), reaches, least_cut):
            break
        cap = _INF  # rerun uncapped

    if stats is not None:
        per_vertex: dict = {}
        for pool in pools.values():
            for e in pool:
                per_vertex.setdefault(e.vertex, []).append(e)
        stats["pushed"] = sum(pushed_at.values())
        stats["pushed_all_passes"] = pushed_all
        stats["expanded"] = sum(expanded_at.values())
        stats["pushed_per_vertex"] = pushed_at
        stats["expanded_per_vertex"] = expanded_at
        stats["alive_per_vertex"] = {v: len(ls) for v, ls in per_vertex.items()}
        stats["labels"] = {
            v: [(e.cost, e.phi_credit, e.psi_b, e.psi_hat, e.path) for e in ls]
            for v, ls in per_vertex.items()
        }
        stats["rejected"] = rejected
        stats["killed"] = killed
        stats["skipped"] = skipped
        stats["dead_pops"] = dead_pops
        stats["pruned"] = pruned
        stats["capped"] = capped
        stats["passes"] = passes
        stats["cap"] = cap
    return results


def _plan_from_label(aux: AuxiliaryGraph, lab: _Label, delta_phi: float) -> RoutePlan:
    arcs = []
    cur = lab
    while cur is not None:
        if cur.arc is not None:
            arcs.append(cur.arc)
        cur = cur.parent
    arcs.reverse()
    nodes = list(lab.path)
    pair_counts, trees, fids, lams = [], [], [], []
    for m, _, edge, entry in arcs:
        f_exact, xi_exact = evaluate_tree(entry.tree, edge.fidelity)
        pair_counts.append(m)
        trees.append(entry.tree)
        fids.append(f_exact)
        lams.append(xi_exact / entry.b * m)
    p_prod = 1.0
    for v in nodes[1:-1]:
        p_prod *= aux.net.node(v).swap_prob
    return RoutePlan(
        nodes=nodes,
        pair_counts=pair_counts,
        trees=trees,
        edge_fidelities=fids,
        edge_throughputs=lams,
        fidelity=swap_fidelity(fids),
        throughput=min(lams) * p_prod,
        cost=lab.cost,
        phi_hat=lab.phi_credit - len(arcs) * delta_phi,
        psi_hat=lab.psi_hat,
    )


def min_cost_path(
    aux: AuxiliaryGraph,
    phi0: float,
    psi0: float,
    delta_phi: float,
    delta_psi: float,
    *,
    delta_f: float = 1e-4,
    delta_xi: float = 1e-4,
    stats: Optional[dict] = None,
    mode: str = "optimal",
) -> Optional[RoutePlan]:
    """Cheapest path meeting the discretized fidelity and throughput
    constraints, or None when no label reaches the sink.

    mode picks the per-edge schedule family: "optimal" (full candidate
    frontier) or "pumping" (left-deep chains only, the step-wise baseline).
    """
    found = _search(aux, phi0, psi0, delta_phi, delta_psi, 1, delta_f, delta_xi, stats, mode)
    if not found:
        return None
    return _plan_from_label(aux, found[0], delta_phi)


def k_paths(
    aux: AuxiliaryGraph,
    phi0: float,
    psi0: float,
    deltas: tuple,
    R: int,
    *,
    stats: Optional[dict] = None,
) -> list[RoutePlan]:
    """Up to R cheapest feasible plans under relaxed dominance (labels
    dominated by fewer than R entries are retained), on the 1e-4
    frontier grid."""
    delta_phi, delta_psi = deltas
    found = _search(aux, phi0, psi0, delta_phi, delta_psi, R, 1e-4, 1e-4, stats)
    return [_plan_from_label(aux, lab, delta_phi) for lab in found]


def discretization_steps(aux: AuxiliaryGraph, phi0: float, psi0: float, eps: float):
    """Step sizes for an eps-optimal search: delta_phi = eps|phi0|/|V| and
    delta_psi = eps * (psi value range) / |V|.

    The range substitutes for |psi0| because the throughput threshold is
    commonly 1 (psi0 = 0), which would make the literal rule vacuous."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_nodes = len(aux.net.nodes)
    delta_phi = max(eps * abs(phi0) / n_nodes, 1e-12)
    psi_max = 0.0
    for e in aux.net.edges:
        m = _max_allocation(aux, e)
        if m >= 1:
            psi_max = max(psi_max, math.log(m))
    psi_range = max(psi_max - psi0, 1e-6)
    delta_psi = max(eps * psi_range / n_nodes, 1e-12)
    return delta_phi, delta_psi


def _max_allocation(aux: AuxiliaryGraph, edge) -> int:
    """Largest pair count any auxiliary arc realizes over this edge."""
    best = 0
    for tail, head in ((edge.u, edge.v), (edge.v, edge.u)):
        if head == aux.s or tail == aux.t:
            continue
        tail_idx = aux.copy_indices(tail)
        head_idx = aux.copy_indices(head)
        if not tail_idx or not head_idx:
            continue
        q_head = aux.net.node(head).qubits
        cap = min(tail_idx[-1], edge.capacity)
        # copy indices ascend, so the least j with m = q_head - j <= cap
        # gives the largest such m
        at = bisect.bisect_left(head_idx, q_head - cap)
        if at < len(head_idx) and q_head - head_idx[at] >= 1:
            best = max(best, q_head - head_idx[at])
    return best


# ---------------------------------------------------------------------------
# exhaustive oracle


@lru_cache(maxsize=FRONTS_CACHE_SIZE)
def _fronts(m: int, f_e: float):
    return _pareto_sets(m, f_e)


def _simple_paths(net: QuantumNetwork, s, t):
    """All simple s-t paths, deterministic order."""
    path = [s]
    seen = {s}

    def walk(u):
        if u == t:
            yield list(path)
            return
        for w in sorted(net.neighbors(u), key=str):
            if w in seen:
                continue
            seen.add(w)
            path.append(w)
            yield from walk(w)
            path.pop()
            seen.remove(w)

    yield from walk(s)


def brute_force_route(
    net: QuantumNetwork, s, t, f0: float, q0: float
) -> Optional[RoutePlan]:
    """Exact minimum: enumerate simple paths and pair-count assignments,
    evaluating edges against their exact schedule Pareto fronts.

    The throughput constraint is per-edge once the swap losses are factored
    out, so each edge independently contributes its best pseudo-fidelity
    among qualifying schedules."""
    if len(net.nodes) > 8 or any(n.qubits > 4 for n in net.nodes.values()):
        raise ValueError("oracle bounded to |V| <= 8 and Q_v <= 4")
    if s == t or s not in net.nodes or t not in net.nodes:
        raise ValueError("bad endpoints")
    phi0 = pseudo_fidelity(f0)
    best = None
    best_key = None
    for nodes in _simple_paths(net, s, t):
        edges = [net.edge(u, v) for u, v in zip(nodes, nodes[1:])]
        p_prod = 1.0
        for v in nodes[1:-1]:
            p_prod *= net.node(v).swap_prob
        need_lambda = q0 / p_prod
        q_s = net.node(nodes[0]).qubits
        q_t = net.node(nodes[-1]).qubits
        for ms in itertools.product(*(range(1, e.capacity + 1) for e in edges)):
            if ms[0] > q_s or ms[-1] > q_t:
                continue
            if any(
                a + b > net.node(v).qubits
                for v, a, b in zip(nodes[1:-1], ms, ms[1:])
            ):
                continue
            cost = sum(e.cost_of(m) for e, m in zip(edges, ms))
            key = (cost, len(nodes), tuple(map(str, nodes)), ms)
            if best_key is not None and key >= best_key:
                continue
            choice = _best_edge_choices(edges, ms, need_lambda)
            if choice is None:
                continue
            phis, picks = choice
            if sum(phis) < phi0 - _TOL:
                continue
            fids = [f for f, _, _ in picks]
            lams = [lam for _, lam, _ in picks]
            best = RoutePlan(
                nodes=list(nodes),
                pair_counts=list(ms),
                trees=[tree for _, _, tree in picks],
                edge_fidelities=fids,
                edge_throughputs=lams,
                fidelity=swap_fidelity(fids),
                throughput=min(lams) * p_prod,
                cost=cost,
                phi_hat=sum(phis),
                psi_hat=math.log(min(lams)) + math.log(p_prod),
            )
            best_key = key
    return best


def _best_edge_choices(edges, ms, need_lambda):
    """Per edge: the max-pseudo-fidelity exact schedule delivering at least
    need_lambda expected pairs, or None if some edge cannot."""
    phis = []
    picks = []
    for e, m in zip(edges, ms):
        sets = _fronts(m, e.fidelity)
        best_f, best_lam, best_tree = -1.0, 0.0, None
        for b in range(1, m + 1):
            for f, xi, tree in sets[b]:
                lam = xi / b * m
                if lam >= need_lambda - _TOL and f > best_f:
                    best_f, best_lam, best_tree = f, lam, tree
        if best_tree is None:
            return None
        phis.append(pseudo_fidelity(best_f))
        picks.append((best_f, best_lam, best_tree))
    return phis, picks
