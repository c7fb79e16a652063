"""Fidelity- and throughput-constrained min-cost entanglement paths.

Label-setting search over the auxiliary graph.  A label carries the path
cost, the bottleneck edge log-throughput, and two whole step counts: the
delta_phi steps of pseudo-fidelity budget charged (phi_units) and the
discretized path log-throughput over delta_psi (psi_units).  Per-edge
purification options come from per pair count m a memoized throughput
table, the immutable staircase of finished search steps (split index,
schedule, edge log-throughput) swept over the entries with b <= m of a
purification frontier of the edge's fidelity.  The frontier cache keeps
one entry per fidelity, grid and schedule mode, its largest build so far.
A table reads it when it was built at m or more pairs, and otherwise
builds at the least power of two >= m, or at the edge's budget
min(capacity, Q_u, Q_v) if that is smaller, and replaces it.  The entries
with b <= m of any build at m or more are the build at m (see _frontier),
so the table is a pure function of the edge and m whichever build it
reads.  Every search over a network shares its frontiers and tables, and
a search that reaches small pair counts only never builds the large
frontiers.  The search reads the table of each arc it walks, and builds
the arc record (m, k, edge, schedule) of a step only for a label it
admits.

The search starts from a single label at the top source copy.  Every
intermediate copy index is fixed by the allocation into it (j = Q_v - m),
and the top source copy reaches every arc a lower one does, so each
physical plan has exactly one auxiliary path and one label sequence.

Arc blocks.  The arcs out of a copy (u, i) into one neighbour w form a
block, built once per search and (u, w): w's pair counts m in the order
aux.pair_counts gives them (j ascending, so m descending), each with its edge
cost, computed for those m only.  The copy takes the block's suffix with m
<= i.  Its arcs share the path test, kmax, LB(w) and togo(w), so the block
is tested once.  EdgeSpec keeps cost_of nondecreasing in m, and float + and
max are monotone, so an arc's reach, max(parent's reach, cost + edge cost +
togo(w)), does not rise along the block: the arcs the cost cap cuts are its
first ones.  A scan back from the cheap end stops at the last arc cut, whose
reach is the least cut, and only the arcs after it are walked, in block
order.  So the same labels are pushed in the same order as by a walk of
every arc, and capped and pruned count the same arcs.  A candidate is
tested against its node's pool on its raw (cost, phi_units, psi_units, copy
index) before any label, arc record, path tuple or heap key is built.
They are exactly the values the label would carry, and the test reads
nothing else, so testing before the build admits and kills the same
labels as testing after it would; a rejected candidate just allocates
nothing.

Label pools.  Each original node, and the sink, has one pool: its alive
labels in insertion order.  A label d dominates x when d.cost <= x.cost +
_TOL, d.phi_units <= x.phi_units and d.psi_units >= x.psi_units, and it
counts against x at a copy index at least x's (a higher copy reaches
every arc a lower one does, at identical terms).  Under relaxed
dominance R, a candidate is admitted unless R pool labels count against
it, and a pool label dies once R do.  A killed label leaves its pool at
once; it keeps an alive flag only because the heap deletes lazily.

A candidate costs one newest-first pass over its pool (_scan), which
rejects at the R-th label that counts against it and otherwise collects
the labels it counts against.  Only a newcomer adds a dominator, and it
adds one only to the labels it collected, so rechecking those labels in
pool order (_admit: each recounted newest first, killed at R) is the rule
itself.  At R = 1 the newest label is the newcomer, so each recount stops
at its first label.  stats= reports the scans that rejected, the kills and
the dead labels popped.

The phi lower bound.  Before the search, one Dijkstra from t over the
physical network (_charge_to_sink) gives LB(v) in delta_phi steps: no path
the search can extend a label along from v to t charges less than LB(v)
steps.  A label meets phi0 when it carries at most room = floor(-phi0 /
delta_phi + 1e-9) steps, so one with u steps takes a step k (charged k -
1) into v only when k <= kmax - LB(v), kmax = room - u + 1.  Steps ascend
in k, so this caps each arc's k at no cost per step; stats= counts the
arcs whose cap it lowers (LB(v) > 0) as pruned.  Every step over an edge
has k >= c_e + 1, c_e being the edge's charge below, so a block with
kmax - LB(v) <= c_e has no step to take: it is skipped before any table is
built, and so is a block with kmax - LB(v) < 1.  The edges at s, which the
Dijkstra never weighs, are charged 0 here, so only the latter test skips
them and no ceiling is computed for them.  A dropped step carries u
+ k - 1 + LB(v) > room steps with its least completion, so it cannot reach
the sink.  Call a label at v safe when u + LB(v) <= room.  A label that can
complete is safe, and a safe label is never dropped.  The parent of a safe
label is safe (LB(u) is at most the edge's charge plus LB(v)), and so is
every label that dominates one: it carries no more steps.  The admission
and kill of a safe label depend only on the labels that dominate it.  So
the safe labels are admitted, killed and popped, in the same relative
order, as without the bound.  Sink labels are safe, so the sink pops and
plans are unchanged.

Each edge is charged c_e, the first k, less one, of _ceiling, a ceiling on
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
The arcs of a block the phi bound skips are neither cut nor let through:
they have no step to take in any pass, capped or not, so below "arc"
means an arc of a block the bound does not skip.
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
The passes share their arc memos and both Dijkstras; stats=
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
finds the same ones.  So it is admitted in both or neither, and it kills
the same low labels: a label dies when R labels dominate it, all of them
low.  A label that is not low reaches above T + gap in both searches, and
it dominates no low label.  This is where _TOL chains end: each link
lowers reach by at most gap, and none crosses the empty band above T.  So
the low labels are admitted, killed and popped alike.  The results are
low; a sink label that is not low costs more than T + _TOL, which is more
than any low one, so it pops later.  The first R sink pops, and so the
plans, are the uncapped search's.  The margin keeps the cut arcs, on costs
that differ by more than about 1e-9 relative, some thousand gaps above the
results, so T = top usually certifies a pass.

Budget accounting: an edge expanded at split index k demands per-edge
pseudo-fidelity -k*delta_phi but is charged only k - 1 steps against the
label's budget.  The round-down credit keeps the label of an exactly
feasible path alive (so cost never exceeds the true optimum) while
retained labels still certify phi_hat >= phi0 - |path|*delta_phi.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .auxgraph import VIRTUAL_SINK, AuxiliaryGraph
from .network import QuantumNetwork, _step
from .pair_algebra import (
    _purified_fidelity_raw,
    pseudo_fidelity,
    swap_fidelity,
)
from .purification import (
    _GRID_TOL,
    _pareto_sets,
    candidate_frontier,
    evaluate_tree,
    pumping_frontier,
    tree_to_json,
)

_TOL = 1e-12
_INF = math.inf
# the cost cap: arcs are cut above cap + _MARGIN*(1 + cap); _ROUND*(1 + c)
# bounds the float rounding of reaches near c (see the module docstring)
_MARGIN = 1e-9
_ROUND = 1e-12

# Bounds of the caches below.  They are keyed by float fidelities, so a
# long-lived process would otherwise grow them without limit; one search
# needs one frontier per edge fidelity and a table per (edge, m).
FRONTIER_CACHE_SIZE = 1024
TABLE_CACHE_SIZE = 8192
FRONTS_CACHE_SIZE = 256
# _ceilings is keyed by a whole network's edges, as a tuple of budgets and
# one of the edges' own fidelity floats: one entry per network and schedule
# mode (delta_phi is not in the key)
CEILINGS_CACHE_SIZE = 256
# _first_k is keyed by (f_hat, delta_phi); a route-compare pass of 96
# queries, in one process, asks for 2,957 distinct keys
FIRST_K_CACHE_SIZE = 4096

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
# the least delta_phi a search or table takes, discretization_steps' floor;
# far below it, at about 2**-53 of -pseudo_fidelity(f_hat), a unit step of
# k no longer changes k*delta_phi and _first_k's loops would not end
DELTA_PHI_MIN = 1e-12


def _frontier(budget: int, f_e: float, delta_f: float, delta_xi: float, mode: str) -> tuple:
    """The purification frontier of mode's schedule family, built at
    exactly budget pairs, uncached (the tables keep one build per edge
    fidelity in _frontier_slot).

    Its entries with b <= m equal a fresh build at m, entry for entry and
    in order: an entry with b leaves is built only from entries with at
    most b leaves, and only such entries can dominate it.  So one build at
    m or more pairs serves the table of m.
    """
    if mode == "optimal":
        return tuple(candidate_frontier(budget, f_e, delta_f, delta_xi))
    if mode == "pumping":
        return tuple(pumping_frontier(budget, f_e, delta_f, delta_xi))
    raise ValueError(f"unknown schedule mode {mode!r}")


@lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def _frontier_slot(f_e: float, delta_f: float, delta_xi: float, mode: str) -> list:
    """The frontier cache's one entry for an edge fidelity, grid and mode:
    a list holding the pair (size, _frontier(size, ...)), the largest build
    so far, or (0, ()) until edge_throughput_table fills it.  A table reads
    the pair once and replaces it whole, so a thread sweeps a build of its
    own m or more pairs even while another stores a different one."""
    return [(0, ())]


@lru_cache(maxsize=FIRST_K_CACHE_SIZE)
def _first_k(f_hat: float, delta_phi: float) -> int:
    """Least k >= 1 whose threshold f_hat meets by best_entry's test, by
    unit steps from the closed-form estimate (the test is monotone in k).

    The threshold of k is inverse_pseudo_fidelity(-k * delta_phi) by that
    function's float expression without its domain check, which -k *
    delta_phi < 0 always passes, so every k is the one the checked call
    gives.  Memoized: f_hat values are delta_f-grid multiples that many
    edges and frontiers share (a route-compare pass of 96 queries asks for
    15,861 first k of 2,957 distinct arguments).
    """

    def meets(k):
        return not f_hat < 0.25 * (1.0 + 3.0 * math.exp(min(-k * delta_phi, 0.0))) - _GRID_TOL

    k = max(1, math.ceil(-pseudo_fidelity(f_hat) / delta_phi))
    while k > 1 and meets(k - 1):
        k -= 1
    while not meets(k):
        k += 1
    return k


@lru_cache(maxsize=FRONTIER_CACHE_SIZE)
def _ceiling(budget: int, f_e: float, delta_f: float, mode: str) -> float:
    """A ceiling g[budget] on the f_hat of every entry of _frontier(budget,
    f_e, delta_f, delta_xi, mode), for any delta_xi, built without a
    frontier; so _first_k(g[budget], delta_phi) - 1 is a lower bound on the
    phi charge k - 1, in units of delta_phi, of every table step of an edge
    at budget.

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

    def up(f):
        return min(math.ceil((f + 1e-12) / delta_f) * delta_f, 1.0)

    if mode == "optimal":
        g = [math.nan, f_e]
        for i in range(2, budget + 1):
            merged = max(map(_purified_fidelity_raw, g[1 : i // 2 + 1], g[i - 1 : (i - 1) // 2 : -1]))
            g.append(max(g[i - 1], up(merged)))
        return g[budget]
    top = cur = f_e
    for _ in range(budget - 1):
        cur = up(_purified_fidelity_raw(cur, f_e))
        top = max(top, cur)
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
    else:
        for i in range(2, len(g)):
            g[i] = up(_purified_fidelity_raw(g[i - 1], g[1]))
        np.maximum.accumulate(g[1:], axis=0, out=g[1:])
    return tuple(g[budgets, np.arange(len(budgets))].tolist())


def _edge_budget(net: QuantumNetwork, edge) -> int:
    """The most pairs any arc over edge allocates: min(capacity, Q_u, Q_v)."""
    return min(edge.capacity, net.node(edge.u).qubits, net.node(edge.v).qubits)


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
) -> tuple:
    """LB(v) for every node v != s with LB(v) <= limit: the least sum of
    the edge charges c_e = _first_k(_ceiling(budget, ...), delta_phi) - 1
    over the edges of any v-t path that avoids s.  The search never enters
    s, and the bound ignores copy indices and simplicity, so no path it can
    extend a label along from v to t charges less than LB(v)*delta_phi.  A
    network large by _BATCH_SIZE's rule takes its ceilings from one
    _ceilings batch, the same floats.

    Returns LB and c_e by id(edge) for every edge the Dijkstra weighed:
    each edge with an end that has an LB and no end at s."""
    budgets = [_edge_budget(net, e) for e in net.edges]
    per_level = 29 + (max(budgets, default=0) if mode == "optimal" else 0)
    if len(budgets) * per_level > _BATCH_SIZE:
        tops = _ceilings(tuple(budgets), tuple(e.fidelity for e in net.edges), delta_f, mode)
        top_of = dict(zip(map(id, net.edges), tops))

        def ceiling(edge):
            return top_of[id(edge)]

    else:
        # only for the edges _to_sink weighs (none into s): one ceiling at
        # budget 39 takes ~0.19 ms on a 2-vCPU Xeon

        def ceiling(edge):
            return _ceiling(_edge_budget(net, edge), edge.fidelity, delta_f, mode)

    charges: dict = {}

    def charge(edge):
        charges[id(edge)] = c = _first_k(ceiling(edge), delta_phi) - 1
        return c

    return _to_sink(net, s, t, limit, charge), charges


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


def _check_delta_phi(delta_phi) -> None:
    if not _step(delta_phi):
        raise ValueError(f"delta_phi={delta_phi!r} must be a finite number > 0 with a finite reciprocal")
    if delta_phi < DELTA_PHI_MIN:
        raise ValueError(f"delta_phi={delta_phi!r} is below the least step {DELTA_PHI_MIN!r}")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def edge_throughput_table(
    edge_budget: int,
    m: int,
    f_e: float,
    delta_phi: float,
    delta_f: float,
    delta_xi: float,
    mode: str,
) -> tuple:
    """Throughput table of an edge of fidelity f_e and budget edge_budget
    (the most pairs any arc over it allocates) at pair count m: the
    staircase of (k, entry, psi_e) steps worth expanding, ascending in k,
    psi_e being log(entry.ratio() * m).

    At split index k the edge must reach pseudo-fidelity -k*delta_phi and
    takes best_entry's pick at that threshold.  A step is kept when its
    ratio xi_hat/b beats the previous step's; a label at any other k is
    dominated by the step before it (same cost and throughput, less budget
    left).  The staircase ends at the raw pair (ratio 1, which no purified
    entry reaches).

    The frontier is the build f_e's cache entry (_frontier_slot) holds when
    it has m or more pairs, and otherwise a new build at the least power of
    two >= m, or at edge_budget if that is smaller, which replaces it.  Its
    entries with b <= m are the frontier of m (see _frontier), so any size
    >= m gives the same staircase; the others are dropped before any first
    k is taken.  An entry meets the threshold of k exactly when k is at
    least its first k (the test is monotone in k), so the pick can change
    only at some entry's first k.  The frontier is sorted by f_hat
    ascending and a larger f_hat has a first k no larger, so swept in
    reverse its entries come in first-k order.  The sweep keeps a running
    pick by best_entry's rule and closes a step candidate at the end of
    each first-k group.  That is best_entry's pick over the whole
    qualifying set, because the rule's pick does not depend on the order it
    meets the entries in: yields are multiples of delta_xi, so ratios
    within _GRID_TOL of each other are equal (distinct ones differ by about
    delta_xi/b^2 or more), and a frontier holds no two entries with equal b
    and ratio (one would dominate the other).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if edge_budget < m:
        raise ValueError(f"edge_budget {edge_budget} is below m {m}")
    _check_delta_phi(delta_phi)
    slot = _frontier_slot(f_e, delta_f, delta_xi, mode)
    size, frontier = slot[0]
    if size < m:
        size = min(edge_budget, 1 << (m - 1).bit_length())
        frontier = _frontier(size, f_e, delta_f, delta_xi, mode)
        slot[0] = size, frontier
    entries = [e for e in reversed(frontier) if e.b <= m]
    steps: list = []
    best = None
    best_ratio = last_ratio = -_INF
    for k, group in itertools.groupby(entries, key=lambda e: _first_k(e.f_hat, delta_phi)):
        for e in group:
            # best_entry's rule (purification._prefer)
            ratio = e.ratio()
            if ratio > best_ratio + _GRID_TOL or (
                abs(ratio - best_ratio) <= _GRID_TOL
                and (e.b < best.b or (e.b == best.b and e.f_hat > best.f_hat + _GRID_TOL))
            ):
                best, best_ratio = e, ratio
        if best_ratio > last_ratio + _GRID_TOL:
            steps.append((k, best, math.log(best_ratio * m)))
            last_ratio = best_ratio
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
        """Every field in declaration order, the trees as JSON lists."""
        return {**vars(self), "trees": [tree_to_json(t) for t in self.trees]}


class _Label:
    __slots__ = (
        "cost", "phi_units", "psi_b", "psi_units", "path", "pkey", "vertex", "copy", "parent", "arc",
        "alive", "reach",
    )

    def __init__(self, cost, phi_units, psi_b, psi_units, path, pkey, vertex, copy, parent, arc, reach=0.0):
        self.cost = cost
        self.phi_units = phi_units  # delta_phi steps charged: the credit is -phi_units*delta_phi
        self.psi_b = psi_b
        self.psi_units = psi_units  # psi_hat / delta_psi (unused at the root)
        self.path = path
        self.pkey = pkey  # heap tie-break: tuple(map(str, path))
        self.vertex = vertex
        self.copy = copy  # remaining-qubit copy index; the sink counts as copy 0
        self.parent = parent
        self.arc = arc  # (m, k, edge, schedule entry) of the arc into vertex
        self.alive = True
        self.reach = reach  # lower bound on the cost of every completion


def _scan(pool: list, cost: float, phi_units: int, psi_units: int, copy: int, R: int):
    """One newest-first pass over a pool for a candidate's values.

    Returns None at the R-th label at copy index copy or higher that
    dominates (cost, phi_units, psi_units).  Otherwise returns the labels at
    copy index <= copy that the values dominate, in pool order.  Costs
    equal within _TOL dominate both ways.
    """
    tol = _TOL
    cost_hi = cost + tol
    count = 0
    beaten = []
    for e in reversed(pool):
        e_cost = e.cost
        if e_cost <= cost_hi and e.phi_units <= phi_units and e.psi_units >= psi_units and e.copy >= copy:
            count += 1
            if count >= R:
                return None
        if cost <= e_cost + tol and phi_units <= e.phi_units and psi_units >= e.psi_units and e.copy <= copy:
            beaten.append(e)
    beaten.reverse()
    return beaten


def _admit(pool: list, lab: _Label, beaten: list, R: int) -> int:
    """Append lab, whose _scan found the labels beaten, to its pool; kill
    the labels that now have R alive dominators and return how many there
    were.

    Each label of beaten, in pool order, is recounted: the other pool labels
    at its copy index or higher that dominate it, newest first up to R.  At
    R it is killed and leaves the pool.
    """
    pool.append(lab)
    killed = 0
    for e in beaten:
        cost_hi = e.cost + _TOL
        phi_units = e.phi_units
        psi_units = e.psi_units
        copy = e.copy
        count = 0
        for x in reversed(pool):
            if (
                x.cost <= cost_hi
                and x.phi_units <= phi_units
                and x.psi_units >= psi_units
                and x.copy >= copy
                and x is not e
            ):
                count += 1
                if count >= R:
                    e.alive = False
                    pool.remove(e)
                    killed += 1
                    break
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


def _least_steps(lo: float, step: float):
    """The least integer n with n*step >= lo in floats (monotone in n); the
    quotient's ceiling is at most one off.  An infinite or nan quotient is
    returned as is: n < inf always holds, n < -inf or nan never."""
    n = lo / step
    if math.isfinite(n):
        n = math.ceil(n)
        n -= (n - 1) * step >= lo
        n += n * step < lo
    return n


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
    if not -_INF < phi0 <= _TOL:
        raise ValueError(f"phi0={phi0!r} must be finite and <= 0")
    if math.isnan(psi0):
        raise ValueError("psi0 must not be nan")
    _check_delta_phi(delta_phi)
    for name, step in (("delta_psi", delta_psi), ("delta_f", delta_f), ("delta_xi", delta_xi)):
        if not _step(step):
            raise ValueError(f"{name}={step!r} must be a finite number > 0 with a finite reciprocal")
    if R < 1:
        raise ValueError("R must be >= 1")
    if mode not in ("optimal", "pumping"):
        raise ValueError(f"unknown schedule mode {mode!r}")
    net = aux.net
    # per-search memos, shared by every pass: (u, w) -> the block of arcs
    # from a copy of u into w, as (w, (str(w),), Q_w, edge, the edge's
    # budget, pair counts descending, their edge costs, psi_w, LB(w),
    # togo(w), c_e); vertex -> its nonempty slices, a block and the index
    # where the slice starts
    block_memo: dict = {}
    arc_memo: dict = {}
    # a label meets phi0 while it carries at most room delta_phi steps, and
    # psi0 while its psi_hat is at least psi_min delta_psi steps
    room = -phi0 / delta_phi + 1e-9
    if room == _INF:
        raise ValueError(f"phi0={phi0!r} over delta_phi={delta_phi!r} overflows the step count")
    room = math.floor(room)
    psi_min = _least_steps(psi0 - _TOL, delta_psi)
    # no label carries fewer steps than the root's 0, so none can use an
    # LB(v) above room; such nodes are left out, as if unreachable
    to_sink, charges = _charge_to_sink(net, aux.s, aux.t, room, delta_phi, delta_f, mode)
    togo = _cost_to_sink(aux)

    def block_of(u, w):
        edge = net.edge(u, w)
        ms = aux.pair_counts(u, w)
        psi_w = 0.0 if w == aux.t else math.log(net.node(w).swap_prob)
        return (
            w, (str(w),), net.node(w).qubits, edge, _edge_budget(net, edge), ms,
            tuple(map(edge.cost_of, ms)), psi_w,
            to_sink.get(w, _INF), togo.get(w, _INF), charges.get(id(edge), 0),
        )

    def arcs_of(vertex):
        u, i = vertex
        arcs = []
        for w in net.neighbors(u):
            if w == aux.s:
                continue
            block = block_memo.get((u, w))
            if block is None:
                block = block_memo[u, w] = block_of(u, w)
            # (u, i) takes the suffix with m <= i (m descends along the block)
            ms = block[5]
            start = sum(m > i for m in ms)
            if start < len(ms):
                arcs.append((*block, start))
        return arcs

    cap = togo.get(aux.s, _INF)  # no first arc reaches less
    source_copies = aux.copy_indices(aux.s)
    pushed_all = 0  # over every pass; the other counts describe the final pass
    for passes in itertools.count(1):
        pools: dict = {}
        counter = itertools.count()
        heap: list = []
        pushed_at: dict = {}
        expanded_at: dict = {}
        rejected = killed = dead_pops = pruned = capped = 0
        least_cut = _INF  # the least reach the cap cut
        reaches = []  # the reach of every arc the cap let through
        limit = cap + _MARGIN * (1 + cap)
        if source_copies:
            top = max(source_copies)
            root = _Label(0.0, 0, _INF, 0, (aux.s,), (str(aux.s),), (aux.s, top), top, None, None)
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
            cost, phi_units, psi_units, psi_b = lab.cost, lab.phi_units, lab.psi_units, lab.psi_b
            reach0 = lab.reach
            path = lab.path
            depth = len(path)
            if vertex[0] == aux.t:
                # the one arc out of a sink copy: a zero-cost hop into the sink
                sink = VIRTUAL_SINK
                pool = pools.setdefault(sink, [])
                beaten = _scan(pool, cost, phi_units, psi_units, 0, R)
                if beaten is None:
                    rejected += 1
                    continue
                new = _Label(cost, phi_units, psi_b, psi_units, path, lab.pkey, sink, 0, lab, None, reach0)
                killed += _admit(pool, new, beaten, R)
                heapq.heappush(heap, (cost, depth - 1, new.pkey, next(counter), new))
                pushed_at[sink] = pushed_at.get(sink, 0) + 1
                if len(pool) >= R and cap < _INF:
                    # from now on the pass returns R results (see the
                    # module docstring); an infinite cap never drops
                    cap = min(cap, sorted(e.cost for e in pool)[R - 1])
                    limit = cap + _MARGIN * (1 + cap)
                continue
            kmax = room - phi_units + 1  # k <= kmax keeps phi_units + k - 1 <= room
            arcs = arc_memo.get(vertex)
            if arcs is None:
                arcs = arc_memo[vertex] = arcs_of(vertex)
            for key, pkey_v, q_v, edge, budget, ms, costs, psi_v, lb, g, c_e, start in arcs:
                if key in path:
                    continue
                kcap = kmax - lb  # a larger k cannot reach t (see the module docstring)
                if kcap < kmax:
                    pruned += len(ms) - start
                if kcap <= c_e:
                    continue  # every step over the edge has k > c_e
                # reaches do not rise along a block, so the arcs the cap cuts
                # are its first ones: scan back from the cheap end to the
                # last one cut, the least reach cut
                first = len(ms)
                while first > start:
                    reach = cost + costs[first - 1] + g
                    if reach < reach0:
                        reach = reach0
                    if reach > limit:
                        capped += first - start
                        if reach < least_cut:
                            least_cut = reach
                        break
                    first -= 1
                psi_base = psi_v + psi_units * delta_psi
                pool = pools.get(key)
                for a in range(first, len(ms)):
                    m = ms[a]
                    cost2 = cost + costs[a]
                    reach = cost2 + g
                    if reach < reach0:
                        reach = reach0
                    reaches.append(reach)
                    steps = edge_throughput_table(
                        budget, m, edge.fidelity, delta_phi, delta_f, delta_xi, mode
                    )
                    j = q_v - m
                    for k, entry, psi_e in steps:
                        if k > kcap:
                            break
                        # the path log-throughput in delta_psi steps, rounded up; psi_base
                        # is the first partial sum of psi_v + psi_hat + psi_e - psi_b, so
                        # each value is the float that summing left to right gives
                        if psi_b == _INF:
                            psi_units2 = math.ceil((psi_v + psi_e) / delta_psi - 1e-9)
                        elif psi_e <= psi_b:
                            psi_units2 = math.ceil((psi_base + psi_e - psi_b) / delta_psi - 1e-9)
                        else:
                            psi_units2 = math.ceil(psi_base / delta_psi - 1e-9)
                        if psi_units2 < psi_min:
                            continue
                        phi_units2 = phi_units + k - 1
                        if pool is None:
                            pool = pools[key] = []
                        beaten = _scan(pool, cost2, phi_units2, psi_units2, j, R)
                        if beaten is None:
                            rejected += 1
                            continue
                        head = (key, j)
                        new = _Label(
                            cost2,
                            phi_units2,
                            psi_b if psi_b < psi_e else psi_e,
                            psi_units2,
                            path + (key,),
                            lab.pkey + pkey_v,
                            head,
                            j,
                            lab,
                            (m, k, edge, entry),
                            reach,
                        )
                        killed += _admit(pool, new, beaten, R)
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
        alive: dict = {}
        for pool in pools.values():
            for e in pool:
                alive[e.vertex] = alive.get(e.vertex, 0) + 1
        stats["pushed"] = sum(pushed_at.values())
        stats["pushed_all_passes"] = pushed_all
        stats["expanded"] = sum(expanded_at.values())
        stats["pushed_per_vertex"] = pushed_at
        stats["expanded_per_vertex"] = expanded_at
        stats["alive_per_vertex"] = alive
        stats["rejected"] = rejected
        stats["killed"] = killed
        stats["dead_pops"] = dead_pops
        stats["pruned"] = pruned
        stats["capped"] = capped
        stats["passes"] = passes
        stats["cap"] = cap
    return results


def _plan_from_label(aux: AuxiliaryGraph, lab: _Label, delta_phi: float, delta_psi: float) -> RoutePlan:
    """The plan of a sink label: phi_hat is 0.0 less (k - 1)*delta_phi per
    arc in path order, less |arcs|*delta_phi, and psi_hat psi_units*delta_psi."""
    arcs = []
    cur = lab
    while cur is not None:
        if cur.arc is not None:
            arcs.append(cur.arc)
        cur = cur.parent
    arcs.reverse()
    nodes = list(lab.path)
    pair_counts, trees, fids, lams = [], [], [], []
    phi_hat = 0.0
    for m, k, edge, entry in arcs:
        phi_hat -= (k - 1) * delta_phi
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
        phi_hat=phi_hat - len(arcs) * delta_phi,
        psi_hat=lab.psi_units * delta_psi,
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
    return _plan_from_label(aux, found[0], delta_phi, delta_psi)


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
    return [_plan_from_label(aux, lab, delta_phi, delta_psi) for lab in found]


def discretization_steps(aux: AuxiliaryGraph, phi0: float, psi0: float, eps: float):
    """Step sizes for an eps-optimal search: delta_phi = eps|phi0|/|V| and
    delta_psi = eps * (psi value range) / |V|.

    The range substitutes for |psi0| because the throughput threshold is
    commonly 1 (psi0 = 0), which would make the literal rule vacuous."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_nodes = len(aux.net.nodes)
    delta_phi = max(eps * abs(phi0) / n_nodes, DELTA_PHI_MIN)
    psi_max = 0.0
    for e in aux.net.edges:
        m = _max_allocation(aux, e)
        if m >= 1:
            psi_max = max(psi_max, math.log(m))
    psi_range = max(psi_max - psi0, 1e-6)
    delta_psi = max(eps * psi_range / n_nodes, 1e-12)
    return delta_phi, delta_psi


def _max_allocation(aux: AuxiliaryGraph, edge) -> int:
    """Largest pair count any auxiliary arc realizes over this edge: per
    direction, the first of aux.pair_counts (m descending) that the tail's
    top copy can allocate."""
    best = 0
    for tail, head in ((edge.u, edge.v), (edge.v, edge.u)):
        copies = aux.copy_indices(tail)
        if head != aux.s and tail != aux.t and copies:
            best = max(best, next((m for m in aux.pair_counts(tail, head) if m <= copies[-1]), 0))
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
