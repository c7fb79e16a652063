"""Single-hop purification scheduling.

A purification schedule is a binary tree: leaves are elementary pairs of a
common fidelity f_e, and each internal node purifies its two children into
one pair.  The scheduler builds a discretized candidate list of trees and
returns the one maximizing yield-per-input-pair subject to a fidelity
threshold; an exhaustive tree enumeration serves as the desk-scale oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .network import _step
from .pair_algebra import purification_success_prob, purified_fidelity

# A tree is either the LEAF sentinel or a (left, right) tuple of trees.
LEAF = "L"

_BRUTE_FORCE_MAX_N = 10

# The most pairs purify --n and purify-compare schedule one link over.  A
# pumping tree of n pairs is n - 1 levels deep: folding its text and the
# scheduler's min_leaves both take O(n^2), and json.dumps walks its nested
# lists recursively (RecursionError near 1,000).
PAIRS_MAX = 512

# Grid-comparison slack: discretized values are multiples of delta computed in
# floating point, so equality checks need a hair of tolerance.
_GRID_TOL = 1e-12

# The least delta_f and delta_xi the scheduler takes.  At or above it, and
# with b <= PAIRS_MAX, grid values that differ and ratios xi_hat/b that
# differ do so by more than _GRID_TOL, which the yield-per-pair bound of
# _merge_frontier needs.
STEP_MIN = 1e-6


def _fold(tree, leaf, merge):
    """The value of tree, each leaf valued leaf and each merge node
    merge(left value, right value): what the recursion on the tree's shape
    returns, left subtree first, but walked with an explicit stack, so a
    pumping chain of n pairs (n - 1 levels deep) needs no n stack frames.

    A subtree that occurs more than once (the scheduler's trees share their
    subtrees) is valued once, by its id, and its value reused: the same
    value the recursion computes again for it, so the result is the same.
    """
    if tree == LEAF:
        return leaf
    value = {}
    stack = [tree]
    while stack:
        t = stack[-1]
        left, right = t
        a = leaf if left == LEAF else value.get(id(left))
        b = leaf if right == LEAF else value.get(id(right))
        if a is None:
            stack.append(left)
        elif b is None:
            stack.append(right)
        else:
            value[id(t)] = merge(a, b)
            stack.pop()
    return value[id(tree)]


def leaf_count(tree) -> int:
    return _fold(tree, 1, int.__add__)


def evaluate_tree(tree, f_e: float) -> tuple[float, float]:
    """Exact (fidelity, yield) of a schedule tree, no discretization.

    Yield of a leaf is 1; a merge multiplies the purification success
    probability by the smaller child yield.
    """

    def merge(left, right):
        (f1, x1), (f2, x2) = left, right
        return purified_fidelity(f1, f2), purification_success_prob(f1, f2) * min(x1, x2)

    return _fold(tree, (f_e, 1.0), merge)


def tree_success_prob(tree, f_e: float) -> float:
    """Probability that every purification in a single run of the tree
    succeeds (one-shot semantics, no min-yield accounting)."""

    def merge(left, right):
        # (fidelity, success probability) of a subtree, in one pass
        (f1, p_left), (f2, p_right) = left, right
        return purified_fidelity(f1, f2), purification_success_prob(f1, f2) * p_left * p_right

    return _fold(tree, (f_e, 1.0), merge)[1]


def tree_to_text(tree) -> str:
    return _fold(tree, "L", lambda left, right: f"({left},{right})")


def tree_to_json(tree):
    """JSON-ready form: leaves are the string "L", merges are 2-element
    lists; a subtree that occurs more than once is one list, shared."""
    return _fold(tree, "L", lambda left, right: [left, right])


def _check_budget(n: int, f_e: float) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.5 <= f_e <= 1.0 + _GRID_TOL:
        raise ValueError(f"f_e={f_e!r} outside [0.5, 1]")


def _check_step(name: str, step) -> None:
    if not (_step(step) and step < 1.0):
        raise ValueError(f"{name}={step!r} must lie in (0, 1) and have a finite reciprocal")
    if step < STEP_MIN:
        raise ValueError(f"{name}={step!r} is below the least step {STEP_MIN!r}")


def _check_threshold(f_theta: float) -> None:
    if not 0.25 < f_theta <= 1.0 + _GRID_TOL:
        raise ValueError(f"f_theta={f_theta!r} outside (0.25, 1]")


@dataclass
class SchedulerConfig:
    n: int
    f_e: float
    f_theta: float
    delta_f: float = 1e-4
    delta_xi: float = 1e-4

    def __post_init__(self):
        _check_budget(self.n, self.f_e)
        if self.n > PAIRS_MAX:
            raise ValueError(f"n={self.n!r} is above the pair bound {PAIRS_MAX}")
        _check_threshold(self.f_theta)
        _check_step("delta_f", self.delta_f)
        _check_step("delta_xi", self.delta_xi)


@dataclass(slots=True)
class ScheduleEntry:
    """Candidate-list quadruple: leaf count, discretized fidelity and yield,
    and the tree that realizes them."""

    b: int
    f_hat: float
    xi_hat: float
    tree: object

    def ratio(self) -> float:
        return self.xi_hat / self.b


def _best_schedules(n: int, f_e: float):
    """Yield (gamma_i, tree attaining it) for i = 1..n, where gamma_i is the
    best fidelity of any tree with at most i leaves.  Merging
    fidelity-optimal subtrees is optimal because the merge map is
    increasing in both child fidelities."""
    _check_budget(n, f_e)
    gamma, trees = [math.nan, f_e], [None, LEAF]
    yield f_e, LEAF
    for i in range(2, n + 1):
        best, pick = f_e, LEAF
        for k in range(1, i // 2 + 1):
            cand = purified_fidelity(gamma[k], gamma[i - k])
            if best < cand:
                best, pick = cand, (trees[k], trees[i - k])
        gamma.append(best)
        trees.append(pick)
        yield best, pick


def max_fidelity_schedule(n: int, f_e: float) -> tuple[object, float]:
    """Tree attaining the best fidelity of any tree with at most n pairs,
    and that fidelity."""
    *_, (f, tree) = _best_schedules(n, f_e)
    return tree, f


def min_leaves(n: int, f_e: float, f_theta: float) -> Optional[int]:
    """Smallest leaf budget whose best fidelity reaches f_theta, or None;
    the table is built only up to that budget."""
    for i, (f, _) in enumerate(_best_schedules(n, f_e), 1):
        if f >= f_theta - _GRID_TOL:
            return i
    return None


def _ceil_to_grid(x: float, delta: float) -> float:
    # guard against x/delta landing epsilon above an integer
    return math.ceil(x / delta - 1e-9) * delta


def _merge_frontier(
    bound: int,
    f_e: float,
    delta_f: float,
    delta_xi: float,
    trace: Optional[list] = None,
    f_theta: Optional[float] = None,
) -> list[ScheduleEntry]:
    """Dominance-filtered candidate list over all trees with at most bound
    leaves, in merge order (unsorted).

    Rounds are semi-naive: each round merges, in (i1 <= i2) order, only the
    pairs of its snapshot in which at least one entry was not in the
    previous round's snapshot, and the loop stops when a snapshot holds no
    new entry (or after bound rounds).  This gives the same list as
    re-merging every pair each round: an old-by-old pair was merged in the
    previous round, where its candidate was kept or rejected by a
    dominator; an entry leaves the list only when a newcomer dominates it,
    so a dominator of that candidate is always present, the candidate
    would be rejected again, and a rejected insert changes nothing.

    Entries are (b, f_hat, xi_hat, tree, round) tuples until the end,
    round being the round that admitted the entry (-1 for the leaf).  An
    entry was in the previous snapshot exactly when it was admitted two or
    more rounds back; kept candidates are appended and removals keep
    order, so those old entries are the snapshot's first `old`.  A partner
    whose leaves do not fit the bound is passed over before any other
    work, and a candidate is computed from the raw maps, their operands in
    the same order (10.0*f1 once per entry, then *f2), and tested for
    dominance before any entry is built.  The checked maps only add a
    domain check to the same expressions, and every f_hat lies in [f_e,
    1] up to the grid rounding (the merge map is increasing in both
    arguments and fixes 0.5 and 1), inside the checked domain [0.25, 1];
    so the floats are the same and the checks could never fire.

    Given f_theta, the loop keeps best, the largest ratio xi_hat/b of an
    admitted entry with f_hat >= f_theta - _GRID_TOL, and drops a
    candidate whose ratio is below best - _GRID_TOL before its dominance
    test and before its f_hat is computed; with no f_theta nothing
    qualifies, best stays -inf and nothing is dropped.  The pick that
    best_entry(list, f_theta) makes is then the one it makes on the
    unpruned list: the same b, f_hat and xi_hat bits and the same tree.

    A merge lowers the ratio: xi_3 rounds P*min(xi_1, xi_2) up to the
    delta_xi grid, P <= 1, and the smaller child yield is itself on that
    grid (or is 1.0, the cap), so the rounding cannot pass it; with b_3 >
    b_1, b_2, xi_3/b_3 is below both children's ratios.  This needs of
    delta_xi one grid for every yield, and a step of at least STEP_MIN
    (at most a million steps to 1), so that the ceiling's 1e-9 guard
    absorbs the float error of the product.  The proof also reads each
    comparison within _GRID_TOL as exact, as best_entry's tie rule does:
    two f_hat, two xi_hat or two ratios the loop compares are equal or
    more than _GRID_TOL apart.  Distinct grid values differ by about a
    step and distinct ratios by about delta_xi/b^2, both more than
    _GRID_TOL for steps of at least STEP_MIN and b <= PAIRS_MAX, which
    SchedulerConfig enforces.

    Let X be best - _GRID_TOL at the end; best only rises, so every
    dropped candidate has a ratio below X.  Call an entry high when its
    ratio is X or more.  (1) A candidate that rejects or removes an entry
    has no more leaves and, comparisons being exact, no lower yield, so
    that entry's ratio is no higher than the candidate's: a dropped
    candidate, like any entry below X, would reject or remove only
    entries below X.  (2) By induction over the candidates in merge order,
    the high entries of the two loops are the same (bits and tree), carry
    the same round stamps and stand in the same order.  A high candidate's
    parents are high, so both loops merge it in the same round and at the
    same place among the high pairs; it is not dropped; by (1) only high
    entries can reject it, so both loops keep or reject it alike, and its
    admit removes the same high entries.  The entries the loops differ in
    are below X and by (1) reject or remove no high entry; a round that
    one loop runs after the other has stopped merges a newcomer below X
    into each of its candidates, so they are below X too.  (3) The entry
    that last raised best is high and qualifies; a candidate that removes
    it has no lower ratio and no lower f_hat, so it qualifies in turn, and
    the final list holds a qualifying entry of ratio best or more.  Every
    entry below X is more than _GRID_TOL under it, so best_entry's pick
    lies among the qualifying high entries, the same in both lists and in
    the same order: the same pick.

    When trace is a list, every merged pair's candidate is appended to it
    as (entry, kept), kept being None for a dropped one, then ("final",
    entries).
    """
    entries: list = [(1, f_e, 1.0, LEAF, -1)]
    # with no threshold no entry qualifies: best stays -inf, and cut with it
    qualify = math.inf if f_theta is None else f_theta - _GRID_TOL
    best = 1.0 if f_e >= qualify else -math.inf
    cut = best - _GRID_TOL
    for r in range(bound):
        snapshot = entries[:]
        old = sum(e[4] < r - 1 for e in snapshot)
        if old == len(snapshot):
            break
        new = snapshot[old:]
        for i1, (b1, f1, xi1, t1, _) in enumerate(snapshot):
            fit = bound - b1
            # the raw maps' subterms in l1 alone, for every partner
            f10, f8, f2x, p8 = 10.0 * f1, 8.0 * f1, 2.0 * f1, (8.0 / 9.0) * f1
            for l2 in new if i1 <= old else snapshot[i1:]:
                if l2[0] > fit:
                    continue
                b2, f2, xi2, t2, _ = l2
                b3 = b1 + b2
                # min(_ceil_to_grid(...), 1.0) of _purification_success_raw
                # times min(xi1, xi2) and of _purified_fidelity_raw, the
                # min()s written out; the yield first, for the bound
                xi3 = (p8 * f2 - (2.0 / 9.0) * (f1 + f2) + 5.0 / 9.0) * (xi2 if xi2 < xi1 else xi1)
                xi3 = math.ceil(xi3 / delta_xi - 1e-9) * delta_xi
                if xi3 > 1.0:
                    xi3 = 1.0
                ratio = xi3 / b3
                if ratio < cut:
                    # only the trace record needs f_hat; the checked map
                    # gives the raw map's float
                    if trace is not None:
                        f3 = min(_ceil_to_grid(purified_fidelity(f1, f2), delta_f), 1.0)
                        trace.append((ScheduleEntry(b3, f3, xi3, (t1, t2)), None))
                    continue
                f3 = (f10 * f2 - f1 - f2 + 1.0) / (f8 * f2 - f2x - 2.0 * f2 + 5.0)
                f3 = math.ceil(f3 / delta_f - 1e-9) * delta_f
                if f3 > 1.0:
                    f3 = 1.0
                # the dominance test, then the admit, which drops what the
                # candidate dominates
                f_low, xi_low = f3 - _GRID_TOL, xi3 - _GRID_TOL
                for e in reversed(entries):
                    if e[0] <= b3 and e[1] >= f_low and e[2] >= xi_low:
                        kept = False
                        break
                else:
                    kept = True
                    entries = [
                        e
                        for e in entries
                        if not (b3 <= e[0] and f3 >= e[1] - _GRID_TOL and xi3 >= e[2] - _GRID_TOL)
                    ]
                    entries.append((b3, f3, xi3, (t1, t2), r))
                    if f3 >= qualify and ratio > best:
                        best, cut = ratio, ratio - _GRID_TOL
                if trace is not None:
                    trace.append((ScheduleEntry(b3, f3, xi3, (t1, t2)), kept))
    final = [ScheduleEntry(b, f, xi, tree) for b, f, xi, tree, _ in entries]
    if trace is not None:
        trace.append(("final", list(final)))
    return final


def _prefer(e: ScheduleEntry, best: Optional[ScheduleEntry]) -> bool:
    """best_entry's pick rule: whether e displaces the pick so far.  A
    higher ratio xi_hat/b wins; ties (within _GRID_TOL) prefer fewer
    leaves, then higher f_hat."""
    if best is None or e.ratio() > best.ratio() + _GRID_TOL:
        return True
    return abs(e.ratio() - best.ratio()) <= _GRID_TOL and (
        e.b < best.b or (e.b == best.b and e.f_hat > best.f_hat + _GRID_TOL)
    )


def best_entry(entries, f_theta: float) -> Optional[ScheduleEntry]:
    """The entry with discretized fidelity >= f_theta maximizing xi_hat/b;
    ties (within _GRID_TOL) prefer fewer leaves, then higher f_hat, and
    otherwise the first in scan order.  None when no entry qualifies."""
    best: Optional[ScheduleEntry] = None
    for e in entries:
        if not e.f_hat < f_theta - _GRID_TOL and _prefer(e, best):
            best = e
    return best


def schedule(cfg: SchedulerConfig, trace: Optional[list] = None) -> Optional[ScheduleEntry]:
    """Discretized candidate-list search for the max yield-per-pair schedule.

    Returns the entry with discretized fidelity >= f_theta maximizing
    xi_hat/b (ties: smaller b, then higher f_hat), or None when the
    threshold is unreachable with n pairs.  The merge loop takes f_theta
    and drops every candidate whose xi_hat/b is more than _GRID_TOL below
    the best qualifying entry so far; no merge of it could be the pick, so
    the pick is the one the unpruned list gives (see _merge_frontier).

    When trace is a list, one (entry, kept) record per distinct pair merged
    is appended to it, kept being None for a candidate that bound dropped,
    then ("final", entries), so tests can audit the dominance pruning and
    the bound.
    """
    nprime = min_leaves(cfg.n, cfg.f_e, cfg.f_theta)
    if nprime is None:
        return None
    bound = min(cfg.n, 2 * (nprime - 1)) if nprime > 1 else 1
    entries = _merge_frontier(bound, cfg.f_e, cfg.delta_f, cfg.delta_xi, trace, f_theta=cfg.f_theta)
    return best_entry(entries, cfg.f_theta)


def candidate_frontier(
    n: int, f_e: float, delta_f: float = 1e-4, delta_xi: float = 1e-4
) -> list[ScheduleEntry]:
    """Dominance-filtered candidate list over all trees with up to n leaves,
    independent of any fidelity threshold.

    The merge loop of schedule() with the leaf bound fixed at n and no
    threshold, so it drops no candidate by yield per pair, and one frontier
    serves queries at every threshold (sorted by f_hat ascending).
    """
    _check_budget(n, f_e)
    entries = _merge_frontier(n, f_e, delta_f, delta_xi)
    entries.sort(key=lambda e: (e.f_hat, -e.xi_hat, e.b))
    return entries


def pumping_frontier(
    n: int, f_e: float, delta_f: float = 1e-4, delta_xi: float = 1e-4
) -> list[ScheduleEntry]:
    """Candidate list restricted to left-deep pumping chains: the accumulator
    always merges with one fresh pair.  Same rounding, dominance filter, and
    sort as candidate_frontier, so the two lists are interchangeable."""
    _check_budget(n, f_e)
    cur = ScheduleEntry(1, f_e, 1.0, LEAF)
    entries: list[ScheduleEntry] = [cur]
    for b in range(2, n + 1):
        f3 = _ceil_to_grid(purified_fidelity(cur.f_hat, f_e), delta_f)
        xi3 = _ceil_to_grid(
            purification_success_prob(cur.f_hat, f_e) * min(cur.xi_hat, 1.0), delta_xi
        )
        cur = ScheduleEntry(b, min(f3, 1.0), min(xi3, 1.0), (cur.tree, LEAF))
        # cur has more leaves than every entry, so it dominates none of them
        # and is dominated by one with at least its fidelity and yield
        f_low, xi_low = cur.f_hat - _GRID_TOL, cur.xi_hat - _GRID_TOL
        if not any(e.f_hat >= f_low and e.xi_hat >= xi_low for e in entries):
            entries.append(cur)
    entries.sort(key=lambda e: (e.f_hat, -e.xi_hat, e.b))
    return entries


def symmetric_schedule(n: int):
    """Balanced tree over the largest power of two not exceeding n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = int(math.floor(math.log2(n)))

    def build(d):
        if d == 0:
            return LEAF
        sub = build(d - 1)
        return (sub, sub)

    return build(depth)


def pumping_schedule(n: int):
    """Left-deep chain: repeatedly merge the accumulator with a fresh pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tree = LEAF
    for _ in range(n - 1):
        tree = (tree, LEAF)
    return tree


def _pareto_sets(bound: int, f_e: float) -> list[list[tuple[float, float, object]]]:
    """Exact Pareto fronts of (fidelity, yield, tree) per exact leaf count.

    Composition is monotone in both child coordinates, so pruning dominated
    partial trees cannot lose the optimum.
    """
    sets: list[list[tuple[float, float, object]]] = [[] for _ in range(bound + 1)]
    if bound >= 1:
        sets[1] = [(f_e, 1.0, LEAF)]
    for b in range(2, bound + 1):
        cands: list[tuple[float, float, object]] = []
        for b1 in range(1, b // 2 + 1):
            b2 = b - b1
            for f1, x1, t1 in sets[b1]:
                for f2, x2, t2 in sets[b2]:
                    f = purified_fidelity(f1, f2)
                    xi = purification_success_prob(f1, f2) * min(x1, x2)
                    cands.append((f, xi, (t1, t2)))
        front: list[tuple[float, float, object]] = []
        for f, xi, t in sorted(cands, key=lambda c: (-c[0], -c[1])):
            if any(ff >= f - 1e-15 and xx >= xi - 1e-15 for ff, xx, _ in front):
                continue
            front.append((f, xi, t))
        sets[b] = front
    return sets


def brute_force_optimal(n: int, f_e: float, f_theta: float):
    """Exhaustive oracle: the tree maximizing exact yield/leaves subject to
    exact fidelity >= f_theta, over all shapes within the leaf bound.

    Returns None when infeasible.  Raises on n beyond the desk-scale bound
    and on f_theta outside (0.25, 1], as SchedulerConfig does.
    """
    _check_threshold(f_theta)
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force bounded at n={_BRUTE_FORCE_MAX_N}, got {n}")
    nprime = min_leaves(n, f_e, f_theta)
    if nprime is None:
        return None
    bound = min(n, 2 * (nprime - 1)) if nprime > 1 else 1
    sets = _pareto_sets(bound, f_e)
    best = None  # (ratio, -b, f, tree)
    for b in range(1, bound + 1):
        for f, xi, tree in sets[b]:
            if f < f_theta - _GRID_TOL:
                continue
            key = (xi / b, -b, f)
            if best is None or key > best[0]:
                best = (key, tree)
    return best[1] if best else None
