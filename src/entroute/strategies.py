"""Joint purification/swapping strategies on a repeater chain.

Three strategies over a chain of hops, each hop holding one or more
elementary pairs:

- purify_and_swap: purify every hop down to one pair, then swap the chain.
- swap_and_purify: swap positional strands end to end, then purify them.
- swap_purify_swap(h): swap_and_purify within h contiguous portions, then
  stitch the h portion pairs; h=l and h=1 recover the two extremes.

Purification here consumes all pairs it is handed (the merge order is
optimized for final fidelity); success probabilities are one-shot products
of per-merge success and per-swap p_s.

optimal_policy_fidelity, the exhaustive oracle these are checked against,
enumerates operation trees rather than states.  A policy interleaves
purifications (two pairs of one span) and swaps (pairs of adjacent spans),
so every pair it ever holds is the root of a binary tree: purify nodes join
two subtrees of the same span, swap nodes join adjacent ones, and the
leaves are initial pairs, each used at most once; pairs left unused are
simply outside the tree.  A tree's span is the union of its leaves' hops,
so it is fixed by the set (bitmask) of initial pairs it uses, and every
tree over a mask is a swap of the mask's pairs left and right of a hop
boundary inside its span, or a purification of two complementary halves
that each span all of it.  Conversely every such tree can be played out as
a policy, its other pairs unused.  So the fidelities a policy can end with
are the values of the trees whose mask spans the chain, and the oracle
takes the largest.  Each node takes its operands in the order of a search
over sorted states (multisets of pairs), every interleaving played out: a
swap puts the left span first (_swap2_raw(left, right)), and a purification
the lower fidelity first.  So the maximum is that search's float, which
tests/test_strategies.py keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from typing import Iterable

import numpy as np

from .pair_algebra import (
    _check_fidelity,
    _purification_success_raw,
    _purified_fidelity_raw,
    _swap2_raw,
    purification_success_prob,
    purified_fidelity,
    swap_fidelity,
)


@dataclass
class RepeaterChain:
    """Hop-indexed lists of elementary pair fidelities plus the per-swap
    success probability."""

    hops: list
    swap_success: float = 1.0

    def __post_init__(self):
        if not self.hops or any(len(h) < 1 for h in self.hops):
            raise ValueError("every hop needs at least one elementary pair")
        if not 0.0 < self.swap_success <= 1.0:
            raise ValueError("swap success probability must lie in (0, 1]")
        self.hops = [list(map(float, h)) for h in self.hops]

    @property
    def length(self) -> int:
        return len(self.hops)


@dataclass
class StrategyOutcome:
    fidelity: float
    success_prob: float


def _merge_all(fids: tuple) -> tuple[float, float]:
    """Maximal-fidelity purification of the multiset, allowing pairs to go
    unused (merging a weak pair into a strong one can only hurt, e.g.
    F(0.7, 1) < 1).  Returns (fidelity, product of per-merge success
    probabilities along the chosen plan); ties on fidelity resolve to the
    higher success probability."""
    memo: dict = {}

    def go(state: tuple) -> tuple[float, float]:
        hit = memo.get(state)
        if hit is not None:
            return hit
        # stopping now keeps the best pair and discards the rest
        best = (state[-1], 1.0)
        n = len(state)
        for i in range(n):
            for j in range(i + 1, n):
                merged = purified_fidelity(state[i], state[j])
                succ = purification_success_prob(state[i], state[j])
                rest = state[:i] + state[i + 1 : j] + state[j + 1 :]
                nxt = tuple(sorted(rest + (merged,)))
                f, s = go(nxt)
                cand = (f, s * succ)
                if cand > best:
                    best = cand
        memo[state] = best
        return best

    return go(tuple(sorted(fids)))


def purify_and_swap(chain: RepeaterChain) -> StrategyOutcome:
    """Purify each hop down to one pair for maximal fidelity, then swap
    along the chain."""
    hop_fids = []
    success = 1.0
    for pairs in chain.hops:
        f, s = _merge_all(tuple(pairs))
        hop_fids.append(f)
        success *= s
    fidelity = swap_fidelity(hop_fids)
    success *= chain.swap_success ** (chain.length - 1)
    return StrategyOutcome(fidelity, success)


def swap_and_purify(chain: RepeaterChain) -> StrategyOutcome:
    """Swap the i-th pair of every hop into strand i, then purify the
    strands into the final pair."""
    counts = {len(h) for h in chain.hops}
    if len(counts) != 1:
        raise ValueError("swap_and_purify needs equal pair counts on every hop")
    k = counts.pop()
    strands = [swap_fidelity([hop[i] for hop in chain.hops]) for i in range(k)]
    f, s = _merge_all(tuple(strands))
    swaps = k * (chain.length - 1)
    return StrategyOutcome(f, s * chain.swap_success**swaps)


def swap_purify_swap(chain: RepeaterChain, h: int) -> StrategyOutcome:
    """swap_and_purify within h contiguous portions, then stitch the portion
    pairs.  The l mod h longer portions come first."""
    l = chain.length
    if not 1 <= h <= l:
        raise ValueError(f"h must lie in [1, {l}], got {h}")
    small = l // h
    n_large = l % h
    portions = []
    pos = 0
    for idx in range(h):
        size = small + (1 if idx < n_large else 0)
        portions.append(chain.hops[pos : pos + size])
        pos += size
    fids = []
    success = 1.0
    for hops in portions:
        sub = RepeaterChain(hops, chain.swap_success)
        out = swap_and_purify(sub)
        fids.append(out.fidelity)
        success *= out.success_prob
    fidelity = swap_fidelity(fids)
    success *= chain.swap_success ** (h - 1)
    return StrategyOutcome(fidelity, success)


# ---------------------------------------------------------------------------
# purify-first advantage region scans (vectorized)

_VIOLATION_TOL = 1e-12


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


# the finest grid step a scan accepts: a step of 1e-10 would ask for a
# 5e9-point axis, and 1e-320 overflows the point count
_MIN_STEP = 0.001

# (a, b) range and (c, d) range of each scanned region
_REGIONS = {
    "lemma1": ((0.5, 1.0), (0.7, 1.0)),
    "low": ((0.5, 0.7), (0.5, 0.7)),
    "success": ((0.7, 1.0), (0.7, 1.0)),
}


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    # floor, so a step that does not divide the range stops short of hi
    n = int((hi - lo) / step + 1e-9)
    return lo + step * np.arange(n + 1)


def _swap_block(f1, f2):
    """swap_fidelity's operation order on arrays, so that a delta built on
    it equals lemma1_delta bit for bit."""
    w = 1.0 * ((4.0 * f1 - 1.0) / 3.0) * ((4.0 * f2 - 1.0) / 3.0)
    return 0.25 * (1.0 + 3.0 * w)


def _delta_block(a, b, c, d, swap):
    # verify's lemma1 report uses _swap2_raw, whose order its pinned min_delta
    # depends on; the scan CSV uses _swap_block to match lemma1_delta
    pas = swap(_purified_fidelity_raw(a, b), _purified_fidelity_raw(c, d))
    sap = _purified_fidelity_raw(swap(a, c), swap(b, d))
    return pas - sap


def _margin_block(a, b, c, d, p_s):
    return _purification_success_raw(a, b) * _purification_success_raw(
        c, d
    ) - p_s * _purification_success_raw(_swap2_raw(a, c), _swap2_raw(b, d))


def _blocks(region: str, step: float, block_fn):
    """Walk a region's 4-d grid one a-slice at a time; yields
    (a, b, c, d, values) with a, b, c, d shaped to broadcast against
    values.  step must lie in [0.001, 0.1]."""
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}")
    if not _MIN_STEP <= step <= 0.1:
        raise ValueError(f"step must lie in [{_MIN_STEP:g}, 0.1]")
    ab, cd = (_grid(lo, hi, step) for lo, hi in _REGIONS[region])
    b = ab[None, :, None, None]
    c = cd[None, None, :, None]
    d = cd[None, None, None, :]
    for a in ab[:, None, None, None, None]:
        yield a, b, c, d, block_fn(a, b, c, d)


def _scan_region(region: str, step: float, block_fn):
    """Sliced 4-d scan; returns (points, nonpositive, violations, min)."""
    points = nonpos = viol = 0
    lo = float("inf")
    for *_, vals in _blocks(region, step, block_fn):
        points += vals.size
        nonpos += int(np.count_nonzero(vals <= 0.0))
        viol += int(np.count_nonzero(vals < -_VIOLATION_TOL))
        lo = min(lo, float(vals.min()))
    return points, nonpos, viol, lo


def lemma1_scan(step: float, regions: Iterable[str] = ("lemma1", "low", "success"), p_s: float = 0.818) -> dict:
    """Grid scans of the purify-first advantage over the regions of
    _REGIONS; step must lie in [0.001, 0.1].

    - 'lemma1': counts fidelity violations (delta below -1e-12; exact-zero
      boundary ties are not violations).
    - 'low': counts strict purify-and-swap wins.
    - 'success': success-probability margin at p_s.
    """
    delta = partial(_delta_block, swap=_swap2_raw)
    report: dict = {"step": step}
    if "lemma1" in regions:
        points, _, viol, lo = _scan_region("lemma1", step, delta)
        report["lemma1"] = {"points": points, "violations": viol, "min_delta": lo}
    if "low" in regions:
        points, nonpos, _, lo = _scan_region("low", step, delta)
        report["low"] = {
            "points": points,
            "wins": points - nonpos,
            "win_fraction": (points - nonpos) / points,
            "min_delta": lo,
        }
    if "success" in regions:
        points, nonpos, _, lo = _scan_region("success", step, partial(_margin_block, p_s=p_s))
        report["success"] = {
            "points": points,
            "nonpositive": nonpos,
            "min_margin": lo,
            "p_s": p_s,
        }
    return report


def scan_points(region: str, step: float):
    """Per-point rows (a, b, c, d, delta, winner) for CSV export, one
    a-slice of the region at a time; delta equals lemma1_delta.  step
    must lie in [0.001, 0.1]."""
    for *axes, deltas in _blocks(region, step, partial(_delta_block, swap=_swap_block)):
        a_vals, b_vals, c_vals, d_vals = (x.ravel().tolist() for x in axes)
        # one d-row of Python floats at a time: converting whole slices, or
        # broadcast coordinate columns, raised the scan's peak RSS by 1-4 MB
        rows = deltas.reshape(-1, len(d_vals))
        for (a, b, c), row in zip(product(a_vals, b_vals, c_vals), rows):
            for d, delta in zip(d_vals, row.tolist()):
                winner = "pas" if delta > 0 else ("sap" if delta < 0 else "tie")
                yield a, b, c, d, delta, winner


# ---------------------------------------------------------------------------
# Exhaustive policy oracle

# the enumeration's bound; n pairs split over hops in 2**(n-1) layouts, so
# there are 255 of 1 to 8 pairs, which bounds _policy_layout's cache
_POLICY_PAIRS_MAX = 8


@lru_cache(maxsize=None)
def _policy_layout(counts: tuple) -> tuple:
    """The operation-tree structure of a chain with counts[h] pairs on hop
    h, pairs numbered hop by hop: (steps, roots).  steps lists every mask
    of two or more pairs whose hops are contiguous, in increasing order (a
    split's halves come first), with its swap splits (left, right) at each
    hop boundary inside its span and its purify splits (x, y), x < y, whose
    two halves both span all of its hops.  roots are the masks spanning the
    whole chain."""
    hop_of = [h for h, c in enumerate(counts) for _ in range(c)]
    n = len(hop_of)
    below = [sum(1 << i for i in range(n) if hop_of[i] < c) for c in range(len(counts) + 1)]
    span = [None] * (1 << n)
    steps, roots = [], []
    for mask in range(1, 1 << n):
        hops = {hop_of[i] for i in range(n) if mask >> i & 1}
        lo, hi = min(hops), max(hops) + 1
        if len(hops) != hi - lo:
            continue  # a gap: no tree has these leaves
        span[mask] = (lo, hi)
        if lo == 0 and hi == len(counts):
            roots.append(mask)
        if mask & (mask - 1) == 0:
            continue  # one pair: a leaf
        swaps = [(mask & below[c], mask & ~below[c]) for c in range(lo + 1, hi)]
        purifies = []
        x = (mask - 1) & mask
        while x:
            y = mask ^ x
            if x < y and span[x] == span[y] == (lo, hi):
                purifies.append((x, y))
            x = (x - 1) & mask
        steps.append((mask, swaps, purifies))
    return steps, roots


def optimal_policy_fidelity(chain: RepeaterChain) -> float:
    """Best final fidelity over ALL interleavings of purification (between
    pairs sharing a span) and swapping (of adjacent spans), allowing pairs
    to go unused.  Desk scale: at most 8 initial pairs, each of fidelity in
    [0.25, 1].

    vals[mask] is the set of fidelities a tree over exactly the pairs of
    mask can reach (see the module docstring); the answer is the largest
    over the masks spanning the chain."""
    counts = tuple(len(h) for h in chain.hops)
    if sum(counts) > _POLICY_PAIRS_MAX:
        raise ValueError(f"policy enumeration bounded at {_POLICY_PAIRS_MAX} initial pairs")
    init = [f for pairs in chain.hops for f in pairs]
    for f in init:
        _check_fidelity(f)
    steps, roots = _policy_layout(counts)
    vals = [None] * (1 << len(init))
    for i, f in enumerate(init):
        vals[1 << i] = {f}
    for mask, swaps, purifies in steps:
        out = set()
        for left, right in swaps:
            out.update(_swap2_raw(a, b) for a in vals[left] for b in vals[right])
        for x, y in purifies:
            out.update(
                _purified_fidelity_raw(a, b) if a <= b else _purified_fidelity_raw(b, a)
                for a in vals[x]
                for b in vals[y]
            )
        vals[mask] = out
    return max(max(vals[mask]) for mask in roots)
