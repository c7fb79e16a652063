import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from entroute.pair_algebra import purification_success_prob, purified_fidelity
from entroute.purification import (
    LEAF,
    ScheduleEntry,
    SchedulerConfig,
    _ceil_to_grid,
    brute_force_optimal,
    candidate_frontier,
    evaluate_tree,
    leaf_count,
    max_fidelity_schedule,
    min_leaves,
    pumping_frontier,
    pumping_schedule,
    schedule,
    symmetric_schedule,
    tree_success_prob,
    tree_to_json,
    tree_to_text,
)
from oracles import gamma_table, merge_frontier, pumping_frontier_former, tree_from_json


@lru_cache(maxsize=None)
def _all_shapes(b):
    """Every tree shape with exactly b identical leaves (up to mirror)."""
    if b == 1:
        return (LEAF,)
    shapes = []
    for b1 in range(1, b // 2 + 1):
        for t1 in _all_shapes(b1):
            for t2 in _all_shapes(b - b1):
                shapes.append((t1, t2))
    return tuple(shapes)


def _naive_optimal(n, f_e, f_theta):
    """Unpruned reference for the Pareto-DP oracle (dual-route check)."""
    nprime = min_leaves(n, f_e, f_theta)
    if nprime is None:
        return None
    bound = min(n, 2 * (nprime - 1)) if nprime > 1 else 1
    best = None
    for b in range(1, bound + 1):
        for tree in _all_shapes(b):
            f, xi = evaluate_tree(tree, f_e)
            if f < f_theta - 1e-12:
                continue
            key = (xi / b, -b, f)
            if best is None or key > best[0]:
                best = (key, tree)
    return best


def test_gamma_boundary():
    assert gamma_table(1, 0.75)[1] == 0.75


def test_gamma_single_merge():
    g = gamma_table(2, 0.75)
    assert g[2] == pytest.approx(purified_fidelity(0.75, 0.75), abs=1e-12)
    assert g[2] == pytest.approx(0.788462, abs=1e-6)


def test_gamma_two_splits():
    g = gamma_table(4, 0.75)
    expect = max(
        purified_fidelity(g[1], g[3]),
        purified_fidelity(g[2], g[2]),
    )
    assert g[4] == pytest.approx(expect, abs=1e-12)


def test_gamma_frozen_point_07():
    g = gamma_table(3, 0.7)
    assert g[2] == pytest.approx(4.5 / 6.12, abs=1e-12)
    assert g[3] == pytest.approx(0.754237, abs=1e-6)


def test_gamma_monotone_bounded():
    for f_e in (0.5, 0.6, 0.75, 0.9, 1.0):
        g = gamma_table(12, f_e)
        for i in range(2, 13):
            assert g[i] >= g[i - 1] - 1e-15
            assert g[i] <= 1.0 + 1e-12


def test_max_fidelity_schedule_attains_gamma():
    for f_e in (0.5, 0.7, 0.93, 1.0):
        g = gamma_table(24, f_e)
        for n in (1, 2, 7, 24):
            tree, f = max_fidelity_schedule(n, f_e)
            assert f == g[n]
            assert leaf_count(tree) <= n
            assert evaluate_tree(tree, f_e)[0] == pytest.approx(f, abs=1e-12)


def test_min_leaves():
    assert min_leaves(4, 0.9, 0.9) == 1
    assert min_leaves(4, 0.75, 0.78) == 2
    assert min_leaves(8, 0.6, 0.999) is None
    assert min_leaves(8, 0.7, 0.75) == 3


def test_evaluate_tree_examples():
    assert evaluate_tree(LEAF, 0.8) == (0.8, 1.0)
    f, xi = evaluate_tree((LEAF, LEAF), 0.75)
    assert f == pytest.approx(0.788462, abs=1e-6)
    assert xi == pytest.approx(0.722222, abs=1e-6)
    # pumping over 3 leaves: merge the 2-leaf result with a fresh pair
    f3, xi3 = evaluate_tree(((LEAF, LEAF), LEAF), 0.75)
    f2 = purified_fidelity(0.75, 0.75)
    assert f3 == pytest.approx(purified_fidelity(f2, 0.75), abs=1e-12)
    assert xi3 == pytest.approx(
        purification_success_prob(f2, 0.75) * purification_success_prob(0.75, 0.75), abs=1e-12
    )


def test_schedule_leaf_when_threshold_met():
    out = schedule(SchedulerConfig(4, 0.9, 0.9))
    assert out is not None
    assert out.tree == LEAF
    assert out.b == 1
    assert out.xi_hat == pytest.approx(1.0)


def test_schedule_single_merge():
    out = schedule(SchedulerConfig(2, 0.75, 0.78))
    assert out is not None
    assert out.tree == (LEAF, LEAF)
    f, xi = evaluate_tree(out.tree, 0.75)
    assert f == pytest.approx(0.788462, abs=1e-6)
    assert xi == pytest.approx(0.722222, abs=1e-6)
    # ceiling discretization never understates the exact values
    assert out.f_hat >= f - 1e-12
    assert out.xi_hat >= xi - 1e-12


def test_schedule_infeasible():
    assert schedule(SchedulerConfig(8, 0.6, 0.999)) is None


def test_schedule_matches_oracle_n6():
    cfg = SchedulerConfig(6, 0.7, 0.76)
    out = schedule(cfg)
    oracle = brute_force_optimal(6, 0.7, 0.76)
    assert out is not None and oracle is not None
    f_alg, xi_alg = evaluate_tree(out.tree, 0.7)
    f_orc, xi_orc = evaluate_tree(oracle, 0.7)
    assert f_alg >= 0.76 - 1e-3
    assert xi_alg / out.b >= xi_orc / leaf_count(oracle) - 2e-4


def test_oracle_against_naive_enumeration():
    for f_e in (0.7, 0.8):
        for f_theta in (f_e + 0.02, f_e + 0.05):
            for n in (2, 4, 6):
                got = brute_force_optimal(n, f_e, f_theta)
                want = _naive_optimal(n, f_e, f_theta)
                if want is None:
                    assert got is None
                    continue
                f_w, xi_w = evaluate_tree(want[1], f_e)
                f_g, xi_g = evaluate_tree(got, f_e)
                assert xi_g / leaf_count(got) == pytest.approx(
                    xi_w / leaf_count(want[1]), abs=1e-12
                )
                assert f_g >= f_theta - 1e-12


def test_oracle_bounds():
    with pytest.raises(ValueError):
        brute_force_optimal(11, 0.7, 0.75)
    # trivially unique 2-leaf tree
    assert brute_force_optimal(2, 0.75, 0.78) == (LEAF, LEAF)


def test_baseline_shapes():
    assert symmetric_schedule(1) == LEAF
    assert pumping_schedule(1) == LEAF
    assert tree_to_text(symmetric_schedule(4)) == "((L,L),(L,L))"
    assert tree_to_text(pumping_schedule(4)) == "(((L,L),L),L)"
    assert leaf_count(symmetric_schedule(6)) == 4  # largest power of two below n
    assert leaf_count(pumping_schedule(6)) == 6


def test_serialization_roundtrip():
    for tree in (LEAF, (LEAF, LEAF), ((LEAF, LEAF), (LEAF, (LEAF, LEAF)))):
        assert tree_from_json(tree_to_json(tree)) == tree
    with pytest.raises(ValueError):
        tree_from_json({"oops": 1})


def test_dominance_soundness_and_loop_bound():
    for n, f_e, f_theta in [(6, 0.7, 0.76), (8, 0.75, 0.8), (8, 0.8, 0.82)]:
        trace = []
        schedule(SchedulerConfig(n, f_e, f_theta), trace=trace)
        final = trace[-1][1]
        nprime = min_leaves(n, f_e, f_theta)
        bound = min(n, 2 * (nprime - 1))
        assert all(e.b <= bound for e in final)
        final_keys = {(e.b, round(e.f_hat, 9), round(e.xi_hat, 9)) for e in final}
        for item in trace[:-1]:
            cand, kept = item
            key = (cand.b, round(cand.f_hat, 9), round(cand.xi_hat, 9))
            if key in final_keys:
                continue
            # pruned or later removed: some survivor must dominate it
            assert any(
                e.b <= cand.b
                and e.f_hat >= cand.f_hat - 1e-9
                and e.xi_hat >= cand.xi_hat - 1e-9
                for e in final
            )


def test_scheduler_not_worse_than_baselines():
    for f_e in (0.7, 0.75, 0.8):
        for n in range(2, 13):
            g = gamma_table(n, f_e)
            f_sym, _ = evaluate_tree(symmetric_schedule(n), f_e)
            f_pump, _ = evaluate_tree(pumping_schedule(n), f_e)
            assert g[n] >= max(f_sym, f_pump) - 1e-12


def _discretize_tree(tree, f_e, df, dxi):
    """Bottom-up ceiling discretization of a fixed tree, mirroring the
    scheduler's entry updates."""
    if tree == LEAF:
        return f_e, 1.0
    fl, xl = _discretize_tree(tree[0], f_e, df, dxi)
    fr, xr = _discretize_tree(tree[1], f_e, df, dxi)
    f = math.ceil(purified_fidelity(fl, fr) / df - 1e-9) * df
    xi = math.ceil(purification_success_prob(fl, fr) * min(xl, xr) / dxi - 1e-9) * dxi
    return min(f, 1.0), min(xi, 1.0)


def test_sandwich_bound():
    # accumulated discretization error stays inside the (1 +/- b*eps) sandwich
    # when the step sizes satisfy the optimality condition
    import random

    rng = random.Random(3)
    eps = 0.02
    for _ in range(50):
        b = rng.randint(2, 8)
        tree = rng.choice(_all_shapes(b))
        f_e = rng.uniform(0.65, 0.95)
        f_exact, xi_exact = evaluate_tree(tree, f_e)
        dxi = max(xi_exact * eps, 1e-12)
        _, xi_hat = _discretize_tree(tree, f_e, 1e-9, dxi)
        assert (1 - b * eps) * xi_hat <= xi_exact + 1e-12
        assert xi_exact <= (1 + b * eps) * xi_hat + 1e-12


def test_schedule_deterministic():
    a = schedule(SchedulerConfig(8, 0.7, 0.75))
    b = schedule(SchedulerConfig(8, 0.7, 0.75))
    assert tree_to_text(a.tree) == tree_to_text(b.tree)
    assert (a.b, a.f_hat, a.xi_hat) == (b.b, b.f_hat, b.xi_hat)


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(0, 0.75, 0.8)
    with pytest.raises(ValueError):
        SchedulerConfig(4, 0.4, 0.8)
    with pytest.raises(ValueError):
        SchedulerConfig(4, 0.75, 0.2)
    with pytest.raises(ValueError):
        SchedulerConfig(4, 0.75, 0.8, delta_f=0.0)
    for name in ("delta_f", "delta_xi"):
        with pytest.raises(ValueError, match=f"{name}=1e-320"):
            SchedulerConfig(4, 0.75, 0.8, **{name: 1e-320})


# --- semi-naive merge loop against the full re-merge loop it replaced ---


def _oracle_dominates(a, b):
    return a.b <= b.b and a.f_hat >= b.f_hat - 1e-12 and a.xi_hat >= b.xi_hat - 1e-12


def _oracle_insert(entries, cand):
    for e in entries:
        if _oracle_dominates(e, cand):
            return False
    entries[:] = [e for e in entries if not _oracle_dominates(cand, e)]
    entries.append(cand)
    return True


def _full_remerge_frontier(bound, f_e, delta_f, delta_xi):
    """Reference loop: every round re-merges every pair (i1 <= i2) of its
    snapshot and stops after a round that keeps nothing."""
    entries = [ScheduleEntry(1, f_e, 1.0, LEAF)]
    for _ in range(bound):
        snapshot = list(entries)
        changed = False
        for i1 in range(len(snapshot)):
            for i2 in range(i1, len(snapshot)):
                l1, l2 = snapshot[i1], snapshot[i2]
                b3 = l1.b + l2.b
                if b3 > bound:
                    continue
                f3 = _ceil_to_grid(purified_fidelity(l1.f_hat, l2.f_hat), delta_f)
                xi3 = _ceil_to_grid(
                    purification_success_prob(l1.f_hat, l2.f_hat) * min(l1.xi_hat, l2.xi_hat),
                    delta_xi,
                )
                cand = ScheduleEntry(b3, min(f3, 1.0), min(xi3, 1.0), (l1.tree, l2.tree))
                if _oracle_insert(entries, cand):
                    changed = True
        if not changed:
            break
    return entries


def _oracle_pick(entries, f_theta):
    best = None
    for e in entries:
        if e.f_hat < f_theta - 1e-12:
            continue
        if best is None:
            best = e
            continue
        if e.ratio() > best.ratio() + 1e-12:
            best = e
        elif abs(e.ratio() - best.ratio()) <= 1e-12:
            if e.b < best.b or (e.b == best.b and e.f_hat > best.f_hat + 1e-12):
                best = e
    return best


def _keys(entries):
    return [(e.b, e.f_hat, e.xi_hat, e.tree) for e in entries]


_GRIDS = [(1e-4, 1e-4), (1e-3, 1e-3), (1e-2, 1e-2), (1e-3, 1e-2)]


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 1.0),
    st.integers(1, 40),
    st.sampled_from(_GRIDS),
    st.floats(0.0, 1.1),
)
def test_merge_loop_matches_full_remerge_oracle(f_e, n, grid, reach):
    """candidate_frontier and schedule (its final list and the returned
    entry) equal the full re-merge loop entry for entry and in order; the
    1e-2 grid makes equal candidates, where the first one must win."""
    oracle = sorted(_full_remerge_frontier(n, f_e, *grid), key=lambda e: (e.f_hat, -e.xi_hat, e.b))
    assert _keys(candidate_frontier(n, f_e, *grid)) == _keys(oracle)

    # thresholds between f_e and past the best fidelity with n pairs
    f_theta = min(f_e + reach * (gamma_table(n, f_e)[n] - f_e), 1.0)
    trace = []
    got = schedule(SchedulerConfig(n, f_e, f_theta, *grid), trace=trace)
    nprime = min_leaves(n, f_e, f_theta)
    if nprime is None:
        assert got is None and trace == []
        return
    bound = min(n, 2 * (nprime - 1)) if nprime > 1 else 1
    entries = _full_remerge_frontier(bound, f_e, *grid)
    assert _keys(trace[-1][1]) == _keys(entries)
    assert _keys([got]) == _keys([_oracle_pick(entries, f_theta)])


@pytest.mark.parametrize(
    "n, f_e, f_theta, delta",
    [(8, 0.75, 0.8, 1e-4), (20, 0.7, 0.85, 1e-4), (40, 0.7, 0.88, 1e-4), (40, 0.6, 0.74, 1e-2)],
)
def test_schedule_merges_each_pair_once(n, f_e, f_theta, delta):
    """Entry trees are unique, so a repeated candidate tree means a pair of
    entries was merged twice."""
    trace = []
    schedule(SchedulerConfig(n, f_e, f_theta, delta, delta), trace=trace)
    trees = [cand.tree for cand, _ in trace[:-1]]
    assert len(trees) > 1
    assert len(set(trees)) == len(trees)


def _former_insert(entries, cand):
    b, f, xi = cand.b, cand.f_hat, cand.xi_hat
    for e in entries:
        if e.b <= b and e.f_hat >= f - 1e-12 and e.xi_hat >= xi - 1e-12:
            return False
    entries[:] = [
        e for e in entries if not (b <= e.b and f >= e.f_hat - 1e-12 and xi >= e.xi_hat - 1e-12)
    ]
    entries.append(cand)
    return True


def _former_merge_frontier(bound, f_e, delta_f, delta_xi, trace):
    """The semi-naive merge loop before the raw-value form: checked maps,
    _ceil_to_grid, and an entry built for every candidate before its
    dominance test."""
    entries = [ScheduleEntry(1, f_e, 1.0, LEAF)]
    snapshot = []
    for _ in range(bound):
        prev = {id(e) for e in snapshot}
        snapshot = list(entries)
        old = sum(id(e) in prev for e in snapshot)
        if old == len(snapshot):
            break
        for i1, l1 in enumerate(snapshot):
            for l2 in snapshot[max(i1, old) :]:
                b3 = l1.b + l2.b
                if b3 > bound:
                    continue
                f3 = _ceil_to_grid(purified_fidelity(l1.f_hat, l2.f_hat), delta_f)
                xi3 = _ceil_to_grid(
                    purification_success_prob(l1.f_hat, l2.f_hat) * min(l1.xi_hat, l2.xi_hat),
                    delta_xi,
                )
                cand = ScheduleEntry(b3, min(f3, 1.0), min(xi3, 1.0), (l1.tree, l2.tree))
                kept = _former_insert(entries, cand)
                trace.append((cand, kept))
    trace.append(("final", list(entries)))
    return entries


def _trace_keys(trace):
    *merged, (tag, final) = trace
    assert tag == "final"
    return [(e.b, e.f_hat, e.xi_hat, e.tree, kept) for e, kept in merged], _keys(final)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 1.0),
    st.integers(1, 40),
    st.sampled_from(_GRIDS),
    st.floats(0.0, 1.1),
)
def test_schedule_trace_matches_former_merge_loop(f_e, n, grid, reach):
    """schedule(..., trace=) records the same (entry, kept) sequence, bit
    for bit, as the former loop: the raw maps equal the checked ones on
    every f_hat, and testing dominance before building the entry changes
    nothing but the allocation."""
    f_theta = min(f_e + reach * (gamma_table(n, f_e)[n] - f_e), 1.0)
    trace = []
    schedule(SchedulerConfig(n, f_e, f_theta, *grid), trace=trace)
    nprime = min_leaves(n, f_e, f_theta)
    if nprime is None:
        assert trace == []
        return
    bound = min(n, 2 * (nprime - 1)) if nprime > 1 else 1
    oracle = []
    _former_merge_frontier(bound, f_e, *grid, oracle)
    assert _trace_keys(trace) == _trace_keys(oracle)


def _bits(entries):
    return [(e.b, e.f_hat.hex(), e.xi_hat.hex(), e.tree) for e in entries]


@settings(max_examples=150, deadline=None)
@given(st.floats(0.5, 1.0), st.integers(1, 40), st.sampled_from(_GRIDS))
def test_candidate_frontier_bit_equal_to_former_merge_loop(f_e, n, grid):
    """The untraced merge loop (tuple entries, round stamps, partners that
    fit only, the raw maps written out) builds the former loop's frontier:
    the same entries, float bits and trees, in the same order."""
    want = merge_frontier(n, f_e, *grid)
    want.sort(key=lambda e: (e.f_hat, -e.xi_hat, e.b))
    assert _bits(candidate_frontier(n, f_e, *grid)) == _bits(want)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.5, 1.0), st.integers(1, 64), st.sampled_from(_GRIDS))
def test_pumping_frontier_bit_equal_to_former_loop(f_e, n, grid):
    """Appending each chain entry after one dominance test builds the
    frontier the former _dominated and _admit loop built, bit for bit."""
    assert _bits(pumping_frontier(n, f_e, *grid)) == _bits(pumping_frontier_former(n, f_e, *grid))


def _quadratic_success_prob(tree, f_e):
    """Former form: re-evaluates every subtree at every node."""
    if tree == LEAF:
        return 1.0
    left, right = tree
    f1, _ = evaluate_tree(left, f_e)
    f2, _ = evaluate_tree(right, f_e)
    return (
        purification_success_prob(f1, f2)
        * _quadratic_success_prob(left, f_e)
        * _quadratic_success_prob(right, f_e)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(st.just(LEAF), lambda t: st.tuples(t, t), max_leaves=40),
    st.floats(0.5, 1.0),
)
def test_tree_success_prob_bit_equal_to_quadratic_form(tree, f_e):
    assert tree_success_prob(tree, f_e) == _quadratic_success_prob(tree, f_e)


def _recursive_walks(tree, f_e):
    """The recursive walks the stack walks replaced: (leaf count, exact
    (fidelity, yield), text, JSON form)."""
    if tree == LEAF:
        return 1, (f_e, 1.0), "L", "L"
    b1, (f1, x1), s1, j1 = _recursive_walks(tree[0], f_e)
    b2, (f2, x2), s2, j2 = _recursive_walks(tree[1], f_e)
    fx = (purified_fidelity(f1, f2), purification_success_prob(f1, f2) * min(x1, x2))
    return b1 + b2, fx, f"({s1},{s2})", [j1, j2]


@settings(max_examples=200, deadline=None)
@given(
    # (t, t) shares one subtree object twice, as the scheduler's trees do
    st.recursive(st.just(LEAF), lambda t: st.tuples(t, t) | t.map(lambda s: (s, s)), max_leaves=40),
    st.floats(0.5, 1.0),
)
def test_tree_walks_bit_equal_to_recursion(tree, f_e):
    want = _recursive_walks(tree, f_e)
    assert (leaf_count(tree), evaluate_tree(tree, f_e), tree_to_text(tree), tree_to_json(tree)) == want
