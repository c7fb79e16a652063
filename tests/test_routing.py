import heapq
import itertools
import math
import random
from collections import Counter
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from entroute import routing, topology
from entroute.auxgraph import VIRTUAL_SINK, AuxiliaryGraph, build_aux_graph
from entroute.network import EdgeSpec, NodeSpec, QuantumNetwork
from entroute.pair_algebra import (
    inverse_pseudo_fidelity,
    pseudo_fidelity,
    purification_success_prob,
    purified_fidelity,
)
from entroute.purification import (
    _GRID_TOL,
    LEAF,
    _ceil_to_grid,
    _pareto_sets,
    best_entry,
    brute_force_optimal,
    candidate_frontier,
    pumping_frontier,
)
from entroute.routing import (
    brute_force_route,
    discretization_steps,
    edge_throughput_table,
    k_paths,
    min_cost_path,
)


def line_net(qubits=(2, 3, 3, 2), caps=(2, 2, 2), fids=(0.85, 0.97, 0.85)):
    names = ["s", "v", "u", "t"][: len(qubits)]
    nodes = [NodeSpec(n, q) for n, q in zip(names, qubits)]
    edges = [EdgeSpec(a, b, c, f) for a, b, c, f in zip(names, names[1:], caps, fids)]
    return QuantumNetwork(nodes, edges)


def rand_net(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 5)
    names = list(range(n))
    nodes = [NodeSpec(i, rng.randint(2, 4)) for i in names]
    pairs = set()
    grown = [0]
    for w in names[1:]:
        u = rng.choice(grown)
        pairs.add((min(u, w), max(u, w)))
        grown.append(w)
    for _ in range(rng.randint(1, 3)):
        u, w = rng.sample(names, 2)
        pairs.add((min(u, w), max(u, w)))
    edges = [
        EdgeSpec(u, w, rng.randint(1, 3), round(rng.uniform(0.7, 0.95), 3))
        for u, w in sorted(pairs)
    ]
    net = QuantumNetwork(nodes, edges)
    s, t = rng.sample(names, 2)
    f0 = round(rng.uniform(0.72, 0.88), 3)
    return net, s, t, f0


# --- throughput tables ---


def entry_at(steps, k):
    """Entry of the last step with k' <= k: the table's pick at split
    index k, or None when no schedule meets that threshold."""
    found = None
    for k2, e in steps:
        if k2 > k:
            break
        found = e
    return found


def table(m, f_e, delta_phi, delta_f=1e-4, delta_xi=1e-4, mode="optimal"):
    """The table of pair count m, read off the frontier built at m."""
    return edge_throughput_table(m, m, f_e, delta_phi, delta_f, delta_xi, mode)


def psi_at(steps, pair_budget, k):
    e = entry_at(steps, k)
    return None if e is None else math.log(e.ratio() * pair_budget)


def test_table_budget_one():
    steps = table(1, 0.9, 0.01)
    k = math.ceil(-pseudo_fidelity(0.9) / 0.01)
    assert psi_at(steps, 1, k) == pytest.approx(0.0, abs=1e-12)
    # stricter than the raw pair with no room to purify: infeasible
    assert entry_at(steps, 1) is None and psi_at(steps, 1, 1) is None


def test_table_single_merge_value():
    steps = table(2, 0.75, 0.001)
    k = math.ceil(-pseudo_fidelity(0.78) / 0.001)
    e = entry_at(steps, k)
    assert e.b == 2 and e.tree == (LEAF, LEAF)
    expect = math.log(purification_success_prob(0.75, 0.75) / 2 * 2)
    assert psi_at(steps, 2, k) == pytest.approx(expect, abs=2e-3)


def test_table_matches_exhaustive_search():
    steps = table(4, 0.7, 0.001, 1e-6, 1e-6)
    k = math.ceil(-pseudo_fidelity(0.76) / 0.001)
    got = entry_at(steps, k)
    best = brute_force_optimal(4, 0.7, inverse_pseudo_fidelity(-k * 0.001))
    from entroute.purification import evaluate_tree, leaf_count

    f_b, xi_b = evaluate_tree(best, 0.7)
    assert got.ratio() == pytest.approx(xi_b / leaf_count(best), abs=1e-4)


def test_frontier_covers_exact_pareto():
    from entroute.routing import _frontier

    entries = _frontier(6, 0.75, 1e-4, 1e-4, "optimal")
    for b, front in enumerate(_pareto_sets(6, 0.75)):
        for f, xi, _ in front:
            assert any(
                e.b <= b and e.f_hat >= f - 1e-9 and e.xi_hat >= xi - 1e-9
                for e in entries
            ), (b, f, xi)


def test_table_breakpoints_monotone():
    steps = table(3, 0.8, 0.002)
    ks = [k for k, _ in steps if k <= 400]
    assert ks == sorted(ks)
    ratios = [entry_at(steps, k).ratio() for k in ks]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    # between breakpoints the ratio is flat, so those k are dominated
    for k0, k1 in zip(ks, ks[1:]):
        assert entry_at(steps, k1 - 1).ratio() == pytest.approx(entry_at(steps, k0).ratio())


class LazyThroughputTable:
    """The former per-k table, kept as an oracle: entry(k) picks at the
    threshold of split index k (the raw pair once it qualifies), and
    breakpoints(K) scans k = 1..K for strict ratio improvements, stopping
    at the raw pair."""

    def __init__(self, pair_budget, f_e, delta_phi, delta_f=1e-4, delta_xi=1e-4, mode="optimal"):
        self.f_e = f_e
        self.delta_phi = delta_phi
        self.frontier = routing._frontier(pair_budget, f_e, delta_f, delta_xi, mode)
        self._leaf = next(e for e in self.frontier if e.b == 1)
        self._entries = {}
        self._breaks = []
        self._scanned_to = 0
        self._saturated = False

    def entry(self, k):
        if k not in self._entries:
            f_theta = inverse_pseudo_fidelity(-k * self.delta_phi)
            if f_theta <= self.f_e + _GRID_TOL:
                self._entries[k] = self._leaf
            else:
                self._entries[k] = best_entry(self.frontier, f_theta)
        return self._entries[k]

    def breakpoints(self, kmax):
        while self._scanned_to < kmax and not self._saturated:
            k = self._scanned_to + 1
            self._scanned_to = k
            e = self.entry(k)
            if e is None:
                continue
            if not self._breaks or e.ratio() > self._entries[self._breaks[-1]].ratio() + _GRID_TOL:
                self._breaks.append(k)
            if e.b == 1:
                self._saturated = True
        return [k for k in self._breaks if k <= kmax]


def test_raw_pair_shortcut_agrees_with_best_entry_test():
    """The per-k scan took the raw pair once f_theta <= f_e + tol; the
    staircase has no such shortcut and relies on best_entry's test
    f_e >= f_theta - tol agreeing with it.  Within one binade both round
    tol alike, so they agree on every threshold next to the boundary."""
    rng = random.Random(5)
    for f_e in [0.5, 1.0] + [rng.uniform(0.5, 1.0) for _ in range(500)]:
        f_theta = f_e + _GRID_TOL
        for _ in range(8):
            f_theta = math.nextafter(f_theta, 0.0)
        for _ in range(16):
            assert (f_theta <= f_e + _GRID_TOL) == (not f_e < f_theta - _GRID_TOL)
            f_theta = math.nextafter(f_theta, 2.0)


def _entry_key(e):
    return None if e is None else (e.b, e.f_hat, e.xi_hat, e.tree)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.55, 1.0),
    st.floats(1e-3, 0.05),
    st.sampled_from([(1e-4, 1e-4), (1e-3, 1e-3), (1e-2, 1e-3), (1e-3, 1e-2)]),
    st.sampled_from(["optimal", "pumping"]),
    st.integers(1, 1000),
)
# entries whose ratios tie on the grid: the later one must not become a step
@example(36, 0.9, 0.001, (1e-3, 1e-3), "optimal", 1000)
@example(40, 0.764, 0.0015535145696211096, (1e-4, 1e-4), "optimal", 1000)
def test_table_steps_match_per_k_scan(m, f_e, delta_phi, grid, mode, kmax):
    """Steps with k <= K are the per-k scan's breakpoints(K) with its
    entries, compared by value."""
    steps = table(m, f_e, delta_phi, *grid, mode)
    oracle = LazyThroughputTable(m, f_e, delta_phi, *grid, mode)
    assert [k for k, _ in steps if k <= kmax] == oracle.breakpoints(kmax)
    for k, e in steps:
        if k <= kmax:
            assert _entry_key(e) == _entry_key(oracle.entry(k))
    for k in range(1, kmax + 1):
        # between steps the scan's pick improves on the last step by no more
        # than the tolerance, so labels there are dominated
        got, want = entry_at(steps, k), oracle.entry(k)
        assert (got is None) == (want is None)
        if got is not None:
            assert want.ratio() <= got.ratio() + _GRID_TOL
    if steps and steps[-1][0] <= kmax:
        assert steps[-1][1].b == 1


def _per_k_staircase(pair_budget, f_e, delta_phi, delta_f=1e-4, delta_xi=1e-4, mode="optimal"):
    """The former table body, kept as an oracle: best_entry over the whole
    frontier at every distinct first k, in ascending order."""
    frontier = routing._frontier(pair_budget, f_e, delta_f, delta_xi, mode)
    steps: list = []
    for k in sorted({routing._first_k(e.f_hat, delta_phi) for e in frontier}):
        e = best_entry(frontier, inverse_pseudo_fidelity(-k * delta_phi))
        if not steps or e.ratio() > steps[-1][1].ratio() + _GRID_TOL:
            steps.append((k, e))
        if e.b == 1:
            break
    return tuple(steps)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 1.0),
    st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=6),
    st.lists(
        st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-6, 0.05)), min_size=1, max_size=3
    ),
    st.sampled_from([(1e-4, 1e-4), (1e-3, 1e-3), (1e-2, 1e-3), (1e-3, 1e-2)]),
    st.sampled_from(["optimal", "pumping"]),
)
def test_sweep_staircase_matches_per_k_best_entry(f_e, budgets, delta_phis, grid, mode):
    """The one-sweep staircase of pair count m, read off the frontier built
    at any budget B >= m, equals the per-k best_entry staircase over the
    frontier built at m, step for step."""
    for a, b in budgets:
        m, budget = min(a, b), max(a, b)
        for delta_phi in delta_phis:
            got = edge_throughput_table(budget, m, f_e, delta_phi, *grid, mode)
            want = _per_k_staircase(m, f_e, delta_phi, *grid, mode)
            assert [(k, _entry_key(e)) for k, e in got] == [(k, _entry_key(e)) for k, e in want]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.5, 1.0),
    st.one_of(st.sampled_from([0.001, 0.005, 0.01, 0.02]), st.floats(1e-4, 0.05)),
    st.sampled_from([(1e-4, 1e-4), (1e-3, 1e-3), (1e-2, 1e-3), (1e-3, 1e-2)]),
    st.sampled_from(["optimal", "pumping"]),
)
def test_least_charge_bounds_every_step(budget, f_e, delta_phi, grid, mode):
    """The charge built without a frontier is no more than that of the
    edge's cheapest step: the first k of its full-budget first-k order."""
    cheap = routing._least_charge(budget, f_e, delta_phi, grid[0], mode)
    k_min = routing._first_k_order(budget, f_e, delta_phi, *grid, mode)[0][0]
    assert 0 <= cheap <= k_min - 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 64), st.floats(0.5, 1.0)), max_size=10),
    st.floats(0.5, 1.0),
    st.integers(1, 64),
    st.one_of(st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2]), st.floats(1e-5, 1e-2)),
    st.sampled_from(["optimal", "pumping"]),
)
def test_ceilings_batch_matches_least_charge(edges, f_one, budget_one, delta_f, mode):
    """The batch kernel gives every edge of a network of mixed budgets, a
    budget-1 edge and an f_e = 1.0 edge among them, the per-edge ceiling bit
    for bit, and so _least_charge's charge at every delta_phi."""
    edges = ((1, f_one), (budget_one, 1.0), *edges)
    tops = routing._ceilings(*zip(*edges), delta_f, mode)
    assert list(tops) == [routing._ceiling(b, f_e, delta_f, mode) for b, f_e in edges]
    for delta_phi in (0.001, 0.005, 0.01, 0.02):
        got = [routing._first_k(top, delta_phi) - 1 for top in tops]
        assert got == [routing._least_charge(b, f_e, delta_phi, delta_f, mode) for b, f_e in edges]


@pytest.mark.parametrize(
    "spec, batched",
    [
        # route-compare's network: 40 edges at budget 15
        (topology.TopologySpec(kind="grid", rows=5, cols=5, capacity=15, seed=3), True),
        # multiflow-mc's: 4 edges at budget 39
        (topology.TopologySpec(kind="grid", rows=2, cols=2, capacity=39, qubit_allowance=39, seed=3), False),
    ],
)
def test_charge_to_sink_same_on_both_sides_of_the_size_rule(monkeypatch, spec, batched):
    """_charge_to_sink returns the same LB(v) whether the ceilings come from
    one batch or edge by edge; the size rule batches the 5x5 grid only."""
    net = topology.generate(spec)
    s, t = min(net.nodes), max(net.nodes)
    rule, real, calls = routing._BATCH_SIZE, routing._ceilings, []
    monkeypatch.setattr(routing, "_ceilings", lambda *args: calls.append(args) or real(*args))
    for mode in ("optimal", "pumping"):
        for delta_phi, limit in ((0.001, 10**9), (0.01, 10**9), (0.01, 10)):
            calls.clear()
            monkeypatch.setattr(routing, "_BATCH_SIZE", rule)
            want = routing._charge_to_sink(net, s, t, limit, delta_phi, 1e-4, mode)
            assert bool(calls) == batched
            assert max(want.values()) > 0
            for size in (0, math.inf):  # every network batched, then none
                monkeypatch.setattr(routing, "_BATCH_SIZE", size)
                assert routing._charge_to_sink(net, s, t, limit, delta_phi, 1e-4, mode) == want


def test_table_rejects_bad_arguments():
    with pytest.raises(ValueError, match="below pair_budget"):
        edge_throughput_table(4, 5, 0.8, 0.01, 1e-4, 1e-4, "optimal")
    with pytest.raises(ValueError, match="pair_budget"):
        edge_throughput_table(4, 0, 0.8, 0.01, 1e-4, 1e-4, "optimal")
    with pytest.raises(ValueError, match="delta_phi"):
        edge_throughput_table(4, 4, 0.8, 0.0, 1e-4, 1e-4, "optimal")
    with pytest.raises(ValueError, match="unknown schedule mode"):
        edge_throughput_table(4, 4, 0.8, 0.01, 1e-4, 1e-4, "greedy")


def test_table_tiny_step_completes():
    # delta_phi at discretization_steps' floor: a per-k scan would need
    # ~1e12 steps to reach the raw pair, the staircase a few per entry
    steps = table(39, 0.55, 1e-12)
    assert steps[-1][1].b == 1
    assert steps[-1][0] == pytest.approx(-pseudo_fidelity(0.55) / 1e-12, rel=1e-9)
    # each step is where the per-k pick first improves, to the exact k
    oracle = LazyThroughputTable(39, 0.55, 1e-12)
    prev = None
    for k, e in steps:
        assert _entry_key(oracle.entry(k)) == _entry_key(e)
        assert _entry_key(oracle.entry(k - 1)) == _entry_key(prev)
        prev = e


# --- single-path search ---


def test_single_edge_route():
    net = QuantumNetwork(
        [NodeSpec("s", 2), NodeSpec("t", 2)], [EdgeSpec("s", "t", 2, 0.9)]
    )
    aux = build_aux_graph(net, "s", "t")
    plan = min_cost_path(aux, pseudo_fidelity(0.85), math.log(1.0), 0.01, 0.01)
    assert plan.nodes == ["s", "t"]
    assert plan.pair_counts == [1]
    assert plan.cost == 1.0
    assert plan.fidelity == 0.9
    assert plan.throughput == pytest.approx(1.0)


def test_single_edge_needs_both_pairs_for_throughput():
    net = QuantumNetwork(
        [NodeSpec("s", 2), NodeSpec("t", 2)], [EdgeSpec("s", "t", 2, 0.9)]
    )
    aux = build_aux_graph(net, "s", "t")
    plan = min_cost_path(aux, pseudo_fidelity(0.85), math.log(1.5), 0.01, 0.01)
    assert plan.pair_counts == [2] and plan.trees == [LEAF]
    assert plan.throughput == pytest.approx(2.0)
    assert plan.cost == 2.0


def test_example_instance_plan():
    net = line_net()
    aux = build_aux_graph(net, "s", "t")
    phi0 = pseudo_fidelity(0.75)
    psi0 = math.log(0.8)
    dphi, dpsi = discretization_steps(aux, phi0, psi0, 0.05)
    plan = min_cost_path(aux, phi0, psi0, dphi, dpsi)
    assert plan.nodes == ["s", "v", "u", "t"]
    assert plan.pair_counts == [2, 1, 2]
    assert plan.cost == 5.0
    f2 = purified_fidelity(0.85, 0.85)
    assert plan.edge_fidelities[0] == pytest.approx(f2, abs=1e-12)
    assert plan.trees[1] == LEAF
    assert plan.throughput == pytest.approx(purification_success_prob(0.85, 0.85))
    # the plan encodes onto the auxiliary graph it came from
    aux.encode_path(plan.nodes, plan.pair_counts)


def test_infeasible_returns_none():
    net = QuantumNetwork(
        [NodeSpec("s", 1), NodeSpec("t", 1)], [EdgeSpec("s", "t", 1, 0.8)]
    )
    aux = build_aux_graph(net, "s", "t")
    assert min_cost_path(aux, pseudo_fidelity(0.95), 0.0, 0.005, 0.005) is None
    assert brute_force_route(net, "s", "t", 0.95, 1.0) is None


def test_disconnected_endpoints():
    net = QuantumNetwork(
        [NodeSpec(i, 2) for i in range(4)],
        [EdgeSpec(0, 1, 1, 0.9), EdgeSpec(2, 3, 1, 0.9)],
    )
    aux = build_aux_graph(net, 0, 3)
    assert min_cost_path(aux, pseudo_fidelity(0.8), 0.0, 0.01, 0.01) is None


def test_swap_probability_in_throughput():
    net = QuantumNetwork(
        [NodeSpec("s", 2), NodeSpec("v", 4, 0.8), NodeSpec("t", 2)],
        [EdgeSpec("s", "v", 2, 0.9), EdgeSpec("v", "t", 2, 0.9)],
    )
    aux = build_aux_graph(net, "s", "t")
    plan = min_cost_path(aux, pseudo_fidelity(0.8), math.log(0.5), 0.01, 0.01)
    assert plan.pair_counts == [1, 1]
    assert plan.throughput == pytest.approx(0.8)  # min edge yield 1, one swap
    # swap loss must make q0=0.9 unreachable with single pairs
    plan2 = min_cost_path(aux, pseudo_fidelity(0.8), math.log(0.9), 0.01, 0.01)
    assert plan2 is None or plan2.throughput >= 0.9 - 1e-9


# --- oracle and batch comparison ---


def test_oracle_line_unique_assignment():
    net = line_net(qubits=(1, 2, 1), caps=(1, 1), fids=(0.95, 0.95))
    plan = brute_force_route(net, "s", "u", 0.85, 0.5)
    assert plan.nodes == ["s", "v", "u"]
    assert plan.pair_counts == [1, 1]
    assert plan.cost == 2.0
    sw = 0.25 * (1 + 3 * ((4 * 0.95 - 1) / 3) ** 2)
    assert plan.fidelity == pytest.approx(sw, abs=1e-12)


def test_oracle_resource_bound():
    big = QuantumNetwork(
        [NodeSpec(i, 2) for i in range(9)],
        [EdgeSpec(i, i + 1, 1, 0.9) for i in range(8)],
    )
    with pytest.raises(ValueError):
        brute_force_route(big, 0, 8, 0.8, 1.0)
    deep = QuantumNetwork(
        [NodeSpec(0, 5), NodeSpec(1, 5)], [EdgeSpec(0, 1, 2, 0.9)]
    )
    with pytest.raises(ValueError):
        brute_force_route(deep, 0, 1, 0.8, 1.0)


def test_search_matches_oracle_on_seeded_instances():
    eps = 0.05
    q0 = 0.01  # throughput non-binding: cost optimality must be exact
    checked = 0
    for seed in range(14):
        net, s, t, f0 = rand_net(seed)
        oracle = brute_force_route(net, s, t, f0, q0)
        aux = build_aux_graph(net, s, t)
        phi0, psi0 = pseudo_fidelity(f0), math.log(q0)
        dphi, dpsi = discretization_steps(aux, phi0, psi0, eps)
        plan = min_cost_path(aux, phi0, psi0, dphi, dpsi, delta_f=1e-6, delta_xi=1e-6)
        f_slack = inverse_pseudo_fidelity((1 + eps) * phi0)
        if oracle is not None:
            assert plan is not None, seed
            assert plan.cost <= oracle.cost + 1e-9, seed
            checked += 1
        if plan is not None:
            assert plan.fidelity >= f_slack - 5e-5, seed
            assert plan.phi_hat >= phi0 - len(net.nodes) * dphi - 1e-9, seed
    assert checked >= 5  # the batch must actually exercise feasible cases


def _former_max_allocation(aux, edge):
    """routing._max_allocation as it was: a scan of every head copy."""
    best = 0
    for tail, head in ((edge.u, edge.v), (edge.v, edge.u)):
        if head == aux.s or tail == aux.t:
            continue
        tail_idx = aux.copy_indices(tail)
        head_idx = aux.copy_indices(head)
        if not tail_idx or not head_idx:
            continue
        q_head = aux.net.node(head).qubits
        cap = min(max(tail_idx), edge.capacity)
        for j in head_idx:
            m = q_head - j
            if 1 <= m <= cap:
                best = max(best, m)
    return best


def test_max_allocation_matches_a_scan_of_every_copy():
    """The bisection over the ascending copy indices finds the pair count
    the former scan found, on edges at s and t too, and 0 where no copy
    fits (deltaq 5 on small allowances)."""
    seen = Counter()
    for deltaq in (1, 5):
        for seed in range(6):
            for capacity, allowance in ((15, None), (39, 39), (7, 2), (12, 3)):
                spec = topology.TopologySpec(
                    kind="grid", rows=3, cols=3, capacity=capacity, qubit_allowance=allowance, seed=seed
                )
                net = topology.generate(spec)
                s, t = random.Random(seed).sample(sorted(net.nodes), 2)
                aux = build_aux_graph(net, s, t, deltaq)
                for e in net.edges:
                    got = routing._max_allocation(aux, e)
                    assert got == _former_max_allocation(aux, e), (deltaq, seed, capacity, e)
                    end = "s" if aux.s in (e.u, e.v) else "t" if aux.t in (e.u, e.v) else "inner"
                    seen[deltaq, end, got > 0] += 1
    for deltaq in (1, 5):
        assert all(seen[deltaq, end, True] for end in ("s", "t", "inner"))
    assert seen[5, "inner", False] > 0


def test_monotone_in_fidelity_threshold():
    net, s, t, _ = rand_net(3)
    aux = build_aux_graph(net, s, t)
    prev_cost = 0.0
    seen_infeasible = False
    for f0 in (0.70, 0.75, 0.80, 0.85, 0.90):
        plan = min_cost_path(aux, pseudo_fidelity(f0), math.log(0.2), 0.005, 0.005)
        if plan is None:
            seen_infeasible = True
            continue
        assert not seen_infeasible  # feasibility is monotone too
        assert plan.cost >= prev_cost - 1e-9
        prev_cost = plan.cost


def test_monotone_in_throughput_threshold():
    net = line_net(qubits=(4, 6, 6, 4), caps=(4, 4, 4), fids=(0.9, 0.9, 0.9))
    aux = build_aux_graph(net, "s", "t")
    phi0 = pseudo_fidelity(0.78)
    prev_cost = 0.0
    seen_infeasible = False
    for q0 in (0.3, 0.8, 1.2, 1.8, 2.4):
        plan = min_cost_path(aux, phi0, math.log(q0), 0.005, 0.005)
        if plan is None:
            seen_infeasible = True
            continue
        assert not seen_infeasible
        assert plan.cost >= prev_cost - 1e-9
        prev_cost = plan.cost


def test_deltaq_never_improves():
    net = line_net(qubits=(4, 6, 6, 4), caps=(4, 4, 4), fids=(0.9, 0.9, 0.9))
    phi0, psi0 = pseudo_fidelity(0.83), math.log(0.5)
    fine = min_cost_path(build_aux_graph(net, "s", "t", 1), phi0, psi0, 0.002, 0.002)
    coarse = min_cost_path(build_aux_graph(net, "s", "t", 2), phi0, psi0, 0.002, 0.002)
    assert fine is not None
    if coarse is not None:
        assert fine.cost <= coarse.cost + 1e-9


# --- k-path variant ---


def parallel_net():
    # capacity 1 on the good route: its only plan is one pair per edge, so
    # the runner-up must take the longer-purified route through b
    nodes = [NodeSpec(n, 4) for n in ("s", "a", "b", "t")]
    edges = [
        EdgeSpec("s", "a", 1, 0.92),
        EdgeSpec("a", "t", 1, 0.92),
        EdgeSpec("s", "b", 2, 0.88),
        EdgeSpec("b", "t", 2, 0.88),
    ]
    return QuantumNetwork(nodes, edges)


def test_k_paths_r1_equals_min_cost():
    for seed in (0, 1, 2):
        net, s, t, f0 = rand_net(seed)
        aux = build_aux_graph(net, s, t)
        phi0, psi0 = pseudo_fidelity(f0), math.log(0.2)
        single = min_cost_path(aux, phi0, psi0, 0.005, 0.005)
        multi = k_paths(aux, phi0, psi0, (0.005, 0.005), 1)
        if single is None:
            assert multi == []
            continue
        assert len(multi) == 1
        assert multi[0].nodes == single.nodes
        assert multi[0].pair_counts == single.pair_counts
        assert multi[0].cost == single.cost


def test_k_paths_parallel_routes():
    aux = build_aux_graph(parallel_net(), "s", "t")
    plans = k_paths(aux, pseudo_fidelity(0.8), math.log(0.3), (0.004, 0.004), 2)
    assert len(plans) == 2
    assert plans[0].nodes == ["s", "a", "t"] and plans[0].cost == 2.0
    assert plans[1].nodes == ["s", "b", "t"] and plans[1].cost == 3.0
    assert plans[1].fidelity >= 0.8 - 0.01


def test_k_paths_costs_bounded_by_optimum():
    net, s, t, f0 = rand_net(5)
    aux = build_aux_graph(net, s, t)
    phi0, psi0 = pseudo_fidelity(f0), math.log(0.2)
    plans = k_paths(aux, phi0, psi0, (0.005, 0.005), 3)
    if plans:
        oracle = brute_force_route(net, s, t, f0, 0.2)
        costs = [p.cost for p in plans]
        assert costs == sorted(costs)
        if oracle is not None:
            assert costs[0] <= oracle.cost + 1e-9


# --- label bookkeeping invariants ---


def test_label_invariants():
    net, s, t, f0 = rand_net(7)
    aux = build_aux_graph(net, s, t)
    phi0, psi0 = pseudo_fidelity(f0), math.log(0.5)
    dphi, dpsi = 0.01, 0.01
    stats = {}
    min_cost_path(aux, phi0, psi0, dphi, dpsi, stats=stats)
    psi_max = max(math.log(e.capacity) for e in net.edges)
    bound = (math.ceil(abs(phi0) / dphi) + 1) * (
        math.ceil((psi_max + dpsi - psi0) / dpsi) + 2
    )
    for vertex, labels in stats["labels"].items():
        assert len(labels) <= bound
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                a_dom_b = (
                    a[0] <= b[0] + 1e-12
                    and a[1] >= b[1] - 1e-12
                    and a[3] >= b[3] - 1e-12
                )
                b_dom_a = (
                    b[0] <= a[0] + 1e-12
                    and b[1] >= a[1] - 1e-12
                    and b[3] >= a[3] - 1e-12
                )
                assert not (a_dom_b or b_dom_a), (vertex, a, b)
    assert stats["expanded"] <= stats["pushed"] + 1


# --- the former label engine, kept as an oracle for _search ---
#
# It builds every candidate label before testing it against the pool, and
# walks the arcs and throughput tables again for every label it expands.
# _search tests the raw values first, memoizes arcs and successors per
# search, drops the steps whose charge plus a lower bound on the charge on
# to t exceeds the label's phi credit, and cuts the arcs whose reach (cost
# plus a lower bound on the cost on to t) exceeds its cost cap; the plans of
# the two must agree, and so must the admissions, kills and heap pops of the
# labels it keeps below the cap.

_TOL = routing._TOL
_INF = routing._INF


class _OracleLabel:
    __slots__ = (
        "cost", "phi_credit", "psi_b", "psi_hat", "path", "vertex", "parent", "arc", "alive", "copy"
    )

    def __init__(self, cost, phi_credit, psi_b, psi_hat, path, vertex, parent, arc):
        self.cost = cost
        self.phi_credit = phi_credit
        self.psi_b = psi_b
        self.psi_hat = psi_hat
        self.path = path
        self.vertex = vertex
        self.parent = parent
        self.arc = arc  # (m, k, edge, schedule entry) of the arc into vertex
        self.alive = True
        # remaining-qubit copy index; the sink counts as copy 0
        self.copy = vertex[1] if vertex[0] != "__virtual__" else 0


def _dominates(a: _OracleLabel, b: _OracleLabel) -> bool:
    return (
        a.cost <= b.cost + _TOL
        and a.phi_credit >= b.phi_credit - _TOL
        and a.psi_hat >= b.psi_hat - _TOL
    )


def _dominated_by(pool: list, lab: _OracleLabel, R: int) -> bool:
    """Whether >= R other alive labels of the pool at the same or a higher
    remaining-qubit copy dominate lab (a higher copy reaches every arc a
    lower one does, at identical terms)."""
    count = 0
    for e in pool:
        if e is not lab and e.alive and e.copy >= lab.copy and _dominates(e, lab):
            count += 1
            if count >= R:
                return True
    return False


def _try_insert(pool: list, lab: _OracleLabel, R: int) -> bool:
    """Relaxed-dominance insert into the pool of one original node.

    A label is admitted unless it is _dominated_by R labels of the pool.
    After an insert every alive label has fewer than R alive dominators,
    so the newcomer can push over that line only the labels it dominates
    itself, at a copy index <= its own: only those are recounted, in pool
    order, which kills exactly the labels a recount of the whole pool
    would.  With R = 1 the newcomer alone is enough to kill them.
    """
    if _dominated_by(pool, lab, R):
        return False
    pool[:] = [e for e in pool if e.alive]
    pool.append(lab)
    for e in pool[:-1]:
        if e.copy <= lab.copy and _dominates(lab, e) and (R == 1 or _dominated_by(pool, e, R)):
            e.alive = False
    return True


def _oracle_search(
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
    keep=lambda lab: True,
) -> list[_OracleLabel]:
    """The former search, which prunes nothing.  Its stats= count and
    list only the labels that keep accepts (the root always counts); the
    alive ones are grouped by vertex in push order, which within a vertex
    is pool order."""
    if phi0 > _TOL:
        raise ValueError("phi0 must be <= 0")
    if delta_phi <= 0 or delta_psi <= 0:
        raise ValueError("step sizes must be positive")
    if R < 1:
        raise ValueError("R must be >= 1")
    net = aux.net
    pools: dict = {}
    counter = itertools.count()
    heap: list = []
    expanded = 0
    kept: list = []  # the pushed labels keep accepts, in push order, the root first

    def push(lab: _OracleLabel):
        key = lab.vertex[0] if lab.vertex[0] != "__virtual__" else lab.vertex
        if _try_insert(pools.setdefault(key, []), lab, R):
            heapq.heappush(
                heap,
                (lab.cost, len(lab.path) - 1, tuple(map(str, lab.path)), next(counter), lab),
            )
            if keep(lab):
                kept.append(lab)

    source_copies = aux.copy_indices(aux.s)
    if source_copies:
        root = _OracleLabel(0.0, 0.0, _INF, _INF, (aux.s,), (aux.s, max(source_copies)), None, None)
        pools[aux.s] = [root]
        kept.append(root)
        heapq.heappush(heap, (0.0, 0, (str(aux.s),), next(counter), root))

    results: list[_OracleLabel] = []
    while heap:
        _, _, _, _, lab = heapq.heappop(heap)
        if not lab.alive:
            continue
        if lab.vertex == VIRTUAL_SINK:
            results.append(lab)
            if len(results) >= R:
                break
            continue
        expanded += lab.parent is None or keep(lab)
        for head, m, edge in aux.out_arcs(lab.vertex):
            if edge is None:
                # zero-cost virtual hop into the sink
                push(
                    _OracleLabel(lab.cost, lab.phi_credit, lab.psi_b, lab.psi_hat, lab.path, head, lab, None)
                )
                continue
            v, _ = head
            if v in lab.path:
                continue
            kmax = int(math.floor((lab.phi_credit - phi0) / delta_phi + 1e-9)) + 1
            if kmax < 1:
                continue
            budget = min(edge.capacity, net.node(edge.u).qubits, net.node(edge.v).qubits)
            steps = routing.edge_throughput_table(
                budget, m, edge.fidelity, delta_phi, delta_f, delta_xi, mode
            )
            psi_v = 0.0 if v == aux.t else math.log(net.node(v).swap_prob)
            for k, entry in steps:
                if k > kmax:
                    break
                psi_e = math.log(entry.ratio() * m)
                if lab.psi_b == _INF:
                    psi_hat2 = _ceil_to_grid(psi_v + psi_e, delta_psi)
                elif psi_e <= lab.psi_b:
                    psi_hat2 = _ceil_to_grid(
                        psi_v + lab.psi_hat + psi_e - lab.psi_b, delta_psi
                    )
                else:
                    psi_hat2 = _ceil_to_grid(psi_v + lab.psi_hat, delta_psi)
                if psi_hat2 < psi0 - _TOL:
                    continue
                phi_credit2 = lab.phi_credit - (k - 1) * delta_phi
                if phi_credit2 < phi0 - 1e-9:
                    continue
                push(
                    _OracleLabel(
                        lab.cost + edge.cost_of(m),
                        phi_credit2,
                        min(psi_e, lab.psi_b),
                        psi_hat2,
                        lab.path + (v,),
                        head,
                        lab,
                        (m, k, edge, entry),
                    )
                )

    if stats is not None:
        stats["pushed"] = len(kept) - bool(source_copies)
        stats["expanded"] = expanded
        stats.update(_label_stats(kept))
    return results


def _label_stats(labels) -> dict:
    """alive_per_vertex and labels of stats= over the alive ones of labels,
    grouped by vertex in the order given."""
    per_vertex: dict = {}
    for e in labels:
        if e.alive:
            per_vertex.setdefault(e.vertex, []).append(e)
    return {
        "alive_per_vertex": {v: len(ls) for v, ls in per_vertex.items()},
        "labels": {
            v: [(e.cost, e.phi_credit, e.psi_b, e.psi_hat, e.path) for e in ls]
            for v, ls in per_vertex.items()
        },
    }


def _reach(lab, togo) -> float:
    """A label's reach as the module docstring defines it: the largest
    cost + togo(v) along its path, 0 at the root; a sink label's is its
    parent's."""
    if lab.parent is None:
        return 0.0
    reach = _reach(lab.parent, togo)
    if lab.vertex == VIRTUAL_SINK:
        return reach
    return max(reach, lab.cost + togo.get(lab.vertex[0], math.inf))


class _HeapLog:
    """heapq as _search calls it, logging per pass the labels pushed (the
    root first; its push starts a pass) and the labels popped alive and
    expanded."""

    def __init__(self):
        self.passes: list = []

    def heappush(self, heap, item):
        lab = item[-1]
        if isinstance(lab, routing._Label):
            if lab.parent is None:
                self.passes.append(([], []))
            self.passes[-1][0].append(lab)
        heapq.heappush(heap, item)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        lab = item[-1]
        if isinstance(lab, routing._Label) and lab.alive and lab.vertex != VIRTUAL_SINK:
            self.passes[-1][1].append(lab)
        return item


def _logged_search(*args):
    """_search(*args) with a stats= dict, and the final pass's pushes and
    expansions, from a _HeapLog."""
    log = _HeapLog()
    stats: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "heapq", log)
        found = routing._search(*args[:8], stats, *args[8:])
    pushed, expanded = log.passes[-1] if log.passes else ([], [])
    return found, stats, pushed, expanded


def _rand_case(seed):
    net, s, t, f0 = rand_net(seed)
    return build_aux_graph(net, s, t), f0


def _grid_case(side, deltaq_capacity, seed, f0):
    deltaq, capacity = deltaq_capacity
    spec = topology.TopologySpec(kind="grid", rows=side, cols=side, capacity=capacity, seed=seed)
    net = topology.generate(spec)
    s, t = random.Random(seed).sample(sorted(net.nodes), 2)
    return build_aux_graph(net, s, t, deltaq), f0


def _weighted_case(seed, weights):
    """A random net whose edges cost weight * m, the weight drawn from
    weights: decimals whose sums round differently by order, or weights
    apart by less than _TOL, so that path costs tie only up to _TOL."""
    net, s, t, f0 = rand_net(seed)
    rng = random.Random(-seed)
    edges = [
        EdgeSpec(e.u, e.v, e.capacity, e.fidelity, ("weighted", rng.choice(weights))) for e in net.edges
    ]
    return build_aux_graph(QuantumNetwork(list(net.nodes.values()), edges), s, t), f0


# A search's size grows with the copies per node, Q_v / deltaq; at most three
# copies per neighbour keep one example well under a second (a 4x4 grid at
# capacity 15 and deltaq 1 takes about a minute).
_search_cases = st.one_of(
    st.builds(_rand_case, st.integers(0, 10**6)),
    st.builds(
        _grid_case,
        st.sampled_from([3, 4]),
        st.integers(1, 5).flatmap(
            lambda dq: st.tuples(st.just(dq), st.integers(1, min(15, 3 * dq)))
        ),
        st.integers(0, 10**6),
        st.sampled_from([0.8, 0.85, 0.9]),
    ),
    st.builds(
        _weighted_case,
        st.integers(0, 10**6),
        st.sampled_from([(0.1, 0.2, 0.3, 0.7), (1.0, 1.0 + 4e-13, 1.0 - 3e-13, 2.0)]),
    ),
)
_steps = st.sampled_from([0.005, 0.01, 0.02])


def _plan_key(plan):
    return (plan.nodes, plan.pair_counts, plan.trees, plan.cost, plan.phi_hat, plan.psi_hat)


@settings(max_examples=80, deadline=None)
@given(_search_cases, st.integers(1, 3), st.sampled_from(["optimal", "pumping"]), _steps, _steps)
@example(_grid_case(4, (5, 15), 3, 0.85), 3, "optimal", 0.005, 0.005)  # ~1,400 labels pushed
@example(_grid_case(3, (5, 15), 4, 0.8), 3, "optimal", 0.005, 0.005)
@example(_grid_case(3, (5, 15), 3, 0.8), 3, "optimal", 0.005, 0.005)  # steps skipped, labels killed
@example(_weighted_case(287, (0.1, 0.2, 0.3, 0.7)), 3, "optimal", 0.01, 0.01)  # a reach is its parent's
def test_search_matches_former_search(case, R, mode, delta_phi, delta_psi):
    """Testing dominance on raw values before a label is built, the
    per-search arc and successor memos, the phi lower bound and the cost
    cap change no plan, and no admission, kill or heap pop of a label both
    bounds keep: the plans equal the former search's, and the final pass's
    pushes, expansions and alive labels (in pool order) among the labels
    whose reach is at most the results' (all of them when the search
    returns fewer than R plans) equal the former search's among the labels
    that also pass the phi bound.  That keeps a label whose step k into v
    from a parent with credit c has k - 1 + LB(v) <= floor((c - phi0 +
    2e-9)/delta_phi).  stats= describes that final pass."""
    aux, f0 = case
    phi0 = pseudo_fidelity(f0)
    args = (aux, phi0, math.log(0.2), delta_phi, delta_psi, R, 1e-4, 1e-4)
    phi_low = phi0 - 2e-9
    limit = int(-phi_low / delta_phi)
    to_sink = routing._charge_to_sink(aux.net, aux.s, aux.t, limit, delta_phi, 1e-4, mode)
    togo = routing._cost_to_sink(aux)

    got, got_stats, pushed, expanded = _logged_search(*args, mode)
    top = max(lab.reach for lab in got) if len(got) == R else math.inf

    def low(lab):
        return _reach(lab, togo) <= top

    def keep(lab):
        if not low(lab):
            return False
        if lab.vertex == VIRTUAL_SINK:
            return True
        room = int((lab.parent.phi_credit - phi_low) / delta_phi)
        return lab.arc[1] - 1 + to_sink.get(lab.vertex[0], math.inf) <= room

    want_stats = {}
    want = _oracle_search(*args, want_stats, mode, keep)
    assert [_plan_key(routing._plan_from_label(aux, lab, delta_phi)) for lab in got] == [
        _plan_key(routing._plan_from_label(aux, lab, delta_phi)) for lab in want
    ]
    assert all(lab.reach == _reach(lab, togo) for lab in pushed)
    # stats= counts the final pass
    assert got_stats["pushed"] == len(pushed[1:]) and got_stats["expanded"] == len(expanded)
    assert got_stats["alive_per_vertex"] == _label_stats(pushed)["alive_per_vertex"]
    kept = [lab for lab in pushed if low(lab)]
    got_low = {"pushed": len(kept[1:]), "expanded": sum(map(low, expanded)), **_label_stats(kept)}
    for key in ("pushed", "expanded", "alive_per_vertex", "labels"):
        assert got_low[key] == want_stats[key], key
    assert list(got_low["labels"]) == list(want_stats["labels"])


def test_charge_to_sink_is_least_path_charge():
    """LB(v) is the least sum of the per-edge least charges over the
    simple v-t paths that avoid s, found by enumerating them, and exactly
    the nodes with such a path and LB(v) <= limit have one."""
    cut = 0
    for seed in range(8):
        net, s, t, _ = rand_net(seed)
        for mode in ("optimal", "pumping"):
            want = {}
            for v in net.nodes:
                for nodes in routing._simple_paths(net, v, t):
                    if s in nodes:
                        continue
                    total = 0
                    for a, b in zip(nodes, nodes[1:]):
                        e = net.edge(a, b)
                        budget = min(e.capacity, net.node(a).qubits, net.node(b).qubits)
                        total += routing._least_charge(budget, e.fidelity, 0.005, 1e-4, mode)
                    want[v] = min(total, want.get(v, total))
            for limit in (10**9, max(max(want.values()) - 1, 0)):
                got = routing._charge_to_sink(net, s, t, limit, 0.005, 1e-4, mode)
                assert got == {v: d for v, d in want.items() if d <= limit}, (seed, mode, limit)
                cut += len(got) < len(want) and max(got.values()) > 0
    assert cut > 0  # some limit leaves out nodes and keeps a charged one


def test_cost_to_sink_is_least_path_cost():
    """togo(v) is the least cost of the simple v-t paths that avoid s (of
    the s-t paths for v = s), found by enumerating them, each edge at the
    fewest pairs an arc into one of its ends allocates: one pair when
    deltaq = 1.  Every arc of the auxiliary graph allocates at least that
    many, so the bound holds; exactly the nodes with such a path have one."""
    cases = [_weighted_case(seed, (0.1, 0.2, 0.3, 0.7)) for seed in range(6)]
    # with Q_v = degree * 7 and deltaq = 3 the fewest pairs differ by node
    cases += [_grid_case(3, dq_cap, seed, 0.8) for dq_cap in ((3, 7), (5, 15)) for seed in range(3)]
    above_one = uneven = 0
    for n, (aux, _) in enumerate(cases):
        net, s, t = aux.net, aux.s, aux.t
        fewest = {}  # the fewest pairs an arc into a node allocates
        for v in net.nodes:
            counts = [net.node(v).qubits - j for j in aux.copy_indices(v) if j < net.node(v).qubits]
            fewest[v] = min(counts, default=1)
            assert aux.deltaq > 1 or fewest[v] == 1
        above_one += max(fewest.values()) > 1
        uneven += any(fewest[e.u] != fewest[e.v] for e in net.edges)
        for v in net.nodes:
            for j in aux.copy_indices(v):
                for head, m, edge in aux.out_arcs((v, j)):
                    assert edge is None or m >= min(fewest[edge.u], fewest[edge.v]), n
        want = {}
        for v in net.nodes:
            for nodes in routing._simple_paths(net, v, t):
                if s not in nodes[1:]:
                    edges = [net.edge(a, b) for a, b in zip(nodes, nodes[1:])]
                    total = sum(e.cost_of(min(fewest[e.u], fewest[e.v], e.capacity)) for e in edges)
                    want[v] = min(total, want.get(v, total))
        got = routing._cost_to_sink(aux)
        assert got.keys() == want.keys(), n
        for v, cost in want.items():
            assert got[v] == pytest.approx(cost, rel=1e-15, abs=0), (n, v)
    # the deltaq = 3 and 5 grids charge more than one pair, and the deltaq = 3
    # ones charge an edge the fewer of its two ends' counts
    assert above_one == 6 and uneven == 3


def _instance_46():
    """Flow 0 of multiflow-mc instance 46 (2x2 grid, capacity and allowance
    39, seed 46), as flow_candidates searches it."""
    from entroute.multiflow import _PSI_FLOOR

    spec = topology.TopologySpec(kind="grid", rows=2, cols=2, capacity=39, qubit_allowance=39, seed=46)
    net = topology.generate(spec)
    flow = topology.sample_flows(net, 3, seed=47, f0=0.8, r_k=3)[0]
    aux = build_aux_graph(net, flow.source, flow.destination)
    phi0 = pseudo_fidelity(flow.f0)
    deltas = discretization_steps(aux, phi0, _PSI_FLOOR, 0.2)
    return (aux, phi0, _PSI_FLOOR, *deltas, flow.r_k, 1e-4, 1e-4)


def test_cost_cap_keeps_instance_46():
    """The R = 3 query whose third plan lazy generation changed (two plans
    of cost 3 tie): under the cap it is still [1, 0, 2] with pair counts
    [2, 1], as in the uncapped former search.  The second pass is certified
    at the third plan's cost, so a cap that cut an arc it should keep would
    end uncapped (cap inf) or in a third pass."""
    args = _instance_46()
    aux, delta_phi = args[0], args[3]
    stats: dict = {}
    got = routing._search(*args, stats)
    want = _oracle_search(*args, None)
    plans = [routing._plan_from_label(aux, lab, delta_phi) for lab in got]
    assert [_plan_key(p) for p in plans] == [
        _plan_key(routing._plan_from_label(aux, lab, delta_phi)) for lab in want
    ]
    assert (plans[2].nodes, plans[2].pair_counts, plans[2].cost) == ([1, 0, 2], [2, 1], 3.0)
    assert (stats["passes"], stats["cap"]) == (2, 3.0) and stats["capped"] > 0


def test_cost_cap_lets_through_every_arc_up_to_the_cap():
    """Queries whose cheapest path meets the thresholds: the first pass, at
    togo(s), keeps every arc that reaches no higher, so it returns that
    path, while it cuts some dearer arcs."""
    for seed in (1, 2, 3, 4, 10):
        aux, f0 = _rand_case(seed)
        stats: dict = {}
        plan = min_cost_path(aux, pseudo_fidelity(f0), math.log(0.2), 0.005, 0.005, stats=stats)
        assert plan.cost == routing._cost_to_sink(aux)[aux.s] == stats["cap"], seed
        assert stats["passes"] == 1 and stats["capped"] > 0, seed


def test_cost_cap_deepens_past_an_infinite_cost():
    """The only feasible path has an edge of infinite weight: the cap cuts
    it (its reach is inf) and the search reruns uncapped, as the former
    search returns it."""
    nodes = [NodeSpec(n, 3) for n in "svuta"]
    edges = [
        EdgeSpec("s", "v", 2, 0.97), EdgeSpec("v", "u", 2, 0.97, ("weighted", math.inf)),
        EdgeSpec("u", "t", 2, 0.97), EdgeSpec("s", "a", 1, 0.6), EdgeSpec("a", "t", 1, 0.6),
    ]
    aux = build_aux_graph(QuantumNetwork(nodes, edges), "s", "t")
    args = (aux, pseudo_fidelity(0.8), math.log(0.2), 0.01, 0.01, 1, 1e-4, 1e-4)
    stats: dict = {}
    got = routing._search(*args, stats)
    want = _oracle_search(*args, None)
    assert [(lab.path, lab.cost) for lab in got] == [(lab.path, lab.cost) for lab in want]
    assert got[0].cost == math.inf and (stats["passes"], stats["cap"]) == (2, math.inf)


def test_certificate_needs_a_gap_above_the_results():
    """A pass is exact when some T >= the results' reach has no arc let
    through in (T, T + gap] and every cut arc reaches above T + gap; reaches
    closer together than the gap carry T up with them."""
    gap = routing._TOL + routing._ROUND * 6
    assert routing._certified(5.0, [1.0, 5.0], 5.0 + 2 * gap)
    assert not routing._certified(5.0, [1.0, 5.0], 5.0 + gap / 2)
    # a chain of reaches under a gap apart reaches the cut arc
    chain = [5.0 + i * gap * 0.9 for i in range(1, 12)]  # up to 5 + 9.9 gaps
    assert not routing._certified(5.0, chain, 5.0 + 4 * gap)
    assert not routing._certified(5.0, chain, 5.0 + 10.5 * gap)
    assert routing._certified(5.0, chain, 5.0 + 11 * gap)
    # a gap in the chain is enough: T = 5 + 2.7 gaps
    assert routing._certified(5.0, chain[:3] + [c + gap for c in chain[3:]], 5.0 + 4 * gap)


def test_uncertified_pass_reruns_uncapped(monkeypatch):
    """A pass the certificate does not accept is rerun with no cap, which
    is the eager search: same plans, nothing cut."""
    args = _instance_46()
    aux, delta_phi = args[0], args[3]
    want = [_plan_key(routing._plan_from_label(aux, lab, delta_phi)) for lab in routing._search(*args, None)]
    monkeypatch.setattr(routing, "_certified", lambda *a: False)
    stats: dict = {}
    got = routing._search(*args, stats)
    assert [_plan_key(routing._plan_from_label(aux, lab, delta_phi)) for lab in got] == want
    assert (stats["passes"], stats["cap"], stats["capped"]) == (3, math.inf, 0)


def test_phi_bound_prunes_and_keeps_the_optimum():
    """A pinned 2x4 grid query on which the bound caps some arcs, and
    the search still returns the exhaustive oracle's path and allocation."""
    spec = topology.TopologySpec(
        kind="grid", rows=2, cols=4, capacity=3, qubit_allowance=1,
        fidelity_mu=0.95, fidelity_lo=0.9, seed=3,
    )
    net = topology.generate(spec)
    f0, q0 = 0.8, 0.01
    oracle = brute_force_route(net, 0, 7, f0, q0)
    aux = build_aux_graph(net, 0, 7)
    phi0, psi0 = pseudo_fidelity(f0), math.log(q0)
    dphi, dpsi = discretization_steps(aux, phi0, psi0, 0.05)
    stats = {}
    plan = min_cost_path(aux, phi0, psi0, dphi, dpsi, delta_f=1e-6, delta_xi=1e-6, stats=stats)
    assert stats["pruned"] > 0
    assert (plan.nodes, plan.pair_counts, plan.cost) == (oracle.nodes, oracle.pair_counts, oracle.cost)


# --- label engine: frontier nesting, incremental recount, bounded caches ---


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([candidate_frontier, pumping_frontier]),
    st.floats(0.5, 1.0),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([(1e-4, 1e-4), (1e-3, 1e-3), (1e-2, 1e-3), (1e-3, 1e-2)]),
)
def test_frontier_nests_by_budget(build, f_e, a, b, grid):
    """Filtering frontier(N) to b <= m equals a fresh frontier(m), entry for
    entry and in order; reading every pair count's table off one frontier
    per edge relies on it."""
    m, n = min(a, b), max(a, b)
    big = [e for e in build(n, f_e, *grid) if e.b <= m]
    fresh = build(m, f_e, *grid)
    key = lambda e: (e.b, e.f_hat, e.xi_hat, e.tree)  # noqa: E731
    assert [key(e) for e in big] == [key(e) for e in fresh]


def test_frontier_cache_serves_smaller_budgets():
    f_e, grid = 0.8123, (1e-3, 1e-3)
    big = routing._frontier(12, f_e, *grid, "optimal")
    small = routing._frontier(5, f_e, *grid, "optimal")
    assert small == tuple(candidate_frontier(5, f_e, *grid))
    assert small == tuple(e for e in big if e.b <= 5)
    # each call returns the build of its own budget, whatever came before
    assert routing._frontier(12, f_e, *grid, "optimal") is big
    assert routing._frontier(20, f_e, *grid, "optimal") == tuple(candidate_frontier(20, f_e, *grid))
    assert routing._frontier(5, f_e, *grid, "optimal") is small
    # one first-k order per (budget, delta_phi), shared by every pair count
    order = routing._first_k_order(12, f_e, 0.01, *grid, "optimal")
    assert [e for _, e in order] == sorted(big, key=lambda e: routing._first_k(e.f_hat, 0.01))
    assert routing._first_k_order(12, f_e, 0.01, *grid, "optimal") is order
    # another delta_phi sorts the same build
    other = routing._first_k_order(12, f_e, 0.02, *grid, "optimal")
    assert {id(e) for _, e in other} == {id(e) for e in big}
    for m in (1, 5, 12):
        steps = edge_throughput_table(12, m, f_e, 0.01, *grid, "optimal")
        assert all(any(e is x for x in big) for _, e in steps)
    with pytest.raises(ValueError):
        routing._frontier(3, f_e, *grid, "greedy")


def _full_recount_insert(pool, lab, R):
    """The former insert: after admitting a label, recount every pool
    label's alive dominators from scratch (no mirrors arise any more, so
    the old mirror collapse is left out)."""
    j = lab.copy
    dominators = 0
    for e in pool:
        if e.alive and e.copy >= j and _dominates(e, lab):
            dominators += 1
            if dominators >= R:
                return False
    pool[:] = [e for e in pool if e.alive]
    pool.append(lab)
    if R == 1:
        for e in pool[:-1]:
            if e.copy <= j and _dominates(lab, e):
                e.alive = False
    else:
        for e in pool[:-1]:
            cnt = 0
            je = e.copy
            for other in pool:
                if other is not e and other.alive and other.copy >= je:
                    if _dominates(other, e):
                        cnt += 1
                        if cnt >= R:
                            e.alive = False
                            break
    return True


_coarse_labels = st.lists(
    st.tuples(
        st.integers(0, 4),  # cost
        st.integers(-3, 0),  # phi credit, in steps
        st.integers(-3, 0),  # psi, in steps
        st.integers(0, 3),  # copy index
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_coarse_labels, st.integers(1, 3))
def test_incremental_recount_matches_full_recount(stream, R):
    oracle_pool, pool = [], []
    oracle_labels, labels = [], []
    for i, (cost, phi, psi, j) in enumerate(stream):
        cost, phi, psi = float(cost), 0.01 * phi, 0.1 * psi
        a = _OracleLabel(cost, phi, 0.0, psi, (i,), ("v", j), None, None)
        found = routing._scan(pool, cost, phi, psi, j, R)
        admitted = found is not None
        assert admitted == _full_recount_insert(oracle_pool, a, R), i
        if admitted:
            # only admitted labels are built; compare them with their twins
            b = routing._Label(cost, phi, 0.0, psi, (i,), (str(i),), ("v", j), j, None, None)
            routing._admit(pool, b, *found, R)
            labels.append(b)
            oracle_labels.append(a)
        assert [x.alive for x in labels] == [x.alive for x in oracle_labels], i
        assert [x.path for x in pool] == [x.path for x in oracle_pool if x.alive], i


@settings(max_examples=150, deadline=None)
@given(_coarse_labels, st.integers(2, 3))
@example([(1, 0, 0, 0)] * 2 + [(0, 0, 0, 0)], 2)
@example([(1, 0, 0, 1)] * 3 + [(0, 0, 0, 2)], 3)
def test_dominator_counts_stay_exact(stream, R):
    """After every admission each pool label holds the number of other pool
    labels at its copy index or higher that dominate it, and that is < R;
    the kills are the full recount's.  The examples admit R equal labels,
    then a better one: the first equal label it reaches dies, and that kill
    must take a dominator off the others, or they die too."""
    pool, oracle_pool, pairs = [], [], []
    for i, (cost, phi, psi, j) in enumerate(stream):
        cost, phi, psi = float(cost), 0.01 * phi, 0.1 * psi
        twin = _OracleLabel(cost, phi, 0.0, psi, (i,), ("v", j), None, None)
        found = routing._scan(pool, cost, phi, psi, j, R)
        admitted = _full_recount_insert(oracle_pool, twin, R)
        assert (found is not None) == admitted, i
        if admitted:
            b = routing._Label(cost, phi, 0.0, psi, (i,), (str(i),), ("v", j), j, None, None)
            routing._admit(pool, b, *found, R)
            pairs.append((b, twin))
        assert [b.alive for b, _ in pairs] == [twin.alive for _, twin in pairs], i
        for e in pool:
            count = sum(x is not e and x.copy >= e.copy and _dominates(x, e) for x in pool)
            assert e.dominators == count < R, i


def test_search_counts_every_kill():
    """The counters of stats= add up over the final pass: every pushed
    label (and the root) is alive in a pool unless it was killed, and only
    a killed label can be popped dead."""
    cases = [_grid_case(4, (5, 15), 3, 0.85), _grid_case(3, (5, 15), 3, 0.8)]
    cases += [_grid_case(3, (1, 3), 0, 0.8), _rand_case(3)]
    seen = {}
    for n, (aux, f0) in enumerate(cases):
        for R in (1, 2, 3):
            stats = seen[n, R] = {}
            args = (aux, pseudo_fidelity(f0), math.log(0.2), 0.005, 0.005, R, 1e-4, 1e-4)
            routing._search(*args, stats)
            assert sum(stats["alive_per_vertex"].values()) == stats["pushed"] + 1 - stats["killed"]
            assert stats["dead_pops"] <= stats["killed"]
    # two R = 3 examples of test_search_matches_former_search skip steps
    # after a rejection and kill labels by a count reaching R, below the cap
    for n in (0, 1):
        assert seen[n, 3]["skipped"] > 0 and seen[n, 3]["killed"] > 0
        assert seen[n, 3]["capped"] > 0
    for key in ("rejected", "dead_pops"):
        assert any(stats[key] > 0 for stats in seen.values()), key


def test_search_counts_pushes_over_every_pass():
    """pushed_all_passes counts the labels every pass pushed, as a heapq
    log sees them; pushed still counts the final pass alone, so the two
    are equal after one pass."""
    args46 = _instance_46()
    cases = [args46, args46[:5] + (1,) + args46[6:]]  # R = 3 and R = 1
    for seed in (1, 3, 10):
        aux, f0 = _rand_case(seed)
        cases.append((aux, pseudo_fidelity(f0), math.log(0.2), 0.005, 0.005, 1, 1e-4, 1e-4))
    passes = set()
    for args in cases:
        log = _HeapLog()
        stats: dict = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing, "heapq", log)
            routing._search(*args, stats)
        assert len(log.passes) == stats["passes"]
        assert stats["pushed_all_passes"] == sum(len(pushed) - 1 for pushed, _ in log.passes)
        assert stats["pushed"] == len(log.passes[-1][0]) - 1
        if stats["passes"] == 1:
            assert stats["pushed_all_passes"] == stats["pushed"]
        else:
            assert stats["pushed_all_passes"] > stats["pushed"]
        passes.add(stats["passes"])
    assert 1 in passes and max(passes) > 1


def test_dominance_is_inclusive_at_the_tolerance():
    """Values worse by exactly _TOL are still dominated, as by the former
    _dominates: in the admission test and in the kill of _admit alike."""
    cost, phi, psi = 2.0, -0.25, -0.5
    worse = (cost + _TOL, phi - _TOL, psi - _TOL)
    base = routing._Label(cost, phi, 0.0, psi, (0,), ("0",), ("v", 1), 1, None, None)
    edge = routing._Label(worse[0], worse[1], 0.0, worse[2], (1,), ("1",), ("v", 2), 2, None, None)
    assert _dominates(base, edge) and _dominates(edge, base)
    assert routing._scan([edge], cost, phi, psi, 1, 1) is None
    assert routing._scan([base], *worse, 2, 1) is not None  # lower copy
    pool = [base]
    routing._admit(pool, edge, *routing._scan(pool, *worse, 2, 1), 1)
    assert not base.alive and edge.alive


def test_k_paths_plans_are_distinct():
    checked = 0
    instances = [(build_aux_graph(parallel_net(), "s", "t"), 0.8)]
    instances += [
        (build_aux_graph(line_net(qubits=(4, 6, 6, 4), caps=(4, 4, 4)), "s", "t", dq), 0.78)
        for dq in (1, 2)
    ]
    for seed in range(10):
        net, s, t, f0 = rand_net(seed)
        instances.append((build_aux_graph(net, s, t), f0))
    for aux, f0 in instances:
        plans = k_paths(aux, pseudo_fidelity(f0), math.log(0.2), (0.005, 0.005), 3)
        keys = [(tuple(p.nodes), tuple(p.pair_counts), tuple(p.trees)) for p in plans]
        assert len(set(keys)) == len(keys), keys
        checked += len(plans) > 1
    assert checked >= 3  # several instances must return more than one plan


def test_routing_caches_stay_bounded():
    n = max(routing.TABLE_CACHE_SIZE, routing.FRONTIER_CACHE_SIZE, routing.FRONTS_CACHE_SIZE) + 500
    for i in range(n):
        f_e = 0.6 + 0.3 * i / n
        routing.edge_throughput_table(1, 1, f_e, 0.01, 1e-4, 1e-4, "optimal")
        routing._least_charge(1, f_e, 0.01, 1e-4, "optimal")
        routing._ceilings((1,), (f_e,), 1e-4, "optimal")
        routing._fronts(1, f_e)
    # every cache saw more keys than it may hold: each is full, not over
    for cache, bound in (
        (routing.edge_throughput_table, routing.TABLE_CACHE_SIZE),
        (routing._frontier, routing.FRONTIER_CACHE_SIZE),
        (routing._first_k_order, routing.FRONTIER_CACHE_SIZE),
        (routing._least_charge, routing.FRONTIER_CACHE_SIZE),
        (routing._ceilings, routing.CEILINGS_CACHE_SIZE),
        (routing._fronts, routing.FRONTS_CACHE_SIZE),
    ):
        info = cache.cache_info()
        assert info.maxsize == bound
        assert info.currsize == bound
