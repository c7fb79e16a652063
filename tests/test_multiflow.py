import itertools
import math
import sys
import threading
from collections import Counter
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroute import multiflow
from entroute.multiflow import (
    FlowProgram,
    FlowRequest,
    _evaluate,
    _judge,
    _trial_draws,
    build_program,
    flow_candidates,
    guarantee_conditions,
    ilp_solve,
    multiflow_solve,
    randomized_round,
    solve_lp,
)
from entroute.network import EdgeSpec, NodeSpec, QuantumNetwork
from entroute.topology import sample_flows
from entroute.verify import rounding_mc_instance


def star_net(qv=3, f=0.92, cap=2):
    nodes = [NodeSpec(n, 2) for n in ("s1", "t1", "s2", "t2")] + [NodeSpec("v", qv)]
    edges = [
        EdgeSpec("s1", "v", cap, f),
        EdgeSpec("v", "t1", cap, f),
        EdgeSpec("s2", "v", cap, f),
        EdgeSpec("v", "t2", cap, f),
    ]
    return QuantumNetwork(nodes, edges)


def star_flows(weights=(1.0, 1.0), rk=1):
    return [
        FlowRequest("k1", "s1", "t1", 0.8, weights[0], rk),
        FlowRequest("k2", "s2", "t2", 0.8, weights[1], rk),
    ]


def star_program(qv, weights=(1.0, 1.0), beta=0.75):
    net = star_net(qv=qv)
    flows = star_flows(weights)
    cands = [flow_candidates(net, fl, 0.25) for fl in flows]
    return build_program(flows, cands, net, beta)


def test_flow_request_validation():
    with pytest.raises(ValueError):
        FlowRequest("k", "a", "a", 0.8, 1.0)
    with pytest.raises(ValueError):
        FlowRequest("k", "a", "b", 0.2, 1.0)
    with pytest.raises(ValueError):
        FlowRequest("k", "a", "b", 0.8, -1.0)
    with pytest.raises(ValueError):
        FlowRequest("k", "a", "b", 0.8, 1.0, 0)


def test_build_program_transcription():
    net = QuantumNetwork(
        [NodeSpec("s", 2), NodeSpec("v", 4), NodeSpec("t", 2)],
        [EdgeSpec("s", "v", 2, 0.9), EdgeSpec("v", "t", 2, 0.9)],
    )
    flow = FlowRequest("k", "s", "t", 0.8, 1.5, 1)
    cands = [flow_candidates(net, flow, 0.1)]
    assert len(cands[0]) == 1 and cands[0][0].pair_counts == [1, 1]
    prog = build_program([flow], cands, net, 0.9)
    assert prog.columns == [(0, 0)]
    a_col = {v: prog.usage[r, 0] for r, v in enumerate(prog.node_ids)}
    assert a_col == {"s": 1.0, "v": 2.0, "t": 1.0}
    assert prog.usage[3:, 0].tolist() == [1.0, 1.0]  # link rows follow the node rows
    assert prog.weights.tolist() == [1.5]
    assert prog.budgets.tolist() == [2.0, 2.0, 4.0, 2.0, 2.0]  # nodes s, t, v, then the links
    assert prog.limits.tolist() == (prog.budgets + 1e-9).tolist()
    c, A, ub = prog.lp_arrays()
    assert A.shape == (3 + 2 + 1, 1)
    v_row = prog.node_ids.index("v")
    assert ub[v_row] == pytest.approx(0.9 * 4)
    assert ub[3:5].tolist() == [2.0, 2.0]  # link rows undiscounted
    assert ub[-1] == 1.0  # per-flow row undiscounted


def test_lp_shared_node_value():
    # one shared node, both paths need 2 qubits there, discounted budget 3
    prog = star_program(qv=4, beta=0.75)
    x, obj = solve_lp(prog)
    assert obj == pytest.approx(1.5, abs=1e-9)
    n = len(prog.node_ids)
    assert np.all((prog.usage @ x)[:n] <= 0.75 * prog.budgets[:n] + 1e-9)
    for k in range(2):
        row = sum(x[j] for j, (kk, _) in enumerate(prog.columns) if kk == k)
        assert row <= 1 + 1e-9


def test_lp_beta_monotone():
    net = star_net(qv=4)
    flows = star_flows()
    cands = [flow_candidates(net, fl, 0.25) for fl in flows]
    objs = [
        solve_lp(build_program(flows, cands, net, beta))[1] for beta in (1.0, 0.9, 0.75)
    ]
    assert objs[0] >= objs[1] - 1e-9 >= objs[2] - 2e-9


def test_lp_no_conflict_selects_everything():
    nodes = [NodeSpec(n, 8) for n in ("s1", "a", "t1", "s2", "b", "t2")]
    edges = [
        EdgeSpec("s1", "a", 4, 0.92),
        EdgeSpec("a", "t1", 4, 0.92),
        EdgeSpec("s2", "b", 4, 0.92),
        EdgeSpec("b", "t2", 4, 0.92),
    ]
    net = QuantumNetwork(nodes, edges)
    flows = [
        FlowRequest("k1", "s1", "t1", 0.8, 2.0, 2),
        FlowRequest("k2", "s2", "t2", 0.8, 1.0, 2),
    ]
    cands = [flow_candidates(net, fl, 0.2) for fl in flows]
    prog = build_program(flows, cands, net, 0.8)
    x, obj = solve_lp(prog)
    assert obj == pytest.approx(3.0, abs=1e-9)
    for k in range(2):
        row = sum(x[j] for j, (kk, _) in enumerate(prog.columns) if kk == k)
        assert row == pytest.approx(1.0, abs=1e-9)


def _select(xrow, u: float) -> Optional[int]:
    """The rounding rule by definition: the index whose cumulative
    interval contains u, else None; the oracle of randomized_round's
    bisect over cached interval ends."""
    acc = 0.0
    for i, xi in enumerate(xrow):
        acc += xi
        if u < acc:
            return i
    return None


def test_select_intervals():
    assert _select([0.3, 0.2], 0.25) == 0
    assert _select([0.3, 0.2], 0.45) == 1
    assert _select([0.3, 0.2], 0.5) is None
    assert _select([0.0, 0.5], 0.0) == 1
    assert _select([], 0.7) is None


def _bare_program(pool_sizes) -> FlowProgram:
    """A program with no node or link rows, pool_sizes[k] candidates for
    flow k: every selection fits, so only the picks matter."""
    flows = [FlowRequest(k, "s", "t", 0.8, 1.0) for k in range(len(pool_sizes))]
    offsets = list(itertools.accumulate(pool_sizes, initial=0))
    columns = [(k, i) for k, n in enumerate(pool_sizes) for i in range(n)]
    empty = np.zeros(0)
    return FlowProgram(
        flows, [[None] * n for n in pool_sizes], 1.0, [], [], columns, offsets,
        np.zeros((0, len(columns))), np.ones(len(columns)), empty, empty,
    )


_x_entries = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.5]), st.floats(0, 1))
# rows of 0/1 entries only: no running sum lies in (0, 1), so a trial takes no draw
_integral_rows = st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0]), max_size=5), min_size=1, max_size=4)
_U_MAX = math.nextafter(1.0, 0.0)  # the greatest draw, (2**64 - 1 >> 11) * 2**-53


def _counted_draws(draws, calls):
    """A stand-in for _trial_draws that hands out draws and logs each call's n."""
    def trial_draws(seed, trial, n):
        calls.append(n)
        return draws[:n]
    return trial_draws


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.lists(_x_entries, max_size=5), min_size=1, max_size=4), _integral_rows), st.data())
def test_round_picks_what_select_picks(rows, data):
    """For nonnegative x and every draw a trial can make, u in
    [0, 1 - 2**-53], randomized_round picks what _select's walk picks,
    zeros (empty intervals) and draws exactly at an interval end included:
    by bisect over each flow's cached interval ends, or with no draw at all
    when no running sum lies in (0, 1)."""
    prog = _bare_program([len(row) for row in rows])
    x = np.array([v for row in rows for v in row], dtype=float)
    sums = [list(itertools.accumulate(row)) for row in rows]
    # u anywhere a draw can lie, or exactly at one of _select's own running sums
    ats = [st.sampled_from([0.0, _U_MAX, *(s for s in row if s < 1)]) for row in sums]
    draws = [data.draw(st.one_of(st.floats(0, _U_MAX), at)) for at in ats]
    draw_free = not any(0 < s < 1 for row in sums for s in row)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiflow, "_trial_draws", _counted_draws(draws, calls))
        for _ in range(2):  # the first call fills the cache, the second reads it
            sel = randomized_round(prog, x, 0, 0)
            assert sel.chosen == [_select(row, u) for row, u in zip(rows, draws)]
    assert calls == ([] if draw_free else [len(rows)] * 2)


def _boundary_rows(end):
    """Two flows whose interval ends are [end] and [0.0, end]."""
    return [[end], [0.0, end]], np.array([end, 0.0, end])


@pytest.mark.parametrize("end", [0.0, -0.0, 1.0, 1.0000000000000002])
def test_ends_at_0_or_from_1_take_no_draw(end):
    rows, x = _boundary_rows(end)
    prog = _bare_program([1, 2])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiflow, "_trial_draws", lambda *key: pytest.fail(f"end {end!r} drew"))
        chosen = randomized_round(prog, x, 0, 0).chosen
    for u in (0.0, _U_MAX):
        assert chosen == [_select(row, u) for row in rows]


@pytest.mark.parametrize("end", [math.nextafter(1, 0), 0.9999999999, 5e-324])
@pytest.mark.parametrize("u", [0.0, math.nextafter(1, 0)])
def test_ends_inside_0_1_still_draw(end, u):
    rows, x = _boundary_rows(end)
    prog = _bare_program([1, 2])
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiflow, "_trial_draws", _counted_draws([u, u], calls))
        chosen = randomized_round(prog, x, 0, 0).chosen
    assert calls == [2]
    assert chosen == [_select(row, u) for row in rows]


@pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_draw_free_round_rejects_keys_outside_64_bits(seed, trial):
    prog = _bare_program([2, 1])
    x = np.array([1.0, 0.0, 0.0])
    assert randomized_round(prog, x, 0, 0).chosen == [0, None]
    assert prog.ends[x.tobytes()][1] == (0, None)  # no draw is taken on this x
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)") as drawn:
        _trial_draws(seed, trial, 2)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)") as rounded:
        randomized_round(prog, x, seed, trial)
    assert str(rounded.value) == str(drawn.value)


@pytest.mark.parametrize("seed", [0, 1])
def test_draw_free_rounds_match_drawn_selections_on_the_mc_recipe(seed):
    """theorem4-mc's LP optimum is 0/1, so its trials take no draw; each
    still picks what _select picks under the trial's own draws."""
    net, flows = rounding_mc_instance(seed)
    prog = build_program(flows, [flow_candidates(net, fl, 0.2) for fl in flows], net, 0.8)
    x, _ = solve_lp(prog)
    rows = [x[lo:hi].tolist() for lo, hi in itertools.pairwise(prog.offsets)]
    assert not any(0 < s < 1 for row in rows for s in itertools.accumulate(row))
    assert multiflow._interval_ends(prog, x)[1] is not None
    for trial in range(300):
        draws = _trial_draws(seed, trial, len(flows))
        assert randomized_round(prog, x, seed, trial).chosen == [_select(row, u) for row, u in zip(rows, draws)]


@pytest.mark.parametrize("bad", [-0.25, -1e-300, math.nan])
def test_round_rejects_negative_or_nan_x(bad):
    prog = _bare_program([2, 1])
    with pytest.raises(ValueError, match="x >= 0"):
        randomized_round(prog, np.array([0.5, bad, 0.5]), 0, 0)
    assert randomized_round(prog, np.array([0.5, 0.0, -0.0]), 0, 0).feasible


def test_round_determinism_and_substreams():
    prog = star_program(qv=4, weights=(2.0, 1.0))
    x, _ = solve_lp(prog)
    a = randomized_round(prog, x, seed=11, trial=4)
    b = randomized_round(prog, x, seed=11, trial=4)
    assert a.chosen == b.chosen and a.total_weight == b.total_weight
    outcomes = {tuple(randomized_round(prog, x, 11, t).chosen) for t in range(24)}
    assert len(outcomes) > 1  # substreams differ across trials


def test_round_frequencies_match_lp():
    prog = star_program(qv=4, weights=(2.0, 1.0))
    x, _ = solve_lp(prog)
    # x* = (1, 0.5) up to column order; check via per-flow mass
    mass = [
        sum(x[j] for j, (kk, _) in enumerate(prog.columns) if kk == k)
        for k in range(2)
    ]
    assert sorted(mass) == pytest.approx([0.5, 1.0], abs=1e-9)
    n = 100_000
    draws = np.reshape(_trial_draws(3, 0, 2 * n), (n, 2))
    hits = [0, 0]
    for k in range(2):
        xrow = [x[j] for j, (kk, _) in enumerate(prog.columns) if kk == k]
        for u in draws[:, k]:
            if _select(xrow, u) is not None:
                hits[k] += 1
    for k in range(2):
        p = mass[k]
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(hits[k] / n - p) <= max(3 * sigma, 1e-9)


def _fresh_draws(seed, trial, n):
    """The former per-trial stream: a new Generator over a new Philox."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))).random(n)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("trial", [0, 299, 2**63])
def test_trial_draws_match_a_fresh_generator(seed, trial):
    # n = 1..9 crosses Philox's 4-word block twice
    for n in range(1, 10):
        draws = _trial_draws(seed, trial, n)
        assert np.array(draws).tobytes() == _fresh_draws(seed, trial, n).tobytes()
        assert all(type(u) is float for u in draws)


def test_interleaved_trials_keep_their_streams():
    keys = [(0, 0), (0, 1), (1, 0), (2**64 - 1, 2**63), (0, 0)]
    expected = {key: _fresh_draws(*key, 7).tolist() for key in keys}
    for n in (3, 7, 1, 5):
        for key in keys:
            assert _trial_draws(*key, n) == expected[key][:n]


def test_concurrent_draws_get_the_reference_streams():
    # every call rekeys the one shared Philox, so without its lock a thread
    # can read words drawn under another thread's key
    keys = [(seed, trial) for seed in (0, 5) for trial in range(40)]
    expected = {key: _fresh_draws(*key, 6).tolist() for key in keys}
    wrong = []

    def draw(order):
        for _ in range(25):
            wrong.extend(key for key in order if _trial_draws(*key, 6) != expected[key])

    orders = (keys, keys[::-1], keys[1::2], keys[::2])
    threads = [threading.Thread(target=draw, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_trial_draws_reject_keys_outside_64_bits(seed, trial):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        _trial_draws(seed, trial, 3)


def test_lp_ilp_rounding_ordering():
    # original budget 3 at the hub: flows conflict, ILP takes the heavy one
    net = star_net(qv=3)
    flows = star_flows(weights=(2.0, 1.0))
    cands = [flow_candidates(net, fl, 0.25) for fl in flows]
    full = build_program(flows, cands, net, 1.0)
    _, lp_full = solve_lp(full)
    chosen, ilp_w = ilp_solve(full)
    assert lp_full >= ilp_w - 1e-9
    assert chosen == [0, None] and ilp_w == 2.0
    disc = build_program(flows, cands, net, 0.75)
    x, _ = solve_lp(disc)
    for t in range(40):
        sel = randomized_round(disc, x, seed=5, trial=t)
        if sel.feasible:
            assert sel.total_weight <= ilp_w + 1e-9


def test_selections_are_judged_against_original_budgets():
    # both flows need 2 qubits at the hub: 4 fit Q_v = 4, not beta * Q_v = 3
    prog = star_program(qv=4, weights=(2.0, 1.0), beta=0.75)
    assert ilp_solve(prog) == ([0, 0], 3.0)
    x, _ = solve_lp(prog)
    sels = [randomized_round(prog, x, seed=3, trial=t) for t in range(40)]
    assert any(sel.chosen == [0, 0] for sel in sels)
    assert all(sel.feasible for sel in sels)


def test_lemma_tail_bound_and_mean_weight():
    prog = star_program(qv=4, weights=(2.0, 1.0))
    x, lp_obj = solve_lp(prog)
    v_row = prog.node_ids.index("v")
    budget = 0.75 * prog.budgets[v_row]
    n = 4000
    usages = np.empty(n)
    weights = np.empty(n)
    for t in range(n):
        sel = randomized_round(prog, x, seed=77, trial=t)
        usages[t] = sel.node_usage[v_row]
        weights[t] = sel.total_weight
    for delta in (0.1, 0.25, 0.5):
        bound = (math.exp(delta) / (1 + delta) ** (1 + delta)) ** budget
        freq = float(np.mean(usages > (1 + delta) * budget))
        sigma = math.sqrt(max(freq * (1 - freq), 1e-12) / n)
        assert freq < bound + 3 * sigma, (delta, freq, bound)
    mean_w = float(weights.mean())
    sem = float(weights.std(ddof=1)) / math.sqrt(n)
    assert mean_w >= 0.75 * lp_obj - 3 * sem


def test_multiflow_single_flow():
    net = QuantumNetwork(
        [NodeSpec("s", 4), NodeSpec("v", 6), NodeSpec("t", 4)],
        [EdgeSpec("s", "v", 3, 0.92), EdgeSpec("v", "t", 3, 0.92)],
    )
    flows = [FlowRequest("k", "s", "t", 0.8, 5.0, 3)]
    res = multiflow_solve(flows, net, 0.2, 0.05, seed=1)
    assert res.trials == math.ceil(math.log(20) / math.log(3))
    assert res.feasible_trials == res.trials
    assert res.selection is not None
    assert res.selection.chosen == [0]
    assert res.selection.total_weight == 5.0
    assert res.lp_objective == pytest.approx(5.0, abs=1e-9)
    assert res.to_json()["total_weight"] == 5.0


def test_multiflow_none_found_outcome():
    # hub budget 3: both flows together are infeasible; with one trial and a
    # draw that selects both, the wrapper must report no feasible selection
    net = star_net(qv=3)
    flows = star_flows(weights=(2.0, 1.0))
    found_none = None
    for seed in range(40):
        res = multiflow_solve(flows, net, 0.25, 0.5, seed=seed)
        assert res.trials == 1
        if res.selection is None:
            found_none = res
            break
    assert found_none is not None
    assert found_none.feasible_trials == 0
    assert found_none.to_json()["selection"] is None


def test_unroutable_flow_keeps_others():
    nodes = [NodeSpec(n, 4) for n in ("s", "v", "t", "x", "y")]
    edges = [
        EdgeSpec("s", "v", 2, 0.92),
        EdgeSpec("v", "t", 2, 0.92),
        EdgeSpec("x", "y", 2, 0.92),
    ]
    net = QuantumNetwork(nodes, edges)
    flows = [
        FlowRequest("k1", "s", "t", 0.8, 1.0, 2),
        FlowRequest("k2", "s", "y", 0.8, 1.0, 2),  # disconnected endpoints
    ]
    res = multiflow_solve(flows, net, 0.2, 0.3, seed=0)
    assert res.selection is not None
    assert res.selection.chosen[0] == 0 and res.selection.chosen[1] is None
    assert res.selection.total_weight == 1.0


def test_guarantee_conditions():
    nodes = [NodeSpec(i, 110) for i in range(10)]
    edges = [EdgeSpec(i, i + 1, 3, 0.9) for i in range(9)]
    net = QuantumNetwork(nodes, edges)
    flows = [FlowRequest("k", 0, 9, 0.7, 35.0)]
    cond = guarantee_conditions(net, flows, 0.2)
    assert cond == {"qubits_ok": True, "weights_ok": True}
    light = [FlowRequest("k", 0, 9, 0.7, 30.0)]
    assert guarantee_conditions(net, light, 0.2)["weights_ok"] is False
    small = QuantumNetwork(
        [NodeSpec(0, 50), NodeSpec(1, 50)], [EdgeSpec(0, 1, 2, 0.9)]
    )
    assert guarantee_conditions(small, flows, 0.2)["qubits_ok"] is False


def test_ilp_guard():
    net = star_net(qv=8, cap=4)
    flows = [
        FlowRequest(f"k{i}", "s1", "t1", 0.8, 1.0, 4) for i in range(6)
    ]
    cands = [flow_candidates(net, fl, 0.25) for fl in flows]
    prog = build_program(flows, cands, net, 1.0)
    if all(len(c) >= 3 for c in cands):
        with pytest.raises(ValueError):
            ilp_solve(prog)


@pytest.fixture(scope="module")
def contended():
    # the six flows of test_outputs' pinned contended candidates
    net, _ = rounding_mc_instance(0)
    flows = sample_flows(net, 6, seed=1, f0=0.97, r_k=3)
    cands = [flow_candidates(net, fl, 0.2) for fl in flows]
    assert [len(c) for c in cands] == [0, 3, 0, 3, 3, 3]
    return net, flows, cands, build_program(flows, cands, net, 0.8)


def _recount(net, flows, cands, chosen):
    """Usage, weight and feasibility of a selection, from its plans alone."""
    nodes, links, weight = Counter(), Counter(), 0.0
    for fl, pool, i in zip(flows, cands, chosen):
        if i is None:
            continue
        plan = pool[i]
        weight += fl.weight
        for u, v, m in zip(plan.nodes, plan.nodes[1:], plan.pair_counts):
            nodes[u] += m
            nodes[v] += m
            links[frozenset((u, v))] += m
    feasible = all(q <= net.node(v).qubits for v, q in nodes.items()) and all(
        m <= net.edge(*link).capacity for link, m in links.items()
    )
    return nodes, links, weight, feasible


def test_contended_columns_and_roundings_match_their_plans(contended):
    net, flows, cands, prog = contended
    for j, (k, i) in enumerate(prog.columns):
        chosen = [i if kk == k else None for kk in range(len(flows))]
        nodes, links, _, _ = _recount(net, flows, cands, chosen)
        nodes_j, links_j = prog.usage[: len(prog.node_ids), j], prog.usage[len(prog.node_ids) :, j]
        assert {v: q for v, q in zip(prog.node_ids, nodes_j) if q} == nodes
        assert {frozenset((e.u, e.v)): m for e, m in zip(prog.links, links_j) if m} == links
    x, _ = solve_lp(prog)
    feasible = 0
    for trial in range(300):
        sel = randomized_round(prog, x, seed=0, trial=trial)
        nodes, links, weight, ok = _recount(net, flows, cands, sel.chosen)
        assert {v: q for v, q in zip(prog.node_ids, sel.node_usage) if q} == nodes
        assert {frozenset((e.u, e.v)): m for e, m in zip(prog.links, sel.link_usage) if m} == links
        assert sel.total_weight == weight and sel.feasible == ok
        feasible += ok
    assert 0 < feasible < 300  # budgets bind: both outcomes occur


def test_contended_ilp_matches_an_independent_enumeration(contended):
    net, flows, cands, prog = contended
    selections = itertools.product(*([None, *range(len(pool))] for pool in cands))
    best = max(w for _, _, w, ok in (_recount(net, flows, cands, c) for c in selections) if ok)
    chosen, weight = ilp_solve(prog)
    assert weight == best
    assert _recount(net, flows, cands, chosen)[2:] == (best, True)
    everything = [len(pool) - 1 if pool else None for pool in cands]
    assert not _recount(net, flows, cands, everything)[3]  # the budgets bind


def test_programs_meet_the_one_phase_simplex_precondition(contended):
    # simplex_solve starts from the slack basis, which needs ub >= 0; a
    # packing program has A >= 0, c >= 0 and positive budgets on the right
    programs = [contended[3]]
    for seed in range(3):
        net, flows = rounding_mc_instance(seed)
        programs.append(build_program(flows, [flow_candidates(net, fl, 0.2) for fl in flows], net, 0.8))
    for prog in programs:
        c, A, ub = prog.lp_arrays()
        assert A.size and np.all(A >= 0) and np.all(c >= 0) and np.all(ub > 0)


def _former_matrices(prog, net):
    """The node matrix a and link matrix b as two separate arrays, built
    hop by hop the way build_program built them before they were stacked."""
    node_row = {v: r for r, v in enumerate(prog.node_ids)}
    link_row = {frozenset((e.u, e.v)): r for r, e in enumerate(prog.links)}
    a = np.zeros((len(prog.node_ids), len(prog.columns)))
    b = np.zeros((len(prog.links), len(prog.columns)))
    for j, (k, i) in enumerate(prog.columns):
        plan = prog.candidates[k][i]
        for u, v, m in zip(plan.nodes, plan.nodes[1:], plan.pair_counts):
            a[node_row[u], j] += m
            a[node_row[v], j] += m
            b[link_row[frozenset((u, v))], j] += m
    budgets = np.array([net.node(v).qubits for v in prog.node_ids], dtype=float)
    capacities = np.array([e.capacity for e in prog.links], dtype=float)
    return a, b, budgets, capacities


def test_evaluate_matches_the_two_matrix_products(contended):
    """Each program's whole selection space, judged in one batch on one
    fresh program and one selection at a time on another, gives the bytes
    of the two former matrix products, the weight sum() gives and the same
    flag."""
    programs = [(star_net(qv), star_program(qv, (2.0, 1.0))) for qv in (3, 4)]
    net, flows = rounding_mc_instance(0)
    programs.append((net, build_program(flows, [flow_candidates(net, fl, 0.2) for fl in flows], net, 0.8)))
    programs.append((contended[0], contended[3]))
    outcomes = set()
    for net, prog in programs:
        a, b, budgets, capacities = _former_matrices(prog, net)
        selections = list(itertools.product(*([None, *range(len(pool))] for pool in prog.candidates)))
        batch, single = replace(prog), replace(prog)
        _judge(batch, selections)
        assert len(batch.verdicts) == len(selections)
        for chosen in selections:
            x = np.zeros(len(prog.columns))
            for k, i in enumerate(chosen):
                if i is not None:
                    x[prog.offsets[k] + i] = 1.0
            weight = sum(prog.flows[k].weight for k, i in enumerate(chosen) if i is not None)
            feasible = bool((a @ x <= budgets + 1e-9).all() and (b @ x <= capacities + 1e-9).all())
            for sel in (_evaluate(single, list(chosen)), _evaluate(batch, list(chosen))):
                assert sel.chosen == list(chosen)
                assert sel.node_usage.tobytes() == (a @ x).tobytes()
                assert sel.link_usage.tobytes() == (b @ x).tobytes()
                assert type(sel.total_weight) is type(weight) and sel.total_weight == weight
                assert sel.feasible is feasible
            outcomes.add(feasible)
        assert len(batch.verdicts) == len(single.verdicts) == len(selections)
    assert outcomes == {True, False}


def test_verdict_usage_is_read_only():
    # the memo hands every caller the same arrays
    prog = star_program(3, (2.0, 1.0))
    sel = _evaluate(prog, [0, None])
    for usage in (sel.node_usage, sel.link_usage):
        with pytest.raises(ValueError):
            usage[0] = 99.0
    assert _evaluate(prog, [0, None]).node_usage.tobytes() == sel.node_usage.tobytes()


def _outcome(sel):
    return sel.chosen, sel.total_weight, sel.feasible, sel.node_usage.tobytes(), sel.link_usage.tobytes()


def test_memo_keeps_every_rounding_outcome():
    """The ILP judges the whole selection space; the 300 roundings on the
    same program then only look their verdicts up, and read what a fresh
    program per trial computes."""
    net, flows = rounding_mc_instance(0)
    prog = build_program(flows, [flow_candidates(net, fl, 0.2) for fl in flows], net, 0.8)
    x, _ = solve_lp(prog)
    ilp = ilp_solve(prog)
    judged = len(prog.verdicts)
    shared = [_outcome(randomized_round(prog, x, 0, t)) for t in range(300)]
    fresh = [_outcome(randomized_round(replace(prog), x, 0, t)) for t in range(300)]
    assert shared == fresh
    assert len(prog.verdicts) == judged == math.prod(len(pool) + 1 for pool in prog.candidates)
    assert ilp_solve(prog) == ilp == ilp_solve(replace(prog))


def test_concurrent_rounds_share_one_program(contended):
    # threads that miss the memo on one selection at once both judge it and
    # store equal verdicts; every thread must still read the serial outcomes
    prog = contended[3]
    # uniform over each pool and none, so the trials spread over 256 selections
    x = np.concatenate([np.full(hi - lo, 1.0 / (hi - lo + 1)) for lo, hi in itertools.pairwise(prog.offsets)])
    trials = list(range(200))
    expected = {t: _outcome(randomized_round(replace(prog), x, 7, t)) for t in trials}
    shared = replace(prog)
    wrong = []

    def rounds(order):
        wrong.extend(t for t in order if _outcome(randomized_round(shared, x, 7, t)) != expected[t])

    orders = (trials, trials[::-1], trials[1::2] + trials[::2], trials[::2] + trials[1::2])
    threads = [threading.Thread(target=rounds, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(shared.verdicts) == len({tuple(expected[t][0]) for t in trials}) > 50
