"""Multi-flow path selection: candidate pools per flow, the packing program
over shared qubit/link budgets, its discounted LP relaxation, per-flow
randomized rounding, and the repeated-trial wrapper.

Rounding trials are independent; each owns a counter-based RNG substream
keyed by (seed, trial), so any subset of trials reproduces bit-identically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .auxgraph import build_aux_graph
from .network import QuantumNetwork
from .pair_algebra import pseudo_fidelity
from .routing import RoutePlan, discretization_steps, k_paths
from .simplex import simplex_solve

# throughput never constrains single-flow candidates here; the search still
# needs a floor, so use one far below any realizable yield
_PSI_FLOOR = math.log(1e-9)


@dataclass(frozen=True)
class FlowRequest:
    id: object
    source: object
    destination: object
    f0: float
    weight: float
    r_k: int = 3

    def __post_init__(self):
        if self.source == self.destination:
            raise ValueError("flow endpoints must differ")
        if not 0.25 < self.f0 <= 1.0:
            raise ValueError(f"f0={self.f0!r} outside (0.25, 1]")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if self.r_k < 1:
            raise ValueError("r_k must be >= 1")


@dataclass
class FlowProgram:
    """max sum w_k x_ki  s.t.  node rows <= beta*Q_v, link rows <= C_l,
    per-flow rows <= 1, x >= 0.  Columns are (flow, candidate) pairs."""

    flows: list
    candidates: list  # candidates[k] = list of RoutePlan for flows[k]
    beta: float
    node_ids: list = field(init=False)
    link_ids: list = field(init=False)
    columns: list = field(init=False)  # (flow position, candidate position)
    a: np.ndarray = field(init=False)  # qubits consumed: node x column
    b: np.ndarray = field(init=False)  # pairs consumed: link x column
    weights: np.ndarray = field(init=False)
    node_budgets: np.ndarray = field(init=False)
    link_capacities: np.ndarray = field(init=False)

    def lp_arrays(self):
        """(c, A, ub) of the relaxed program; the discount applies to node
        rows only."""
        rows = [self.a, self.b]
        ub = [self.beta * self.node_budgets, self.link_capacities]
        flow_rows = np.zeros((len(self.flows), len(self.columns)))
        for j, (k, _) in enumerate(self.columns):
            flow_rows[k, j] = 1.0
        rows.append(flow_rows)
        ub.append(np.ones(len(self.flows)))
        return self.weights, np.vstack(rows), np.concatenate(ub)

    def column_usage(self, chosen: list) -> tuple[np.ndarray, np.ndarray]:
        """Total node and link consumption of a 0/1 selection
        (chosen[k] = candidate index or None)."""
        x = np.zeros(len(self.columns))
        for j, (k, i) in enumerate(self.columns):
            if chosen[k] == i:
                x[j] = 1.0
        return self.a @ x, self.b @ x

    def within_budgets(self, node_usage: np.ndarray, link_usage: np.ndarray) -> bool:
        """Whether a usage fits the ORIGINAL undiscounted node budgets and
        link capacities."""
        return bool(
            (node_usage <= self.node_budgets + 1e-9).all()
            and (link_usage <= self.link_capacities + 1e-9).all()
        )


def build_program(flows, candidates, net: QuantumNetwork, beta: float) -> FlowProgram:
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if len(flows) != len(candidates):
        raise ValueError("one candidate pool per flow required")
    prog = FlowProgram(list(flows), [list(c) for c in candidates], beta)
    prog.node_ids = sorted(net.nodes, key=str)
    prog.link_ids = sorted(
        ((min(e.u, e.v, key=str), max(e.u, e.v, key=str)) for e in net.edges),
        key=str,
    )
    node_pos = {v: r for r, v in enumerate(prog.node_ids)}
    link_pos = {l: r for r, l in enumerate(prog.link_ids)}
    prog.columns = [
        (k, i) for k, pool in enumerate(prog.candidates) for i in range(len(pool))
    ]
    n_cols = len(prog.columns)
    prog.a = np.zeros((len(prog.node_ids), n_cols))
    prog.b = np.zeros((len(prog.link_ids), n_cols))
    prog.weights = np.array(
        [prog.flows[k].weight for k, _ in prog.columns], dtype=float
    )
    for j, (k, i) in enumerate(prog.columns):
        plan: RoutePlan = prog.candidates[k][i]
        for v, used in _node_usage(plan).items():
            prog.a[node_pos[v], j] = used
        for (u, v), m in _link_usage(plan).items():
            key = (min(u, v, key=str), max(u, v, key=str))
            prog.b[link_pos[key], j] = m
    prog.node_budgets = np.array(
        [net.node(v).qubits for v in prog.node_ids], dtype=float
    )
    prog.link_capacities = np.array(
        [net.edge(u, v).capacity for u, v in prog.link_ids], dtype=float
    )
    return prog


def _node_usage(plan: RoutePlan) -> dict:
    usage: dict = {}
    for (u, v), m in zip(zip(plan.nodes, plan.nodes[1:]), plan.pair_counts):
        usage[u] = usage.get(u, 0) + m
        usage[v] = usage.get(v, 0) + m
    return usage


def _link_usage(plan: RoutePlan) -> dict:
    return {
        (u, v): m
        for (u, v), m in zip(zip(plan.nodes, plan.nodes[1:]), plan.pair_counts)
    }


def solve_lp(prog: FlowProgram) -> tuple[np.ndarray, float]:
    """Fractional optimum (x*, objective) of the relaxed program."""
    if not prog.columns:
        return np.zeros(0), 0.0
    c, A, ub = prog.lp_arrays()
    x, obj = simplex_solve(c, A, ub)
    return np.maximum(x, 0.0), obj


@dataclass
class RoundedSelection:
    chosen: list  # candidate index per flow, or None
    total_weight: float
    node_usage: np.ndarray
    link_usage: np.ndarray
    feasible: bool


def _select(xrow, u: float) -> Optional[int]:
    """Index whose cumulative-probability interval contains u, else None."""
    acc = 0.0
    for i, xi in enumerate(xrow):
        acc += xi
        if u < acc:
            return i
    return None


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
    )


def randomized_round(
    prog: FlowProgram, x: np.ndarray, seed: int, trial: int = 0
) -> RoundedSelection:
    """One uniform draw per flow selects at most one candidate; feasibility
    is judged against the ORIGINAL undiscounted budgets."""
    draws = _trial_rng(seed, trial).random(len(prog.flows))
    chosen: list = []
    start = 0  # columns are contiguous per flow, in flow order
    for k, pool in enumerate(prog.candidates):
        chosen.append(_select(x[start:start + len(pool)], draws[k]))
        start += len(pool)
    node_usage, link_usage = prog.column_usage(chosen)
    total = sum(
        prog.flows[k].weight for k, i in enumerate(chosen) if i is not None
    )
    return RoundedSelection(
        chosen=chosen,
        total_weight=total,
        node_usage=node_usage,
        link_usage=link_usage,
        feasible=prog.within_budgets(node_usage, link_usage),
    )


def flow_candidates(
    net: QuantumNetwork,
    flow: FlowRequest,
    eps: float,
    *,
    deltaq: int = 1,
) -> list:
    aux = build_aux_graph(net, flow.source, flow.destination, deltaq)
    phi0 = pseudo_fidelity(flow.f0)
    deltas = discretization_steps(aux, phi0, _PSI_FLOOR, eps)
    return k_paths(aux, phi0, _PSI_FLOOR, deltas, flow.r_k)


@dataclass
class MultiflowResult:
    selection: Optional[RoundedSelection]
    lp_solution: np.ndarray
    lp_objective: float
    trials: int
    feasible_trials: int
    program: FlowProgram

    def to_json(self) -> dict:
        sel = None
        if self.selection is not None:
            sel = {
                "chosen": [
                    None if i is None else int(i) for i in self.selection.chosen
                ],
                "total_weight": self.selection.total_weight,
            }
        return {
            "selection": sel,
            "total_weight": 0.0 if sel is None else sel["total_weight"],
            "lp_objective": self.lp_objective,
            "trials": self.trials,
            "feasible_trials": self.feasible_trials,
        }


def multiflow_solve(
    flows,
    net: QuantumNetwork,
    epsilon: float,
    delta: float,
    seed: int,
    *,
    deltaq: int = 1,
) -> MultiflowResult:
    """Round the beta = 1-epsilon LP ceil(ln(1/delta)/ln 3) times and keep
    the feasible selection of maximal weight (earliest trial on ties)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    candidates = [
        flow_candidates(net, fl, epsilon, deltaq=deltaq) for fl in flows
    ]
    prog = build_program(flows, candidates, net, 1.0 - epsilon)
    x, lp_obj = solve_lp(prog)
    trials = max(1, math.ceil(math.log(1.0 / delta) / math.log(3.0)))
    best: Optional[RoundedSelection] = None
    feasible = 0
    for trial in range(trials):
        sel = randomized_round(prog, x, seed, trial)
        if not sel.feasible:
            continue
        feasible += 1
        if best is None or sel.total_weight > best.total_weight + 1e-12:
            best = sel
    return MultiflowResult(
        selection=best,
        lp_solution=x,
        lp_objective=lp_obj,
        trials=trials,
        feasible_trials=feasible,
        program=prog,
    )


def guarantee_conditions(net: QuantumNetwork, flows, eps: float) -> dict:
    """The two sufficient conditions under which a rounding trial is
    2eps-optimal with probability >= 1/3."""
    need_q = math.log(3 * len(net.nodes)) / ((1 - eps) * eps**2)
    weights = [fl.weight for fl in flows]
    return {
        "qubits_ok": all(n.qubits >= need_q for n in net.nodes.values()),
        "weights_ok": bool(weights)
        and eps**2 * (1 - eps) * min(weights) >= math.log(3.0),
    }


def ilp_solve(prog: FlowProgram) -> tuple[list, float]:
    """Exhaustive 0/1 optimum against the ORIGINAL budgets (desk scale).
    Each flow tries its candidates last to first, then none; the first of
    equal-weight selections is kept."""
    pools = [len(pool) for pool in prog.candidates]
    if math.prod(p + 1 for p in pools) > 4096:
        raise ValueError("ILP oracle bounded to 4096 selections")
    best_chosen: list = [None] * len(prog.flows)
    best_weight = 0.0
    for chosen in itertools.product(*([*range(p - 1, -1, -1), None] for p in pools)):
        if prog.within_budgets(*prog.column_usage(chosen)):
            w = sum(prog.flows[i].weight for i, c in enumerate(chosen) if c is not None)
            if w > best_weight + 1e-12:
                best_weight = w
                best_chosen = list(chosen)
    return best_chosen, best_weight
