"""Multi-flow path selection: candidate pools per flow, the packing program
over shared qubit/link budgets, its discounted LP relaxation, per-flow
randomized rounding, and the repeated-trial wrapper.

Rounding trials are independent; each owns a counter-based RNG substream
keyed by (seed, trial), so any subset of trials reproduces bit-identically.
One Philox, rekeyed under its lock with counter 0 and an empty buffer, reads
every substream: its words depend on key and counter alone.  A trial draws
u per flow and picks the first candidate whose running sum of x, added left
to right, exceeds u, by bisect over those sums (its interval ends).  They
are computed once per x and program and kept in FlowProgram.ends; they
ascend only when x >= 0, so an x with a negative or NaN entry raises
ValueError (solve_lp clamps its optimum at 0).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .auxgraph import build_aux_graph
from .network import QuantumNetwork, _step
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
    per-flow rows <= 1, x >= 0.  Columns are (flow, candidate) pairs,
    contiguous per flow in flow order: flow k owns columns
    offsets[k]:offsets[k + 1]."""

    flows: list
    candidates: list  # candidates[k] = list of RoutePlan for flows[k]
    beta: float
    node_ids: list
    links: list  # the EdgeSpec of each link row
    columns: list  # (flow position, candidate position)
    offsets: list  # first column of each flow, then the column count
    usage: np.ndarray  # qubits consumed per node row, then pairs per link row, x column
    weights: np.ndarray
    budgets: np.ndarray  # Q_v of each node row, then C_l of each link row
    limits: np.ndarray  # budgets + 1e-9: what a 0/1 selection may use
    # tuple(chosen) -> (weight, node usage, link usage, fits), filled by _judge
    verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # x.tobytes() -> each flow's interval ends under x, filled by _interval_ends
    ends: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def lp_arrays(self):
        """(c, A, ub) of the relaxed program; the discount applies to node
        rows only."""
        flow_rows = np.zeros((len(self.flows), len(self.columns)))
        for k, (lo, hi) in enumerate(itertools.pairwise(self.offsets)):
            flow_rows[k, lo:hi] = 1.0
        ub = np.concatenate([self.budgets, np.ones(len(self.flows))])
        ub[: len(self.node_ids)] *= self.beta
        return self.weights, np.vstack([self.usage, flow_rows]), ub


def build_program(flows, candidates, net: QuantumNetwork, beta: float) -> FlowProgram:
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if len(flows) != len(candidates):
        raise ValueError("one candidate pool per flow required")
    flows, candidates = list(flows), [list(c) for c in candidates]
    node_ids = sorted(net.nodes, key=str)
    # link rows in the order of str((lo, hi)), lo the endpoint whose text sorts first
    links = sorted(net.edges, key=lambda e: str((min(e.u, e.v, key=str), max(e.u, e.v, key=str))))
    node_row = {v: r for r, v in enumerate(node_ids)}
    link_row = {(u, v): r for r, e in enumerate(links, len(node_ids)) for u, v in ((e.u, e.v), (e.v, e.u))}
    columns = [(k, i) for k, pool in enumerate(candidates) for i in range(len(pool))]
    usage = np.zeros((len(node_ids) + len(links), len(columns)))
    for j, (k, i) in enumerate(columns):
        plan: RoutePlan = candidates[k][i]
        for u, v, m in zip(plan.nodes, plan.nodes[1:], plan.pair_counts):
            usage[node_row[u], j] += m
            usage[node_row[v], j] += m
            usage[link_row[u, v], j] += m
    budgets = np.array([net.node(v).qubits for v in node_ids] + [e.capacity for e in links], dtype=float)
    return FlowProgram(
        flows, candidates, beta, node_ids, links, columns,
        offsets=list(itertools.accumulate(map(len, candidates), initial=0)),
        usage=usage,
        weights=np.array([flows[k].weight for k, _ in columns], dtype=float),
        budgets=budgets,
        limits=budgets + 1e-9,
    )


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


def _judge(prog: FlowProgram, selections) -> None:
    """Store in prog.verdicts the verdict of every selection (a tuple,
    chosen[k] = candidate index or None) not yet judged: its weight, its
    node and link usage and whether it fits the ORIGINAL undiscounted node
    budgets and link capacities.  One product judges them all; usage holds
    integer pair counts, so every partial sum is exact and each column has
    the bytes of prog.usage @ x.  Threads that judge one selection at once
    store equal verdicts."""
    new = [s for s in selections if s not in prog.verdicts]
    if not new:
        return
    x = np.zeros((len(prog.columns), len(new)))
    weights = []
    for c, chosen in enumerate(new):
        weight = 0  # as sum() starts: nothing chosen weighs int 0, written as 0 in JSON
        for k, i in enumerate(chosen):
            if i is not None:
                x[prog.offsets[k] + i, c] = 1.0
                weight += prog.flows[k].weight
        weights.append(weight)
    usage = np.ascontiguousarray((prog.usage @ x).T)
    usage.flags.writeable = False  # the verdicts hand out views of it
    fits = (usage <= prog.limits).all(axis=1).tolist()
    n = len(prog.node_ids)
    for chosen, weight, row, ok in zip(new, weights, usage, fits):
        prog.verdicts[chosen] = (weight, row[:n], row[n:], ok)


def _evaluate(prog: FlowProgram, chosen) -> RoundedSelection:
    """A 0/1 selection with its verdict (see _judge), judged once per program."""
    key = tuple(chosen)
    if key not in prog.verdicts:
        _judge(prog, [key])
    return RoundedSelection(chosen, *prog.verdicts[key])


def _interval_ends(prog: FlowProgram, x: np.ndarray) -> list:
    """Per flow, the running sums of its columns' x, added left to right:
    candidate i is drawn when u < ends[i] and u >= every earlier end.  The
    ends ascend, so bisect finds that i, only when x >= 0; an x with a
    negative or NaN entry raises ValueError.  Computed once per x (keyed by
    its bytes) and program; threads that compute one x at once store equal
    lists."""
    x = np.asarray(x, dtype=float)
    key = x.tobytes()
    ends = prog.ends.get(key)
    if ends is None:
        if not (x >= 0).all():
            raise ValueError("rounding needs x >= 0 in every entry, with no NaN")
        xs, spans = x.tolist(), itertools.pairwise(prog.offsets)
        ends = prog.ends[key] = [list(itertools.accumulate(xs[lo:hi])) for lo, hi in spans]
    return ends


_philox = functools.cache(lambda: np.random.Philox(0))  # built on first use: numpy.random adds ~6 MB
# Philox's state with its buffer empty (buffer_pos 4), less the counter and key
_EMPTY = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _trial_draws(seed: int, trial: int, n: int) -> list:
    """The first n values of Generator(Philox(key=[seed, trial])).random(),
    each word w as Generator.random forms it: (w >> 11) * 2**-53."""
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise ValueError(f"seed {seed!r} and trial {trial!r} must lie in [0, 2**64)")
    philox = _philox()
    with philox.lock:
        philox.state = {**_EMPTY, "state": {"counter": (0,) * 4, "key": (seed, trial)}}
        words = philox.random_raw(n).tolist()
    return [(w >> 11) * 2.0**-53 for w in words]


def randomized_round(
    prog: FlowProgram, x: np.ndarray, seed: int, trial: int = 0
) -> RoundedSelection:
    """One uniform draw per flow selects at most one candidate; feasibility
    is judged against the ORIGINAL undiscounted budgets."""
    ends = _interval_ends(prog, x)
    chosen = []
    for row, u in zip(ends, _trial_draws(seed, trial, len(prog.flows))):
        i = bisect.bisect_right(row, u)
        chosen.append(i if i < len(row) else None)
    return _evaluate(prog, chosen)


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
    lp_objective: float
    trials: int
    feasible_trials: int

    def to_json(self) -> dict:
        sel = None
        if self.selection is not None:
            sel = {
                "chosen": self.selection.chosen,
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
    # a subnormal delta has an infinite 1/delta, and the trial count with it
    if not (_step(delta) and delta < 1.0):
        raise ValueError(f"delta={delta!r} must lie in (0, 1) and have a finite reciprocal")
    candidates = [flow_candidates(net, fl, epsilon, deltaq=deltaq) for fl in flows]
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
        selection=best, lp_objective=lp_obj, trials=trials, feasible_trials=feasible
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
    selections = list(itertools.product(*([*range(p - 1, -1, -1), None] for p in pools)))
    _judge(prog, selections)
    for chosen in selections:
        weight, _, _, fits = prog.verdicts[chosen]
        if fits and weight > best_weight + 1e-12:
            best_weight = weight
            best_chosen = list(chosen)
    return best_chosen, best_weight
