"""Seeded experiment scenarios emitting CSV rows plus JSON artifacts.

Four scenarios: purification fidelity/success curves, repeater-chain
strategy comparison, threshold routing comparison (optimal schedules vs.
the pumping-only baseline), and multi-flow LP rounding.  Rows are sorted
by (scenario, parameter, seed) before writing; re-runs with the same seed
reproduce every column except runtime_ms.  Each row's metric can be
recomputed from the artifact record sharing its (algorithm, parameter,
seed) triple.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .auxgraph import build_aux_graph
from .multiflow import FlowRequest, multiflow_solve
from .network import _check_fields, _integer, _number, _seed, _step
from .pair_algebra import pseudo_fidelity
from .purification import (
    PAIRS_MAX,
    evaluate_tree,
    max_fidelity_schedule,
    pumping_schedule,
    symmetric_schedule,
    tree_success_prob,
    tree_to_json,
)
from .routing import DELTA_PHI_MIN, min_cost_path
from .strategies import HOP_PAIRS_MAX, RepeaterChain, purify_and_swap, swap_and_purify, swap_purify_swap
from .topology import TopologySpec, generate, perturbed, sample_flows, spec_from_json

CSV_COLUMNS = ("scenario", "algorithm", "parameter", "metric", "value", "seed", "runtime_ms")

# sps{h}: swap-purify-swap over h >= 1 portions, or l (one portion per hop)
_SPS = re.compile(r"^sps\{([1-9]\d*|l)\}$")


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


@dataclass
class ResultRow:
    scenario: str
    algorithm: str
    parameter: str
    metric: str
    value: float
    seed: int
    runtime_ms: float

    def sort_key(self):
        return (self.scenario, self.parameter, self.seed, self.algorithm, self.metric)

    def csv_values(self):
        return (
            self.scenario,
            self.algorithm,
            self.parameter,
            self.metric,
            _fmt(self.value),
            str(self.seed),
            f"{self.runtime_ms:.3f}",
        )


@dataclass
class ExperimentConfig:
    scenario: str
    trials: int = 20
    seed: int = 0
    output: Optional[str] = None
    topology: Optional[dict] = None
    thresholds: tuple = (0.8, 0.85, 0.9)
    algorithms: Optional[tuple] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_fields({name: getattr(self, name) for name in _FIELDS}, _FIELDS, (), "config")
        if self.topology is not None:
            spec_from_json({"seed": self.seed, **self.topology})  # raises on a bad field
        if self.algorithms is not None:
            self.algorithms = tuple(self.algorithms)
            for a in self.algorithms:
                if not _algorithm_known(self.scenario, a):
                    raise ValueError(
                        f"algorithm {a!r} is not implemented for {self.scenario}; "
                        "external baselines are out of scope"
                    )
        self.thresholds = tuple(self.thresholds)
        _check_fields(self.options, _SCENARIOS[self.scenario].options, (), f"{self.scenario} options")
        if self.scenario == "purify-compare":
            _pair_counts(self)  # raises on an empty range
        if self.scenario in ("route-compare", "multiflow"):
            _check_trial_seeds(self)

    def algorithm_list(self) -> tuple:
        return self.algorithms or _SCENARIOS[self.scenario].algorithms

    def opt(self, key, default):
        if key not in _SCENARIOS[self.scenario].options:
            raise KeyError(f"{key!r} is not in the option table of {self.scenario}")
        return self.options.get(key, default)


def _check_trial_seeds(cfg: ExperimentConfig) -> None:
    """Raise ValueError unless the last trial's seed is below 2**64, as
    every seed must be (the rounding's Philox key takes no larger one):
    route-compare and multiflow run trial k on the topology's seed (the
    config's unless it names one) + 1000 * (k + 1), by perturbed."""
    topology = cfg.topology or {}
    key, seed = ("the topology's 'seed'", topology["seed"]) if "seed" in topology else ("'seed'", cfg.seed)
    if seed + 1000 * cfg.trials >= 2**64:
        raise ValueError(
            f"{key} + 1000 * 'trials' must be below 2**64: the last trial runs on that seed; "
            f"got {seed} + 1000 * {cfg.trials}"
        )


def _algorithm_known(scenario: str, name: str) -> bool:
    if name in _SCENARIOS[scenario].algorithms:
        return True
    return scenario == "strategy-compare" and bool(_SPS.match(name))


def config_from_json(d: dict) -> ExperimentConfig:
    """Top-level keys that name config fields set them; every other key is
    a scenario option."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {d!r}")
    fields = _check_fields({k: v for k, v in d.items() if k in _FIELDS}, _FIELDS, ("scenario",), "config")
    return ExperimentConfig(**fields, options={k: v for k, v in d.items() if k not in _FIELDS})


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list
    artifacts: list

    def csv_body(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in self.rows:
            w.writerow(row.csv_values())
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "algorithms": list(self.config.algorithm_list()),
            "row_count": len(self.rows),
            "artifacts": self.artifacts,
        }

    def write(self, outdir) -> tuple:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "results.csv"
        json_path = out / "summary.json"
        csv_path.write_text(self.csv_body(), encoding="utf-8")
        json_path.write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return csv_path, json_path


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    rows, artifacts = _SCENARIOS[cfg.scenario].runner(cfg)
    rows.sort(key=ResultRow.sort_key)
    artifacts.sort(key=lambda a: (a["parameter"], a["seed"], a["algorithm"]))
    return ExperimentResult(cfg, rows, artifacts)


def _record(rows, artifacts, cfg, alg, param, seed, ms, metrics, **artifact) -> None:
    """One row per (metric, value) and one artifact keyed by the row's
    (algorithm, parameter, seed)."""
    for metric, value in metrics:
        rows.append(ResultRow(cfg.scenario, alg, param, metric, value, seed, ms))
    artifacts.append({"algorithm": alg, "parameter": param, "seed": seed, **artifact})


# the row and artifact of a trial that raised: _record(..., 0.0, _ERROR, error=str(exc))
_ERROR = (("error", math.nan),)


def _topology(cfg: ExperimentConfig, default: TopologySpec) -> TopologySpec:
    """The config's topology, seeded with cfg.seed unless it names a seed."""
    if cfg.topology is None:
        return default
    return spec_from_json({"seed": cfg.seed, **cfg.topology})


# ---------------------------------------------------------------------------
# purify-compare: output fidelity and success curves over pair budgets


def _purify_tree(alg: str, n: int, f_e: float):
    if alg == "ours":
        tree, _ = max_fidelity_schedule(n, f_e)
        return tree
    if alg == "symmetric":
        return symmetric_schedule(n)
    return pumping_schedule(n)


def _pair_counts(cfg: ExperimentConfig) -> range:
    n_min, n_max = cfg.opt("pairs_min", 2), cfg.opt("pairs_max", 12)
    if n_min > n_max:
        raise ValueError(f"purify-compare option 'pairs_min' ({n_min}) exceeds 'pairs_max' ({n_max})")
    return range(n_min, n_max + 1)


def _purify_compare(cfg: ExperimentConfig):
    fidelities = cfg.opt("fidelities", (0.7, 0.75, 0.8))
    rows, artifacts = [], []
    for f_e in fidelities:
        for n in _pair_counts(cfg):
            param = f"f_e={f_e:g},n={n:02d}"
            for alg in cfg.algorithm_list():
                t0 = time.perf_counter()
                tree = _purify_tree(alg, n, f_e)
                f, _ = evaluate_tree(tree, f_e)
                succ = tree_success_prob(tree, f_e)
                ms = (time.perf_counter() - t0) * 1000.0
                _record(
                    rows, artifacts, cfg, alg, param, cfg.seed, ms,
                    (("fidelity", f), ("success_prob", succ)),
                    f_e=f_e, n=n, tree=tree_to_json(tree), fidelity=f, success_prob=succ,
                )
    return rows, artifacts


# ---------------------------------------------------------------------------
# strategy-compare: purify/swap orderings on seeded repeater chains


def _strategy_outcome(alg: str, chain: RepeaterChain):
    if alg == "pas":
        return purify_and_swap(chain)
    if alg == "sap":
        return swap_and_purify(chain)
    h = _SPS.match(alg).group(1)
    return swap_purify_swap(chain, chain.length if h == "l" else int(h))


def _strategy_compare(cfg: ExperimentConfig):
    lengths = cfg.opt("lengths", (6, 9, 12))
    per_hop = cfg.opt("pairs_per_hop", 2)
    lo, hi = cfg.opt("fidelity_band", (0.85, 0.99))
    p_s = cfg.opt("swap_success", 1.0)
    rows, artifacts = [], []
    for l in lengths:
        for trial in range(cfg.trials):
            rng = np.random.default_rng((cfg.seed, l, trial))
            fids = [float(f) for f in rng.uniform(lo, hi, size=l)]
            chain = RepeaterChain([[f] * per_hop for f in fids], p_s)
            param = f"l={l:02d},trial={trial:02d}"
            for alg in cfg.algorithm_list():
                m = _SPS.match(alg)
                if m and m.group(1) != "l" and int(m.group(1)) > l:
                    continue
                t0 = time.perf_counter()
                out = _strategy_outcome(alg, chain)
                ms = (time.perf_counter() - t0) * 1000.0
                _record(
                    rows, artifacts, cfg, alg, param, cfg.seed + trial, ms,
                    (("fidelity", out.fidelity), ("success_prob", out.success_prob)),
                    hop_fidelities=fids, pairs_per_hop=per_hop, swap_success=p_s,
                    fidelity=out.fidelity, success_prob=out.success_prob,
                )
    return rows, artifacts


# ---------------------------------------------------------------------------
# route-compare: optimal vs. pumping-schedule routing across thresholds


_ROUTE_MODES = {"ours": "optimal", "q-step": "pumping"}


def _route_trial(cfg, spec, theta, dphi, trial, rows, artifacts) -> None:
    """One seeded instance at one (threshold, step) point; failures become
    error rows rather than exceptions."""
    dpsi = cfg.opt("dpsi", 0.01)
    demand = cfg.opt("demand", 1.0)
    deltaq = cfg.opt("deltaq", 5)
    inst = perturbed(spec, trial)
    param = f"threshold={theta:g},dphi={dphi:g},trial={trial:02d}"
    try:
        net = generate(inst)
        flow = sample_flows(net, 1, seed=inst.seed)[0]
        aux = build_aux_graph(net, flow.source, flow.destination, deltaq)
        phi0 = pseudo_fidelity(theta)
        psi0 = math.log(demand)
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        for alg in cfg.algorithm_list():
            _record(rows, artifacts, cfg, alg, param, inst.seed, 0.0, _ERROR, error=str(exc))
        return
    for alg in cfg.algorithm_list():
        t0 = time.perf_counter()
        try:
            plan = min_cost_path(aux, phi0, psi0, dphi, dpsi, mode=_ROUTE_MODES[alg])
        except Exception as exc:  # noqa: BLE001
            _record(rows, artifacts, cfg, alg, param, inst.seed, 0.0, _ERROR, error=str(exc))
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        metrics = (("success", 1.0 if plan else 0.0),)
        if plan is not None:
            metrics += (("cost", plan.cost), ("fidelity", plan.fidelity))
        _record(
            rows, artifacts, cfg, alg, param, inst.seed, ms, metrics,
            source=str(flow.source), destination=str(flow.destination),
            threshold=theta, dphi=dphi, dpsi=dpsi, demand=demand, deltaq=deltaq,
            topology_seed=inst.seed, plan=None if plan is None else plan.to_json(),
        )


def _route_compare(cfg: ExperimentConfig):
    spec = _topology(cfg, TopologySpec(kind="grid", rows=5, cols=5, capacity=15, seed=cfg.seed))
    dphis = cfg.opt("dphi", (0.01, 0.02))
    rows, artifacts = [], []
    for theta in cfg.thresholds:
        for dphi in dphis:
            for trial in range(cfg.trials):
                _route_trial(cfg, spec, theta, dphi, trial, rows, artifacts)
    # aggregate rows; deterministic values only (runtimes stay per-trial)
    for theta in cfg.thresholds:
        for dphi in dphis:
            prefix = f"threshold={theta:g},dphi={dphi:g},trial="
            for alg in cfg.algorithm_list():
                group = [r for r in rows if r.algorithm == alg and r.parameter.startswith(prefix)]
                succ = [r.value for r in group if r.metric == "success"]
                costs = [r.value for r in group if r.metric == "cost"]
                if not succ:
                    continue
                agg = f"threshold={theta:g},dphi={dphi:g}"
                mean_cost = sum(costs) / len(costs) if costs else math.nan
                for metric, value in (
                    ("success_rate", sum(succ) / len(succ)),
                    ("mean_cost", mean_cost),
                ):
                    rows.append(ResultRow(cfg.scenario, alg, agg, metric, value, cfg.seed, 0.0))
    return rows, artifacts


# ---------------------------------------------------------------------------
# multiflow: LP relaxation plus randomized rounding on seeded instances


def _multiflow(cfg: ExperimentConfig):
    spec = _topology(
        cfg, TopologySpec(kind="grid", rows=3, cols=3, capacity=3, qubit_allowance=2, seed=cfg.seed)
    )
    n_flows = cfg.opt("flows", 3)
    f0 = cfg.opt("flow_fidelity", 0.8)
    eps = cfg.opt("epsilon", 0.2)
    delta = cfg.opt("delta", 0.05)
    r_k = cfg.opt("r_k", 3)
    w_lo, w_hi = cfg.opt("weight_band", (1, 5))
    rows, artifacts = [], []
    for trial in range(cfg.trials):
        inst = perturbed(spec, trial)
        param = f"flows={n_flows},trial={trial:02d}"
        t0 = time.perf_counter()
        try:
            net = generate(inst)
            rng = np.random.default_rng((cfg.seed, trial))
            base = sample_flows(net, n_flows, seed=inst.seed, f0=f0, r_k=r_k)
            flows = [
                FlowRequest(
                    fl.id, fl.source, fl.destination, fl.f0,
                    float(rng.integers(w_lo, w_hi + 1)), fl.r_k,
                )
                for fl in base
            ]
            result = multiflow_solve(flows, net, eps, delta, seed=inst.seed)
        except Exception as exc:  # noqa: BLE001
            _record(rows, artifacts, cfg, "ours", param, inst.seed, 0.0, _ERROR, error=str(exc))
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        sel = result.selection
        weight = sel.total_weight if sel is not None else math.nan
        _record(
            rows, artifacts, cfg, "ours", param, inst.seed, ms,
            (
                ("lp_objective", result.lp_objective),
                ("selected_weight", weight),
                ("feasible_fraction", result.feasible_trials / result.trials),
            ),
            topology_seed=inst.seed,
            flows=[
                {
                    "id": fl.id,
                    "source": str(fl.source),
                    "destination": str(fl.destination),
                    "f0": fl.f0,
                    "weight": fl.weight,
                    "r_k": fl.r_k,
                }
                for fl in flows
            ],
            epsilon=eps,
            delta=delta,
            result=result.to_json(),
        )
    return rows, artifacts


# ---------------------------------------------------------------------------
# the scenario table: each scenario's runner, default algorithms (also the
# known ones; strategy-compare accepts any sps{h} besides) and the options
# its runner reads through cfg.opt, each with the rule its value must meet
# (a test and what it asks for).  A value no trial could run with
# exits 2 at config time; failures that depend on the drawn topology stay
# per-trial error rows.


def _pair_fidelity(v) -> bool:
    # an elementary pair worth purifying, as schedules and chains take it
    return _number(v) and 0.5 <= v <= 1


def _pair(v, test) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(test, v)) and v[0] <= v[1]


_POSITIVE = (lambda v: _number(v) and v > 0, "positive")
_STEP = (_step, "a finite number > 0 with a finite reciprocal")
_COUNT = (lambda v: _integer(v) and v >= 1, "an integer >= 1")
_FIDELITY = (lambda v: _number(v) and 0.25 < v <= 1, "in (0.25, 1]")


class _Scenario(NamedTuple):
    runner: Callable
    algorithms: tuple
    options: dict


_SCENARIOS = {
    "purify-compare": _Scenario(
        _purify_compare,
        ("ours", "symmetric", "pumping"),
        {
            "fidelities": (
                lambda v: isinstance(v, (list, tuple)) and all(map(_pair_fidelity, v)),
                "a list of numbers in [0.5, 1]",
            ),
            "pairs_min": _COUNT,
            "pairs_max": (lambda v: _integer(v) and 1 <= v <= PAIRS_MAX, f"an integer in [1, {PAIRS_MAX}]"),
        },
    ),
    "strategy-compare": _Scenario(
        _strategy_compare,
        ("pas", "sap", "sps{2}", "sps{3}", "sps{l}"),
        {
            "lengths": (
                lambda v: isinstance(v, (list, tuple)) and all(map(_COUNT[0], v)),
                "a list of integers >= 1",
            ),
            "pairs_per_hop": (
                lambda v: _integer(v) and 1 <= v <= HOP_PAIRS_MAX, f"an integer in [1, {HOP_PAIRS_MAX}]"
            ),
            "fidelity_band": (
                lambda v: _pair(v, _pair_fidelity),
                "two numbers [lo, hi] with 0.5 <= lo <= hi <= 1",
            ),
            "swap_success": (lambda v: _number(v) and 0 < v <= 1, "in (0, 1]"),
        },
    ),
    "route-compare": _Scenario(
        _route_compare,
        ("ours", "q-step"),
        {
            "dphi": (
                lambda v: isinstance(v, (list, tuple))
                and all(_number(d) and DELTA_PHI_MIN <= d < math.inf for d in v),
                f"a list of finite numbers >= {DELTA_PHI_MIN!r}",
            ),
            "dpsi": _STEP,
            "demand": _POSITIVE,
            "deltaq": _COUNT,
        },
    ),
    "multiflow": _Scenario(
        _multiflow,
        ("ours",),
        {
            "flows": _COUNT,
            "flow_fidelity": _FIDELITY,
            "epsilon": (lambda v: _number(v) and 0 < v < 0.5, "in (0, 0.5)"),
            "delta": (
                lambda v: _step(v) and v < 1,
                "in (0, 1) with a finite reciprocal",
            ),
            "r_k": _COUNT,
            "weight_band": (
                lambda v: _pair(v, _integer) and v[0] >= 0,
                "two integers [lo, hi] with 0 <= lo <= hi",
            ),
        },
    ),
}

# the config fields, with the rule each value must meet
_FIELDS = {
    "scenario": (lambda v: isinstance(v, str) and v in _SCENARIOS, f"one of {', '.join(_SCENARIOS)}"),
    "trials": _COUNT,
    "seed": (_seed, "an integer in [0, 2**64)"),
    "output": (lambda v: v is None or isinstance(v, str), "a path"),
    "topology": (lambda v: v is None or isinstance(v, dict), "an object"),
    # read by route-compare: pseudo_fidelity needs F > 0.25
    "thresholds": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_FIDELITY[0], v)),
        "a list of numbers in (0.25, 1]",
    ),
    "algorithms": (
        lambda v: v is None or isinstance(v, (list, tuple)) and all(isinstance(a, str) for a in v),
        "a list of names",
    ),
}
