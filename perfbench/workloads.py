"""The rounds of each workload, run inside one worker process.

Each workload turns a list of pool keys (see ``plan.py``) into inputs when
it is constructed, which is the set-up the benchmark times, and then runs
one round per key.  A round splits itself into segments of at most about a
second with ``clock.lap()`` (see ``calibrate.Clock``).  It returns a digest
of everything it produced, which the orchestrator compares with
``references.json``, and, unless the round is itself the query, the
latency of each query it issued with the index of the segment it ran in.  All calls go through module attributes, so the spans
that ``tracing.install`` puts there see them.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from pathlib import Path

import numpy as np

from entroute import cli, experiments, multiflow, purification, topology, verify
from plan import ROUTE_CELLS
from tracing import span


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


ROUTE_THRESHOLDS = (0.8, 0.85, 0.9)
ROUTE_DPHI = (0.01, 0.02)
ROUTE_ALGORITHMS = ("ours", "q-step")


def route_config(key: int):
    """Key x*12 + cell: the one-trial route-compare config with seed x,
    reduced to one (threshold, dphi, algorithm) cell of the default grid."""
    seed, cell = divmod(key, ROUTE_CELLS)
    t, rest = divmod(cell, len(ROUTE_DPHI) * len(ROUTE_ALGORITHMS))
    d, a = divmod(rest, len(ROUTE_ALGORITHMS))
    return experiments.config_from_json(
        {
            "scenario": "route-compare",
            "trials": 1,
            "seed": seed,
            "thresholds": [ROUTE_THRESHOLDS[t]],
            "dphi": [ROUTE_DPHI[d]],
            "algorithms": [ROUTE_ALGORITHMS[a]],
        }
    )


class RouteCompare:
    """One round is one min_cost_path query of the default route-compare
    config (5x5 grid, capacity 15, deltaq 5), run through run_experiment:
    it generates the trial's topology, builds the auxiliary graph and
    searches."""

    def __init__(self, keys, tracer, scratch):
        self.tracer = tracer
        self.configs = {k: route_config(k) for k in keys}

    def run(self, key, clock) -> dict:
        with span(self.tracer, "experiments.run"):
            res = experiments.run_experiment(self.configs[key])
        if self.tracer is not None:
            self.tracer.counts["experiments.rows"] += len(res.rows)
            self.tracer.counts["experiments.error_rows"] += sum(r.metric == "error" for r in res.rows)
        # runtime_ms is the last CSV column and the only one that varies
        body = "\n".join(line.rsplit(",", 1)[0] for line in res.csv_body().splitlines())
        return {
            "queries": [[r.runtime_ms, clock.index] for r in res.rows if r.metric == "success"],
            "output": _digest(body),
        }


# The theorem4-mc recipe of verify.rounding_mc_instance on a 2x2 grid: a
# 39-qubit allowance per neighbour is the least that meets the per-node
# guarantee bound ln(3|V|)/((1-eps) eps^2) = 77.6 qubits at eps = 0.2.
MF_EPS = 0.2
MF_TRIALS = 300
MF_WEIGHTS = (35.0, 40.0, 45.0)


def multiflow_instance(seed: int):
    spec = topology.TopologySpec(
        kind="grid", rows=2, cols=2, capacity=39, qubit_allowance=39, seed=seed
    )
    net = topology.generate(spec)
    base = topology.sample_flows(net, 3, seed=seed + 1, f0=0.8, r_k=3)
    flows = [
        multiflow.FlowRequest(fl.id, fl.source, fl.destination, fl.f0, w, fl.r_k)
        for fl, w in zip(base, MF_WEIGHTS)
    ]
    return net, flows


class MultiflowMC:
    """One round is rounding_mc_stats on one instance: R=3 candidate paths
    per flow, the discounted LP, the exhaustive ILP and 300 rounding
    trials.  The round is also the query, as one `verify` Monte Carlo
    request; its three candidate searches share the frontier cache, so
    the first one costs several times the others.  Each search is a
    segment, and the LP, ILP and rounding one more."""

    def __init__(self, keys, tracer, scratch):
        self.instances = {k: multiflow_instance(k) for k in keys}

    def run(self, key, clock) -> dict:
        net, flows = self.instances[key]
        conds = multiflow.guarantee_conditions(net, flows, MF_EPS)
        candidates = []
        for fl in flows:
            candidates.append(multiflow.flow_candidates(net, fl, MF_EPS))
            clock.lap()
        prog = multiflow.build_program(flows, candidates, net, beta=1.0 - MF_EPS)
        x, lp_obj = multiflow.solve_lp(prog)
        _, ilp_weight = multiflow.ilp_solve(prog)
        target = (1.0 - 2.0 * MF_EPS) * lp_obj
        hits = over_ilp = 0
        max_weight = -np.inf
        for trial in range(MF_TRIALS):
            sel = multiflow.randomized_round(prog, x, key, trial)
            if sel.feasible:
                hits += sel.total_weight >= target - 1e-9
                max_weight = max(max_weight, sel.total_weight)
                over_ilp += sel.total_weight > ilp_weight + 1e-9
        lines = [
            f"qubits_ok={conds['qubits_ok']} weights_ok={conds['weights_ok']}",
            f"lp_objective={lp_obj:.9f} ilp_weight={ilp_weight:.9f}",
            f"hits={hits}/{MF_TRIALS} max_weight={max_weight:.9f} over_ilp={over_ilp}",
        ]
        for fl, plans in zip(flows, candidates):
            for p in plans:
                lines.append(f"{fl.id} {p.nodes} {p.pair_counts} cost={p.cost:.9f}")
        return {"output": _digest("\n".join(lines))}


PURIFY_GRID = (8, 6, 3)  # cells along n, f_e and f_theta
PURIFY_QUERIES = 144  # one per cell
PURIFY_SEGMENT = 16  # schedule queries per segment
SCAN_ARGS = ["strategy", "scan", "--region", "lemma1", "--step", "0.02"]
VERIFY_SUITES = ("lemma1", "theorem2-small")


def purify_queries(seed: int) -> list:
    """(n, f_e, f_theta) triples with n in [8, 64], f_e in [0.70, 0.95] and
    f_theta 20-90% of the way from f_e to the best fidelity n pairs reach,
    so every query has a schedule.

    The box is cut into PURIFY_GRID cells, one query per cell, placed in
    its cell by the seed.  Query cost grows steeply with n and with f_theta
    near the best, so every batch holds the same number of queries in the
    slow corner, and the latency percentiles vary little from seed to seed.
    """
    jitter = np.random.default_rng(seed).uniform(size=(PURIFY_QUERIES, 3))
    cells = itertools.product(*(range(k) for k in PURIFY_GRID))
    out = []
    for cell, u in zip(cells, jitter):
        a, b, c = ((i + x) / k for i, x, k in zip(cell, u, PURIFY_GRID))
        n = 8 + int(a * 57)
        f_e = round(0.70 + 0.25 * b, 4)
        f_max = purification.max_fidelity_schedule(n, f_e)[1]
        out.append((n, f_e, round(f_e + (0.2 + 0.7 * c) * (f_max - f_e), 4)))
    return out


class PurifyScan:
    """One round: the `strategy scan --region lemma1 --step 0.02` command
    path, one batch of `purify`-style schedule queries, and the lemma1 and
    theorem2-small verify suites.  No routing runs here.  The scan, every
    PURIFY_SEGMENT queries and each suite are a segment."""

    def __init__(self, keys, tracer, scratch):
        self.tracer = tracer
        self.scan_out = Path(scratch) / "scan.csv"
        self.batches = {k: purify_queries(k) for k in keys}

    def run(self, key, clock) -> dict:
        with span(self.tracer, "cli.scan_csv"):
            code = cli.main(SCAN_ARGS + ["--out", str(self.scan_out)])
        scan = self.scan_out.read_bytes()
        self.scan_out.unlink()
        clock.lap()
        queries, answers = [], []
        for i, (n, f_e, f_theta) in enumerate(self.batches[key]):
            if i and i % PURIFY_SEGMENT == 0:
                clock.lap()
            t0 = time.perf_counter()
            entry = purification.schedule(
                purification.SchedulerConfig(n, f_e, f_theta, 1e-4, 1e-4)
            )
            with span(self.tracer, "purification.tree_eval"):
                f, y = purification.evaluate_tree(entry.tree, f_e)
                p = purification.tree_success_prob(entry.tree, f_e)
            queries.append([(time.perf_counter() - t0) * 1000.0, clock.index])
            answers.append(
                f"{n} {f_e} {f_theta} {purification.tree_to_text(entry.tree)} "
                f"{f:.12g} {y:.12g} {p:.12g}"
            )
        reports = []
        for suite in VERIFY_SUITES:
            clock.lap()
            with span(self.tracer, f"verify.{suite}"):
                reports += verify.run_suite(suite, 0)
        text, verify_code = verify.render(reports)
        return {
            "queries": queries,
            "output": f"scan={code}:{hashlib.sha256(scan).hexdigest()[:16]} "
            f"schedules={_digest(chr(10).join(answers))} verify={verify_code}:{_digest(text)}",
        }


WORKLOADS = {"route-compare": RouteCompare, "multiflow-mc": MultiflowMC, "purify-scan": PurifyScan}
