"""Command-line front end.

Subcommands mirror the library layers: ``purify`` (single-link schedules),
``strategy`` (chain policies and region scans), ``route`` (single-pair
search), ``multiflow`` (LP relaxation + rounding), ``topo gen`` (seeded
topologies), ``experiment run`` (batch scenarios), and ``verify``
(fixed-seed invariant suites).  The ENTROUTE_SEED environment variable
overrides every seed source — flags and config files alike.  All file
output is UTF-8 JSON/CSV; re-running a command with the same flags and
seed reproduces the CSV bodies byte for byte (runtimes excluded).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from contextlib import nullcontext

from .auxgraph import build_aux_graph
from .experiments import _COUNT, _FIDELITY, config_from_json, run_experiment
from .multiflow import FlowRequest, multiflow_solve
from .network import QuantumNetwork, _check_fields, _integer, _json_rows, _number, _seed, _step
from .pair_algebra import pseudo_fidelity
from .purification import (
    PAIRS_MAX,
    SchedulerConfig,
    brute_force_optimal,
    evaluate_tree,
    leaf_count,
    pumping_schedule,
    schedule,
    symmetric_schedule,
    tree_to_text,
)
from .routing import DELTA_PHI_MIN, brute_force_route, min_cost_path
from .strategies import (
    RepeaterChain,
    purify_and_swap,
    scan_points,
    swap_and_purify,
    swap_purify_swap,
)
from .topology import generate, spec_from_json
from .verify import SUITES, render, run_suite


def _checked_seed(source: str, seed: int) -> int:
    """seed, read from source; the one range check of every seed the CLI
    takes (flags, ENTROUTE_SEED and, by the same rule, a config's seed)."""
    if not _seed(seed):
        raise ValueError(f"{source}={seed!r} must lie in [0, 2**64)")
    return seed


def _env_seed():
    raw = os.environ.get("ENTROUTE_SEED", "").strip()
    if not raw:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"ENTROUTE_SEED={raw!r} is not an integer") from None
    return _checked_seed("ENTROUTE_SEED", seed)


def _opened(out):
    """The --out file opened for writing, or stdout when there is none."""
    return open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout)


def _emit_json(obj, out=None) -> None:
    with _opened(out) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# purify


def _cmd_purify(args) -> int:
    if not 1 <= args.n <= PAIRS_MAX:
        raise ValueError(f"--n={args.n!r} outside [1, {PAIRS_MAX}]")
    if not 0.5 <= args.fe <= 1.0:
        raise ValueError(f"--fe={args.fe!r} outside [0.5, 1]")
    if args.baseline is not None:
        for flag, given in (("--ftheta", args.ftheta is not None), ("--oracle", args.oracle)):
            if given:
                raise ValueError(f"{flag} does not apply to --baseline")
    if args.baseline == "symmetric":
        tree = symmetric_schedule(args.n)
    elif args.baseline == "pumping":
        tree = pumping_schedule(args.n)
    else:
        if args.ftheta is None:
            raise ValueError("--ftheta is required unless --baseline is given")
        if args.oracle:
            tree = brute_force_optimal(args.n, args.fe, args.ftheta)
        else:
            for flag, step in (("--df", args.df), ("--dxi", args.dxi)):
                if not (_step(step) and step < 1.0):
                    raise ValueError(f"{flag}={step!r} must lie in (0, 1) and have a finite reciprocal")
            ent = schedule(
                SchedulerConfig(args.n, args.fe, args.ftheta, args.df, args.dxi)
            )
            tree = None if ent is None else ent.tree
    if tree is None:
        _emit_json({"infeasible": True, "n": args.n, "f_e": args.fe, "f_theta": args.ftheta})
        return 1
    f, y = evaluate_tree(tree, args.fe)
    b = leaf_count(tree)
    _emit_json(
        {
            "tree": tree_to_text(tree),
            "exact_fidelity": f,
            "exact_yield": y,
            "leaves": b,
            "throughput_per_input_pair": y / b,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# strategy


# the keys of a --chain object: its hops, each a non-empty list of pair
# fidelities, and the swap success probability
_CHAIN_KEYS = {
    "hops": (
        lambda v: isinstance(v, list) and all(isinstance(h, list) and h and all(map(_number, h)) for h in v),
        "a list of non-empty lists of numbers",
    ),
    "swap_success": (_number, "a number"),
}


def _parse_chain(text: str) -> RepeaterChain:
    """--chain: a JSON list of hops, or an object with "hops" and an
    optional "swap_success"."""
    obj = json.loads(text)
    chain = _check_fields(obj if isinstance(obj, dict) else {"hops": obj}, _CHAIN_KEYS, ("hops",), "--chain")
    try:
        return RepeaterChain(chain["hops"], chain.get("swap_success", 1.0))
    except ValueError as exc:
        raise ValueError(f"--chain: {exc}") from None


# rows joined per write: the scan CSV is written a bounded block at a time,
# never held whole (the 0.01-step scan is 2.5M rows)
_SCAN_BLOCK_ROWS = 1024


def _write_scan(fh, lines) -> None:
    """The scan CSV: its header, then scan_points' data lines, joined and
    written _SCAN_BLOCK_ROWS at a time.  No field needs quoting (numbers,
    nan/inf, pas/sap/tie), so these are the bytes csv.writer would write."""
    fh.write("a,b,c,d,delta,winner\n")
    while block := "".join(itertools.islice(lines, _SCAN_BLOCK_ROWS)):
        fh.write(block)


def _cmd_strategy(args) -> int:
    if args.mode == "scan":
        for flag, value in (("--chain", args.chain), ("--policy", args.policy), ("--h", args.h)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to strategy scan")
        lines = scan_points(args.region or "lemma1", 0.01 if args.step is None else args.step)
        first = next(lines)  # checks the step before --out is created
        with _opened(args.out) as fh:
            _write_scan(fh, itertools.chain((first,), lines))
        return 0
    for flag, value in (("--step", args.step), ("--region", args.region)):
        if value is not None:
            raise ValueError(f"{flag} applies only to strategy scan")
    if args.chain is None or args.policy is None:
        raise ValueError("--chain and --policy are required")
    if args.h is not None and args.policy != "sps":
        raise ValueError(f"--h applies only to --policy sps, not {args.policy}")
    chain = _parse_chain(args.chain)
    if args.policy == "pas":
        out = purify_and_swap(chain)
    elif args.policy == "sap":
        out = swap_and_purify(chain)
    else:
        h = chain.length if args.h is None else args.h
        out = swap_purify_swap(chain, h)
    record = {
        "policy": args.policy,
        "fidelity": out.fidelity,
        "success_prob": out.success_prob,
    }
    if args.policy == "sps":
        record["h"] = h
    _emit_json(record, args.out)
    return 0


# ---------------------------------------------------------------------------
# route


def _node_id(net: QuantumNetwork, raw: str):
    """Flags arrive as strings; integer-labelled networks need a coercion."""
    if raw in net.nodes:
        return raw
    try:
        as_int = int(raw)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in net.nodes:
        return as_int
    raise ValueError(f"node {raw!r} not in network")


def _write_label_stats(path, stats: dict) -> None:
    """One row per auxiliary vertex of the search's final pass: its alive
    labels, the labels pushed into it and its expansions, so each column
    sums to the search's total."""
    alive = stats["alive_per_vertex"]
    pushed = stats["pushed_per_vertex"]
    expanded = stats["expanded_per_vertex"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("vertex", "alive_labels", "pushed", "expanded"))
        for v in sorted(alive.keys() | pushed.keys() | expanded.keys(), key=str):
            w.writerow((v, alive.get(v, 0), pushed.get(v, 0), expanded.get(v, 0)))


def _cmd_route(args) -> int:
    if not 0.25 < args.f0 <= 1.0:
        raise ValueError(f"--f0={args.f0!r} outside (0.25, 1]")
    if not args.q0 > 0.0:
        raise ValueError(f"--q0={args.q0!r} must be > 0")
    for flag, step in (("--dphi", args.dphi), ("--dpsi", args.dpsi)):
        if not _step(step):
            raise ValueError(f"{flag}={step!r} must be a finite number > 0 with a finite reciprocal")
    if args.dphi < DELTA_PHI_MIN:
        raise ValueError(f"--dphi={args.dphi!r} is below the least step {DELTA_PHI_MIN!r}")
    net = QuantumNetwork.load(args.net)
    src, dst = _node_id(net, args.src), _node_id(net, args.dst)
    aux = build_aux_graph(net, src, dst, deltaq=args.deltaq)
    phi0 = pseudo_fidelity(args.f0)
    psi0 = math.log(args.q0)
    stats: dict = {}
    plan = min_cost_path(aux, phi0, psi0, args.dphi, args.dpsi, stats=stats)
    record = {"infeasible": True} if plan is None else plan.to_json()
    if args.oracle:
        oracle = brute_force_route(net, src, dst, args.f0, args.q0)
        record["oracle"] = None if oracle is None else oracle.to_json()
    if args.stats_out:
        _write_label_stats(args.stats_out, stats)
    _emit_json(record, args.out)
    return 1 if plan is None else 0


# ---------------------------------------------------------------------------
# multiflow


def _flows_from_json(rows, net: QuantumNetwork, rk: int) -> list:
    """The FlowRequests of a --flows file: a JSON list of objects, each
    with the keys below ("rk" defaults to --rk) and values that meet their
    rules.  Anything else raises ValueError."""
    node = (lambda v: (isinstance(v, str) or _number(v)) and v in net.nodes, "a network node")
    rules = {
        "id": (lambda v: isinstance(v, str) or _integer(v), "a string or an integer"),
        "src": node,
        "dst": node,
        "f0": _FIDELITY,
        "weight": (lambda v: _number(v) and 0 <= v < math.inf, "a finite number >= 0"),
        "rk": _COUNT,
    }
    rows = _json_rows(rows, rules, rules.keys() - {"rk"}, "flow")
    return [
        FlowRequest(r["id"], r["src"], r["dst"], r["f0"], r["weight"], r.get("rk", rk)) for r in rows
    ]


def _cmd_multiflow(args) -> int:
    if args.rk < 1:
        raise ValueError(f"--rk={args.rk!r} must be >= 1")
    seed = _env_seed()
    if seed is None:
        seed = _checked_seed("--seed", args.seed)
    net = QuantumNetwork.load(args.net)
    flows = _flows_from_json(_load_json(args.flows), net, args.rk)
    res = multiflow_solve(flows, net, args.eps, args.delta, seed, deltaq=args.deltaq)
    sel = res.selection
    _emit_json(
        {
            "selection": None if sel is None else sel.chosen,
            "total_weight": None if sel is None else sel.total_weight,
            "lp_objective": res.lp_objective,
            "trials": res.trials,
            "feasible_trials": res.feasible_trials,
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# topo / experiment / verify


def _cmd_topo_gen(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    seed = _env_seed()
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    net = generate(spec)
    net.dump(args.out)
    return 0


def _cmd_experiment_run(args) -> int:
    cfg = config_from_json(_load_json(args.config))
    seed = _env_seed()
    if seed is not None:
        # it replaces a seed the topology names too (one that names none
        # takes cfg.seed, the same value)
        topology = None if cfg.topology is None else {**cfg.topology, "seed": seed}
        cfg = dataclasses.replace(cfg, seed=seed, topology=topology)
    outdir = args.out or cfg.output or "."
    result = run_experiment(cfg)
    csv_path, json_path = result.write(outdir)
    sys.stdout.write(f"{csv_path}\n{json_path}\n")
    return 0


def _cmd_verify(args) -> int:
    seed = _env_seed()
    if seed is None:
        seed = _checked_seed("--seed", args.seed)
    reports = run_suite(args.suite, seed)
    text, code = render(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="entroute", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("purify", help="single-link purification schedule")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--fe", type=float, required=True)
    q.add_argument("--ftheta", type=float)
    q.add_argument("--df", type=float, default=1e-4)
    q.add_argument("--dxi", type=float, default=1e-4)
    q.add_argument("--baseline", choices=("symmetric", "pumping"))
    q.add_argument("--oracle", action="store_true")
    q.set_defaults(fn=_cmd_purify)

    s = sub.add_parser("strategy", help="chain strategy evaluation or region scan")
    s.add_argument("mode", nargs="?", choices=("scan",), default=None)
    s.add_argument("--chain", help='hop fidelities as JSON, e.g. [[0.8,0.8],[0.9]]')
    s.add_argument("--policy", choices=("pas", "sap", "sps"))
    s.add_argument("--h", type=int, help="swap span of --policy sps (default: the chain length)")
    s.add_argument("--step", type=float, help="grid step of strategy scan (default: 0.01)")
    s.add_argument("--region", choices=("lemma1", "low"), help="region of strategy scan (default: lemma1)")
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_strategy)

    r = sub.add_parser("route", help="min-cost single-pair route")
    r.add_argument("--net", required=True)
    r.add_argument("--src", required=True)
    r.add_argument("--dst", required=True)
    r.add_argument("--f0", type=float, required=True)
    r.add_argument("--q0", type=float, default=1.0)
    r.add_argument("--dphi", type=float, default=0.01)
    r.add_argument("--dpsi", type=float, default=0.01)
    r.add_argument("--deltaq", type=int, default=1)
    r.add_argument("--oracle", action="store_true")
    r.add_argument("--out")
    r.add_argument("--stats-out")
    r.set_defaults(fn=_cmd_route)

    m = sub.add_parser("multiflow", help="multi-flow LP + randomized rounding")
    m.add_argument("--net", required=True)
    m.add_argument("--flows", required=True)
    m.add_argument("--eps", type=float, default=0.1)
    m.add_argument("--delta", type=float, default=0.05)
    m.add_argument("--rk", type=int, default=3)
    m.add_argument("--seed", type=int, default=7)
    m.add_argument("--deltaq", type=int, default=1)
    m.add_argument("--out")
    m.set_defaults(fn=_cmd_multiflow)

    t = sub.add_parser("topo", help="topology utilities")
    tsub = t.add_subparsers(dest="topo_command", required=True)
    tg = tsub.add_parser("gen", help="generate a seeded network file")
    tg.add_argument("--spec", required=True)
    tg.add_argument("--out", required=True)
    tg.set_defaults(fn=_cmd_topo_gen)

    e = sub.add_parser("experiment", help="batch experiment scenarios")
    esub = e.add_subparsers(dest="experiment_command", required=True)
    er = esub.add_parser("run", help="run a scenario from a JSON config")
    er.add_argument("--config", required=True)
    er.add_argument("--out")
    er.set_defaults(fn=_cmd_experiment_run)

    v = sub.add_parser("verify", help="fixed-seed invariant suites")
    v.add_argument("--suite", choices=SUITES + ("all",), required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`entroute ... | head`): exit as SIGPIPE
        # would, with stdout on devnull so the flush at exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
