import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from entroute import cli
from entroute.cli import main, scan_points
from entroute.experiments import config_from_json
from entroute.network import QuantumNetwork
from entroute.pair_algebra import (
    purification_success_prob,
    purified_fidelity,
    pseudo_fidelity,
)
from entroute.purification import evaluate_tree, leaf_count, pumping_schedule, tree_to_text
from entroute.strategies import _blocks, _delta_block, _swap_block
from entroute.topology import TopologySpec, perturbed, spec_from_json
from oracles import lemma1_delta


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def grid_net(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "kind": "grid",
                "rows": 2,
                "cols": 3,
                "capacity": 3,
                "qubit_allowance": 1,
                "seed": 5,
            }
        ),
        encoding="utf-8",
    )
    net = tmp_path / "net.json"
    assert main(["topo", "gen", "--spec", str(spec), "--out", str(net)]) == 0
    return spec, net


def test_purify_schedule_json(capsys):
    code, out, _ = run_cli(
        capsys, "purify", "--n", "2", "--fe", "0.75", "--ftheta", "0.78"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["tree"] == "(L,L)"
    assert rec["leaves"] == 2
    assert rec["exact_fidelity"] == pytest.approx(purified_fidelity(0.75, 0.75), abs=1e-12)
    assert rec["exact_yield"] == pytest.approx(purification_success_prob(0.75, 0.75), abs=1e-12)
    assert rec["throughput_per_input_pair"] == pytest.approx(rec["exact_yield"] / 2, abs=1e-12)


def test_purify_baseline_and_oracle_agree(capsys):
    code, out, _ = run_cli(capsys, "purify", "--n", "4", "--fe", "0.75", "--baseline", "symmetric")
    assert code == 0
    assert json.loads(out)["tree"] == "((L,L),(L,L))"
    code, out, _ = run_cli(
        capsys, "purify", "--n", "3", "--fe", "0.75", "--ftheta", "0.8", "--oracle"
    )
    assert code == 0
    oracle = json.loads(out)
    code, out, _ = run_cli(capsys, "purify", "--n", "3", "--fe", "0.75", "--ftheta", "0.8")
    assert code == 0
    assert json.loads(out)["tree"] == oracle["tree"]


def test_purify_infeasible_exit_code(capsys):
    code, out, _ = run_cli(capsys, "purify", "--n", "2", "--fe", "0.6", "--ftheta", "0.999")
    assert code == 1
    assert json.loads(out)["infeasible"] is True


def test_purify_deep_pumping_tree_exits_0(capsys):
    # a pumping tree of n pairs is n - 1 levels deep; every tree walk is
    # iterative, so the library walks one past the recursion limit, and
    # the CLI prints the schedule at its pair bound
    fe = 0.9
    for n in (5000, 512):
        f = fe
        for _ in range(n - 1):
            f = purified_fidelity(f, fe)
        text = "(" * (n - 1) + "L" + ",L)" * (n - 1)
        tree = pumping_schedule(n)
        assert (tree_to_text(tree), leaf_count(tree), evaluate_tree(tree, fe)[0]) == (text, n, f)
    # n is now 512, the CLI's bound
    code, out, _ = run_cli(capsys, "purify", "--n", str(n), "--fe", str(fe), "--baseline", "pumping")
    assert code == 0
    rec = json.loads(out)
    assert (rec["tree"], rec["leaves"], rec["exact_fidelity"]) == (text, n, f)


@pytest.mark.parametrize("baseline", [[], ["--baseline", "pumping"], ["--baseline", "symmetric"], ["--oracle"]])
@pytest.mark.parametrize("n", ["-3", "0", "513"])
def test_purify_rejects_n_outside_the_pair_bound_exits_2(capsys, n, baseline):
    # a pumping tree's text and the scheduler's time both grow as n^2
    ftheta = [] if baseline[:1] == ["--baseline"] else ["--ftheta", "0.95"]
    code, out, err = run_cli(capsys, "purify", "--n", n, "--fe", "0.9", *ftheta, *baseline)
    assert code == 2 and out == ""
    assert f"--n={n} outside [1, 512]" in err


@pytest.mark.parametrize("flag", ["--df", "--dxi"])
def test_purify_checks_subnormal_step_exits_2(capsys, flag):
    # 1e-320 lies in (0, 1), but its reciprocal is infinite
    code, out, err = run_cli(capsys, "purify", "--n", "4", "--fe", "0.9", "--ftheta", "0.95", flag, "1e-320")
    assert code == 2 and out == ""
    assert f"{flag}=1e-320 must lie in (0, 1)" in err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["scheduler", "oracle"])
@pytest.mark.parametrize("ftheta", ["5", "nan", "0.25"])
def test_purify_checks_ftheta_exits_2(capsys, ftheta, oracle):
    # the oracle checks the threshold as the scheduler does
    code, out, err = run_cli(capsys, "purify", "--n", "4", "--fe", "0.9", "--ftheta", ftheta, *oracle)
    assert code == 2 and out == ""
    assert f"f_theta={float(ftheta)!r} outside (0.25, 1]" in err


def test_purify_missing_ftheta(capsys):
    code, _, err = run_cli(capsys, "purify", "--n", "2", "--fe", "0.75")
    assert code == 2
    assert "--ftheta" in err


def test_strategy_eval(capsys):
    code, out, _ = run_cli(
        capsys, "strategy", "--chain", "[[0.8, 0.8], [0.9, 0.9]]", "--policy", "pas"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["policy"] == "pas"
    assert 0.5 < rec["fidelity"] < 1.0
    # h = l degenerates to purify-and-swap
    code, out, _ = run_cli(
        capsys,
        "strategy",
        "--chain",
        '{"hops": [[0.8, 0.8], [0.9, 0.9]], "swap_success": 0.8}',
        "--policy",
        "sps",
        "--h",
        "2",
    )
    sps = json.loads(out)
    assert sps["fidelity"] == pytest.approx(rec["fidelity"], abs=1e-12)


def test_strategy_policy_writes_out_file(capsys, tmp_path):
    chain = "[[0.8, 0.8], [0.9, 0.9]]"
    code, printed, _ = run_cli(capsys, "strategy", "--chain", chain, "--policy", "sap")
    assert code == 0
    out_path = tmp_path / "sap.json"
    code, stdout, _ = run_cli(capsys, "strategy", "--chain", chain, "--policy", "sap", "--out", str(out_path))
    assert code == 0 and stdout == ""
    assert out_path.read_text(encoding="utf-8") == printed
    assert json.loads(printed)["policy"] == "sap"


def _scan_fields(region, step):
    """The six formatted fields of each scan point, and the point, with the
    deltas taken from the scan's own blocks."""
    for a, b, c, d, deltas in _blocks(region, step, partial(_delta_block, swap=_swap_block)):
        points = itertools.product(*(x.ravel().tolist() for x in (a, b, c, d)))
        for point, delta in zip(points, deltas.ravel().tolist(), strict=True):
            winner = "pas" if delta > 0 else "sap" if delta < 0 else "tie"
            yield point, delta, [f"{x:.6g}" for x in point] + [f"{delta:.12g}", winner]


def test_strategy_scan_csv(capsys, tmp_path):
    step = 0.05
    for region, ab, cd in (("lemma1", (0.5, 11), (0.7, 7)), ("low", (0.5, 5), (0.5, 5))):
        out_path = tmp_path / f"{region}.csv"
        code, stdout, _ = run_cli(
            capsys, "strategy", "scan", "--step", str(step), "--region", region, "--out", str(out_path)
        )
        assert code == 0 and stdout == ""
        lines = out_path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == "a,b,c,d,delta,winner\n"
        assert lines[1:] == list(scan_points(region, step))
        grid_ab = [ab[0] + step * i for i in range(ab[1])]
        grid_cd = [cd[0] + step * i for i in range(cd[1])]
        points = list(itertools.product(grid_ab, grid_ab, grid_cd, grid_cd))
        rows = list(_scan_fields(region, step))
        assert len(lines) - 1 == len(rows) == len(points)
        for line, point, (scanned, delta, _) in zip(lines[1:], points, rows):
            assert scanned == point
            # the vectorized scan reproduces the scalar closed form bit for bit
            assert delta == lemma1_delta(*point)
            a, b, c, d = point
            winner = "pas" if delta > 0 else "sap" if delta < 0 else "tie"
            assert line == f"{a:.6g},{b:.6g},{c:.6g},{d:.6g},{delta:.12g},{winner}\n"


@pytest.mark.parametrize("step", ["0.05", "0.07"])
@pytest.mark.parametrize("region", ["lemma1", "low"])
def test_strategy_scan_csv_matches_csv_writer(capsys, tmp_path, region, step):
    # the scan joins its fields unquoted: the bytes are csv.writer's only
    # because no field holds a comma, a quote or a line break
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "strategy", "scan", "--step", step, "--region", region, "--out", str(out_path))
    assert code == 0
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("a", "b", "c", "d", "delta", "winner"))
    writer.writerows(fields for *_, fields in _scan_fields(region, float(step)))
    with open(out_path, encoding="utf-8", newline="") as fh:
        assert fh.read() == expected.getvalue()


def test_strategy_scan_rejects_bad_step(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    for step in ("0", "-0.01", "1e-320", "0.0009"):
        code, stdout, err = run_cli(capsys, "strategy", "scan", "--step", step, "--out", str(out_path))
        assert code == 2 and stdout == ""
        assert "step must lie in [0.001, 0.1]" in err
        assert not out_path.exists()


def test_route_plan_and_sidecar(capsys, grid_net, tmp_path):
    _, net_path = grid_net
    stats_path = tmp_path / "stats.csv"
    code, out, _ = run_cli(
        capsys,
        "route",
        "--net",
        str(net_path),
        "--src",
        "0",
        "--dst",
        "5",
        "--f0",
        "0.75",
        "--q0",
        "0.25",
        "--dphi",
        "0.005",
        "--dpsi",
        "0.01",
        "--oracle",
        "--stats-out",
        str(stats_path),
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["nodes"][0] == 0 and rec["nodes"][-1] == 5
    assert rec["cost"] == pytest.approx(rec["oracle"]["cost"], abs=1e-9)
    net = QuantumNetwork.load(net_path)
    want = math.prod(
        purified_fidelity(f, f) if m == 2 else f
        for f, m in zip(rec["edge_fidelities"], rec["pair_counts"])
    )  # not the plan fidelity, just a sanity bound on the inputs
    assert 0 < want <= 1
    lines = stats_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vertex,alive_labels,pushed,expanded"
    assert len(lines) > 1
    assert set(net.nodes) == {0, 1, 2, 3, 4, 5}


def test_route_stats_columns_sum_to_the_search_totals(capsys, grid_net, tmp_path):
    """--stats-out gives each vertex its own counts, not the search totals
    on every row: the columns add up to the totals of stats=."""
    from entroute.auxgraph import build_aux_graph
    from entroute.routing import min_cost_path

    _, net_path = grid_net
    stats_path = tmp_path / "stats.csv"
    argv = ("--src", "0", "--dst", "5", "--f0", "0.75", "--q0", "0.25", "--dphi", "0.005", "--dpsi", "0.01")
    code, _, _ = run_cli(capsys, "route", "--net", str(net_path), *argv, "--stats-out", str(stats_path))
    assert code == 0
    stats: dict = {}
    aux = build_aux_graph(QuantumNetwork.load(net_path), 0, 5)
    min_cost_path(aux, pseudo_fidelity(0.75), math.log(0.25), 0.005, 0.01, stats=stats)
    lines = stats_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vertex,alive_labels,pushed,expanded"
    rows = [line.rsplit(",", 3)[1:] for line in lines[1:]]
    assert len(rows) > 2
    sums = [sum(int(row[i]) for row in rows) for i in range(3)]
    assert sums == [sum(stats["alive_per_vertex"].values()), stats["pushed"], stats["expanded"]]


def test_route_infeasible_agrees_with_oracle(capsys, grid_net):
    _, net_path = grid_net
    code, out, _ = run_cli(
        capsys,
        "route",
        "--net",
        str(net_path),
        "--src",
        "0",
        "--dst",
        "5",
        "--f0",
        "0.95",
        "--q0",
        "0.9",
        "--oracle",
    )
    assert code == 1
    rec = json.loads(out)
    assert rec["infeasible"] is True and rec["oracle"] is None


def test_route_unknown_node(capsys, grid_net):
    _, net_path = grid_net
    code, _, err = run_cli(
        capsys, "route", "--net", str(net_path), "--src", "99", "--dst", "5", "--f0", "0.8"
    )
    assert code == 2
    assert "not in network" in err


def _broken(net: dict, where: str, key: str, value) -> dict:
    """A copy of net with where[0][key] set to value."""
    return {**net, where: [{**net[where][0], key: value}, *net[where][1:]]}


@pytest.mark.parametrize("command", ["route", "multiflow"])
@pytest.mark.parametrize(
    "breakage, name",
    [
        (lambda net: net["nodes"], "JSON object"),
        (lambda net: {**net, "nodes": {}}, "network: 'nodes' must be a JSON list"),
        (lambda net: {**net, "edges": [3]}, "edge 0 must be a JSON object"),
        (lambda net: _broken(net, "nodes", "qubits", "4"), "'qubits'"),
        (lambda net: _broken(net, "nodes", "id", None), "'id'"),
        (lambda net: _broken(net, "edges", "capacity", 2.5), "'capacity'"),
        (lambda net: _broken(net, "edges", "cost_table", ["1"]), "'cost_table'"),
        (lambda net: _broken(net, "edges", "pos", [0, 0]), "'pos'"),
        (lambda net: {**net, "edges": [{"u": 0, "v": 1, "capacity": 3}]}, "edge 0 lacks 'fidelity'"),
        (
            lambda net: _broken(_broken(net, "edges", "weight", 2.0), "edges", "cost_table", [1, 2, 3]),
            "edge 0 (0, 1) has both 'weight' and 'cost_table'",
        ),
        (lambda net: _broken(net, "edges", "weight", math.nan), "weight must be >= 0"),
        (lambda net: _broken(net, "edges", "weight", math.inf), "weight must be >= 0"),
        (lambda net: _broken(net, "edges", "cost_table", [1, math.nan, 3]), "cost table must be finite"),
        (lambda net: _broken(net, "edges", "cost_table", [1, 2, math.inf]), "cost table must be finite"),
    ],
    ids=[
        "list", "nodes-object", "edge-3", "qubits-text", "id-null", "capacity-2.5",
        "cost-table-text", "key-pos", "no-fidelity", "weight-and-cost-table",
        "weight-nan", "weight-inf", "cost-table-nan", "cost-table-inf",
    ],
)
def test_bad_network_file_exits_2(capsys, grid_net, tmp_path, breakage, name, command):
    _, net_path = grid_net
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(breakage(json.loads(net_path.read_text()))), encoding="utf-8")
    flows = tmp_path / "flows.json"
    flows.write_text(json.dumps([_FLOW]), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = {
        "route": ["--src", "0", "--dst", "5", "--f0", "0.8"],
        "multiflow": ["--flows", str(flows)],
    }[command]
    code, stdout, err = run_cli(capsys, command, "--net", str(path), *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--f0", "0.25"), ("--f0", "1.5"), ("--f0", "nan"), ("--q0", "0"), ("--q0", "-1"), ("--q0", "nan")],
)
def test_route_checks_f0_and_q0_exits_2(capsys, grid_net, tmp_path, flag, value):
    _, net_path = grid_net
    argv = {"--f0": "0.8", "--q0": "1", flag: value}
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "route", "--net", str(net_path), "--src", "0", "--dst", "5",
        *itertools.chain(*argv.items()), "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert f"{flag}={float(value)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--dphi", "--dpsi"])
@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "1e-320"])
def test_route_checks_step_flags_exits_2(capsys, tmp_path, flag, value):
    # the steps are checked before the network file is read: it does not exist
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "route", "--net", str(tmp_path / "absent.json"), "--src", "0", "--dst", "5",
        "--f0", "0.8", flag, value, "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert f"{flag}={float(value)!r} must be a finite number > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["route", "experiment"])
def test_a_dphi_below_the_floor_exits_2(tmp_path, command):
    # route --dphi 1e-20 on this grid never returned: past k ~ 2**53 a unit
    # step of k no longer moves k*dphi; each run has a hard timeout
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "grid", "rows": 3, "cols": 3, "capacity": 5, "seed": 0}), encoding="utf-8")
    net = tmp_path / "net.json"
    assert main(["topo", "gen", "--spec", str(spec), "--out", str(net)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": "route-compare", "trials": 1, "thresholds": [0.8], "dphi": [0.01, 1e-20]}),
        encoding="utf-8",
    )
    argv = {
        "route": ["route", "--net", str(net), "--src", "0", "--dst", "8", "--f0", "0.8", "--dphi", "1e-20"],
        "experiment": ["experiment", "run", "--config", str(cfg), "--out", str(tmp_path / "out")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "entroute", *argv],
        capture_output=True, text=True, env=_checkout_env(), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert ("--dphi=1e-20 is below the least step 1e-12" if command == "route" else "'dphi'") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_route_rejects_costs_summing_to_inf_exits_2(capsys, tmp_path):
    # each edge's cost at capacity is finite (2 pairs cost 1.6e308), but a
    # path over all three would cost inf
    nodes = [{"id": n, "qubits": 4} for n in "svut"]
    edges = [
        {"u": u, "v": v, "capacity": 2, "fidelity": 0.97, "weight": 8e307} for u, v in ("sv", "vu", "ut")
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}), encoding="utf-8")
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "route", "--net", str(path), "--src", "s", "--dst", "t", "--f0", "0.8", "--q0", "0.2",
        "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert "costs at capacity sum to inf" in err and "Traceback" not in err
    assert not out.exists()


def test_multiflow_output_fields(capsys, grid_net, tmp_path):
    _, net_path = grid_net
    flows = tmp_path / "flows.json"
    flows.write_text(
        json.dumps(
            [
                {"id": "f1", "src": 0, "dst": 5, "f0": 0.75, "weight": 2.0, "rk": 2},
                {"id": "f2", "src": 2, "dst": 3, "f0": 0.75, "weight": 1.0},
            ]
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys,
        "multiflow",
        "--net",
        str(net_path),
        "--flows",
        str(flows),
        "--eps",
        "0.2",
        "--delta",
        "0.05",
        "--seed",
        "7",
    )
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"selection", "total_weight", "lp_objective", "trials", "feasible_trials"}
    assert rec["trials"] == 3
    if rec["selection"] is not None:
        assert rec["total_weight"] <= rec["lp_objective"] / 0.8 + 1e-9


_FLOW = {"id": "f1", "src": 0, "dst": 5, "f0": 0.75, "weight": 2.0}


@pytest.mark.parametrize(
    "flows, name",
    [
        (_FLOW, "JSON list"),
        ([3], "JSON object"),
        ([{**_FLOW, "f0": "0.75"}], "'f0'"),
        ([{**_FLOW, "weight": "2"}], "'weight'"),
        ([{**_FLOW, "rk": 2.5}], "'rk'"),
        ([{**_FLOW, "rk": True}], "'rk'"),
        ([{**_FLOW, "id": ["f1"]}], "'id'"),
        ([{**_FLOW, "dst": 9}], "'dst'"),
        ([{**_FLOW, "RK": 2}], "'RK'"),
    ],
    ids=[
        "object", "row-3", "f0-text", "weight-text", "rk-2.5", "rk-true", "id-list", "dst-9", "key-RK"
    ],
)
def test_multiflow_rejects_bad_flows_file_exits_2(capsys, grid_net, tmp_path, flows, name):
    _, net_path = grid_net
    path = tmp_path / "flows.json"
    path.write_text(json.dumps(flows), encoding="utf-8")
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "multiflow", "--net", str(net_path), "--flows", str(path), "--out", str(out)
    )
    assert code == 2 and stdout == ""
    assert name in err
    assert not out.exists()


def test_multiflow_checks_rk_exits_2(capsys, grid_net, tmp_path):
    # the default of a flow's "rk" is checked as a flag, not as a row key
    _, net_path = grid_net
    path = tmp_path / "flows.json"
    path.write_text(json.dumps([_FLOW]), encoding="utf-8")
    code, out, err = run_cli(capsys, "multiflow", "--net", str(net_path), "--flows", str(path), "--rk", "0")
    assert code == 2 and out == ""
    assert "--rk=0" in err


@pytest.mark.parametrize(
    "source, value",
    [("--seed", "-1"), ("--seed", str(2**64)), ("ENTROUTE_SEED", "-3"), ("ENTROUTE_SEED", str(2**64))],
)
def test_multiflow_checks_seed_exits_2(capsys, tmp_path, monkeypatch, source, value):
    # Philox keys are 64-bit words; the seed is checked before any file is read
    argv = ["--seed", value] if source == "--seed" else []
    if source == "ENTROUTE_SEED":
        monkeypatch.setenv("ENTROUTE_SEED", value)
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "multiflow", "--net", str(tmp_path / "absent.json"), "--flows", str(tmp_path / "absent.json"),
        *argv, "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert f"{source}={value} must lie in [0, 2**64)" in err
    assert not out.exists()


def test_multiflow_checks_subnormal_delta_exits_2(capsys, grid_net, tmp_path):
    # 1/1e-310 is inf, and the trial count ceil(ln(1/delta)/ln 3) overflowed
    _, net_path = grid_net
    path = tmp_path / "flows.json"
    path.write_text(json.dumps([_FLOW]), encoding="utf-8")
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "multiflow", "--net", str(net_path), "--flows", str(path), "--delta", "1e-310",
        "--out", str(out),
    )
    assert code == 2 and stdout == ""
    assert "delta=1e-310 must lie in (0, 1) and have a finite reciprocal" in err
    assert "Traceback" not in err and not out.exists()


def test_multiflow_accepts_the_largest_seed(capsys, grid_net, tmp_path):
    _, net_path = grid_net
    path = tmp_path / "flows.json"
    path.write_text(json.dumps([_FLOW]), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "multiflow", "--net", str(net_path), "--flows", str(path), "--seed", str(2**64 - 1)
    )
    assert code == 0 and json.loads(out)["trials"] == 3


@pytest.mark.parametrize(
    "chain",
    [
        "[0.9, 0.8]", '{"hops": 3}', "3", "[[true]]", '{"hops": [[0.9]], "swap_success": "1"}',
        # a hop's exhaustive merge search grows steeply past 8 pairs
        json.dumps([[0.9] * 9]),
    ],
)
def test_strategy_rejects_bad_chain_exits_2(capsys, chain):
    code, out, err = run_cli(capsys, "strategy", "--chain", chain, "--policy", "pas")
    assert code == 2 and out == ""
    assert "--chain" in err


@pytest.mark.parametrize("policy", ["pas", "sap"])
def test_strategy_h_without_sps_exits_2(capsys, policy):
    # --h is the swap span of swap-purify-swap; pas and sap have none
    code, out, err = run_cli(capsys, "strategy", "--chain", "[[0.8], [0.9]]", "--policy", policy, "--h", "1")
    assert code == 2 and out == ""
    assert "--h" in err and policy in err


@pytest.mark.parametrize(
    "flag, value", [("--chain", "[[0.8], [0.9]]"), ("--policy", "pas"), ("--h", "1")]
)
def test_strategy_scan_rejects_chain_flags_exits_2(capsys, tmp_path, flag, value):
    out_path = tmp_path / "scan.csv"
    code, out, err = run_cli(capsys, "strategy", "scan", "--step", "0.1", flag, value, "--out", str(out_path))
    assert code == 2 and out == ""
    assert f"{flag} does not apply to strategy scan" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value", [("--step", "7"), ("--step", "0.01"), ("--region", "low")])
def test_strategy_policy_rejects_scan_flags_exits_2(capsys, tmp_path, flag, value):
    # --step and --region shape the scan only; a policy run must not ignore them
    out_path = tmp_path / "pas.json"
    code, out, err = run_cli(
        capsys, "strategy", "--chain", "[[0.8], [0.9]]", "--policy", "pas", flag, value, "--out", str(out_path)
    )
    assert code == 2 and out == ""
    assert f"{flag} applies only to strategy scan" in err
    assert not out_path.exists()


def test_strategy_scan_defaults_step_and_region(capsys, tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(cli, "scan_points", lambda region, step: asked.append((region, step)) or iter(["x\n"]))
    out_path = tmp_path / "scan.csv"
    assert run_cli(capsys, "strategy", "scan", "--out", str(out_path))[0] == 0
    assert run_cli(capsys, "strategy", "scan", "--region", "low", "--out", str(out_path))[0] == 0
    assert run_cli(capsys, "strategy", "scan", "--step", "0.05", "--out", str(out_path))[0] == 0
    assert asked == [("lemma1", 0.01), ("low", 0.01), ("lemma1", 0.05)]


@pytest.mark.parametrize("baseline", ["symmetric", "pumping"])
@pytest.mark.parametrize("fe", ["0.3", "0.45"])
def test_purify_checks_fe_in_every_mode_exits_2(capsys, baseline, fe):
    code, out, err = run_cli(capsys, "purify", "--n", "4", "--fe", fe, "--baseline", baseline)
    assert code == 2 and out == ""
    assert "--fe" in err


@pytest.mark.parametrize("baseline", ["symmetric", "pumping"])
@pytest.mark.parametrize("flag", [["--ftheta", "2"], ["--oracle"]], ids=["ftheta", "oracle"])
def test_purify_baseline_rejects_schedule_flags_exits_2(capsys, baseline, flag):
    # a baseline tree is fixed by --n alone; it must not ignore a threshold or the oracle
    code, out, err = run_cli(capsys, "purify", "--n", "4", "--fe", "0.9", "--baseline", baseline, *flag)
    assert code == 2 and out == ""
    assert f"{flag[0]} does not apply to --baseline" in err


def test_topo_gen_deterministic(grid_net, tmp_path):
    spec_path, net_path = grid_net
    again = tmp_path / "again.json"
    assert main(["topo", "gen", "--spec", str(spec_path), "--out", str(again)]) == 0
    assert again.read_text(encoding="utf-8") == net_path.read_text(encoding="utf-8")


def test_env_seed_overrides_topo(grid_net, tmp_path, monkeypatch):
    spec_path, net_path = grid_net
    other = tmp_path / "other.json"
    monkeypatch.setenv("ENTROUTE_SEED", "123")
    assert main(["topo", "gen", "--spec", str(spec_path), "--out", str(other)]) == 0
    assert other.read_text(encoding="utf-8") != net_path.read_text(encoding="utf-8")


def test_env_seed_invalid(capsys, grid_net, monkeypatch, tmp_path):
    spec_path, _ = grid_net
    monkeypatch.setenv("ENTROUTE_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "topo", "gen", "--spec", str(spec_path), "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "ENTROUTE_SEED" in err


@pytest.mark.parametrize(
    "source, value", [("--seed", "-1"), ("--seed", str(2**64)), ("ENTROUTE_SEED", "-1")]
)
def test_verify_checks_seed_exits_2(capsys, tmp_path, monkeypatch, source, value):
    # numpy and the rounding's Philox key take seeds in [0, 2**64) only
    argv = ["--seed", value] if source == "--seed" else []
    if source == "ENTROUTE_SEED":
        monkeypatch.setenv("ENTROUTE_SEED", value)
    out = tmp_path / "report.txt"
    code, stdout, err = run_cli(capsys, "verify", "--suite", "theorem4-mc", *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert f"{source}={value} must lie in [0, 2**64)" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_env_seed_out_of_range_exits_2(capsys, grid_net, tmp_path, monkeypatch, value):
    spec_path, _ = grid_net
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "route-compare", "trials": 1}), encoding="utf-8")
    monkeypatch.setenv("ENTROUTE_SEED", value)
    for argv, out in (
        (["topo", "gen", "--spec", str(spec_path)], tmp_path / "other.json"),
        (["experiment", "run", "--config", str(cfg)], tmp_path / "out"),
    ):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == "", argv
        assert f"ENTROUTE_SEED={value} must lie in [0, 2**64)" in err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("seed", [-5, 2**64])
@pytest.mark.parametrize("scenario", ["multiflow", "route-compare"])
def test_experiment_rejects_bad_seed_exits_2(capsys, tmp_path, scenario, seed):
    # a config error, not an error row: numpy rejected -5 only inside a trial
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "trials": 1, "seed": seed}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 2 and out == ""
    assert f"'seed' must be an integer in [0, 2**64), got {seed}" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "config, env, key",
    [
        ({"trials": 1, "seed": 2**64 - 1}, None, "'seed'"),
        ({"trials": 3, "seed": 2**64 - 3000}, None, "'seed'"),
        ({"trials": 1}, str(2**64 - 1), "'seed'"),
        ({"trials": 1, "topology": {"kind": "grid", "rows": 2, "cols": 2, "seed": 2**64 - 1}}, None,
         "the topology's 'seed'"),
    ],
    ids=["seed", "trials", "ENTROUTE_SEED", "topology-seed"],
)
def test_experiment_rejects_multiflow_seed_past_64_bits_exits_2(
    capsys, tmp_path, monkeypatch, config, env, key
):
    # trial k runs on seed + 1000 * (k + 1), which the rounding's Philox key
    # rejected in every trial: the run exited 0 with error rows only
    if env is None:
        monkeypatch.delenv("ENTROUTE_SEED", raising=False)
    else:
        monkeypatch.setenv("ENTROUTE_SEED", env)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "multiflow", **config}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 2 and out == ""
    assert f"{key} + 1000 * 'trials' must be below 2**64" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"trials": 3, "seed": 2**64 - 3000}, "'seed'"),
        ({"trials": 1, "topology": {"kind": "grid", "rows": 2, "cols": 2, "seed": 2**64 - 1}},
         "the topology's 'seed'"),
    ],
    ids=["seed", "topology-seed"],
)
def test_experiment_rejects_route_compare_seed_past_64_bits_exits_2(capsys, tmp_path, config, key):
    # route-compare draws its trials from perturbed as multiflow does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "route-compare", **config}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 2 and out == ""
    assert f"{key} + 1000 * 'trials' must be below 2**64" in err
    assert not outdir.exists()
    config_from_json({"scenario": "route-compare", "trials": 3, "seed": 2**64 - 3001})


@pytest.mark.parametrize("seed", [-5000, 2**64, 1.5])
@pytest.mark.parametrize("scenario", ["route-compare", "multiflow", "strategy-compare"])
def test_experiment_rejects_bad_topology_seed_exits_2(capsys, tmp_path, monkeypatch, scenario, seed):
    # -5000 wrote error rows only (numpy rejected trial 0's seed -4000)
    monkeypatch.delenv("ENTROUTE_SEED", raising=False)
    topology = {"kind": "grid", "rows": 2, "cols": 2, "seed": seed}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "trials": 1, "topology": topology}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 2 and out == ""
    assert f"topology: 'seed' must be an integer in [0, 2**64), got {seed}" in err
    assert not outdir.exists()


def _experiment_body(capsys, tmp_path, config, name) -> str:
    """The CSV body experiment run writes for config, runtime_ms left out."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    outdir = tmp_path / name
    code, _, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 0, err
    lines = (outdir / "results.csv").read_text(encoding="utf-8").splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


@pytest.mark.parametrize("scenario", ["route-compare", "multiflow"])
def test_env_seed_replaces_the_topology_seed_of_an_experiment(capsys, tmp_path, monkeypatch, scenario):
    """Under ENTROUTE_SEED=s a config whose topology names seed 5 runs as
    the config naming s in both places, so two env seeds give two bodies
    (the topology's seed used to win, and both bodies were the same)."""
    topology = {"kind": "grid", "rows": 3, "cols": 3, "capacity": 5}
    config = {"scenario": scenario, "trials": 2, "thresholds": [0.8], "dphi": [0.02]}
    if scenario == "multiflow":
        config = {"scenario": scenario, "trials": 2, "flows": 2}
    bodies = []
    for s in (1, 2):
        monkeypatch.setenv("ENTROUTE_SEED", str(s))
        got = _experiment_body(capsys, tmp_path, {**config, "topology": {**topology, "seed": 5}}, f"env{s}")
        monkeypatch.delenv("ENTROUTE_SEED")
        want = {**config, "seed": s, "topology": {**topology, "seed": s}}
        assert got == _experiment_body(capsys, tmp_path, want, f"named{s}")
        bodies.append(got)
    assert bodies[0] != bodies[1]


def test_multiflow_config_takes_the_last_seed_below_64_bits():
    cfg = config_from_json({"scenario": "multiflow", "trials": 3, "seed": 2**64 - 3001})
    assert perturbed(TopologySpec(kind="grid", rows=2, cols=2, seed=cfg.seed), 2).seed == 2**64 - 1


def test_experiment_run_writes_outputs(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "purify-compare",
                "trials": 1,
                "seed": 0,
                "fidelities": [0.75],
            }
        ),
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 0
    csv_path, json_path = out.splitlines()
    body = (outdir / "results.csv").read_text(encoding="utf-8")
    assert body.startswith("scenario,algorithm,parameter,metric,value,seed,runtime_ms\n")
    assert "purify-compare,ours" in body
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    assert summary["row_count"] == body.count("\n") - 1
    assert csv_path.endswith("results.csv") and json_path.endswith("summary.json")


def test_experiment_csv_deterministic_modulo_runtime(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "strategy-compare",
                "trials": 2,
                "seed": 3,
                "lengths": [3],
            }
        ),
        encoding="utf-8",
    )
    bodies = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
        )
        assert code == 0
        rows = (outdir / "results.csv").read_text(encoding="utf-8").splitlines()
        bodies.append([r.rsplit(",", 1)[0] for r in rows])
    assert bodies[0] == bodies[1]


def test_verify_cli_exit_and_bytes(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, stdout, _ = run_cli(
        capsys, "verify", "--suite", "lemma1", "--seed", "0", "--out", str(out_path)
    )
    assert code == 0
    assert stdout.startswith("suite lemma1: PASS\n")
    assert out_path.read_text(encoding="utf-8") == stdout


def test_missing_file_reports_error(capsys):
    code, _, err = run_cli(capsys, "route", "--net", "/nonexistent.json", "--src", "a", "--dst", "b", "--f0", "0.8")
    assert code == 2
    assert "error:" in err


def test_pseudo_fidelity_threshold_used_by_route(capsys, grid_net):
    # the emitted plan satisfies the step-relaxed fidelity guarantee
    _, net_path = grid_net
    code, out, _ = run_cli(
        capsys,
        "route",
        "--net",
        str(net_path),
        "--src",
        "0",
        "--dst",
        "5",
        "--f0",
        "0.75",
        "--q0",
        "0.25",
        "--dphi",
        "0.005",
        "--dpsi",
        "0.01",
    )
    assert code == 0
    rec = json.loads(out)
    slack = len(rec["nodes"]) * 0.005
    assert rec["phi_hat"] >= pseudo_fidelity(0.75) - slack - 1e-9


def test_experiment_without_scenario_exits_2(capsys, tmp_path):
    # ExperimentConfig needs a scenario: a config without one raised TypeError (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 2 and out == ""
    assert "config lacks 'scenario'" in err and "Traceback" not in err
    assert not outdir.exists()


def test_experiment_unknown_option_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "route-compare", "workers": 3}), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 2
    assert "'workers'" in err and "dphi" in err


@pytest.mark.parametrize("alg", ["sps", "sps{0}"])
def test_experiment_rejects_bad_sps_exits_2(capsys, tmp_path, alg):
    # a bare sps and a zero span are config errors, caught before any run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": "strategy-compare", "trials": 1, "algorithms": ["pas", alg]}),
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 2 and out == ""
    assert repr(alg) in err and "out of scope" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "scenario, option, value",
    [
        ("route-compare", "demand", 0),
        ("route-compare", "demand", -1.0),
        ("route-compare", "deltaq", 0),
        ("route-compare", "deltaq", 2.5),
        ("route-compare", "dphi", [0.01, 0.0]),
        ("route-compare", "dphi", 0.01),
        ("route-compare", "dpsi", 0),
        ("route-compare", "dpsi", -0.01),
        ("multiflow", "flows", 0),
        ("multiflow", "flow_fidelity", 0.2),
        ("multiflow", "epsilon", 0),
        ("multiflow", "epsilon", 0.5),
        ("multiflow", "delta", 0),
        ("multiflow", "r_k", 0),
        ("multiflow", "weight_band", [3, 1]),
        ("multiflow", "weight_band", [-1, 2]),
        # a config field, read by route-compare: pseudo_fidelity needs F > 0.25
        ("route-compare", "thresholds", [0.2]),
        ("route-compare", "thresholds", [1.5]),
        ("route-compare", "thresholds", [0.8, 0.25]),
        # config fields of the wrong JSON type
        ("route-compare", "thresholds", 0.8),
        ("route-compare", "trials", "2"),
        ("route-compare", "trials", 1.5),
        ("route-compare", "seed", "0"),
        ("route-compare", "topology", "grid"),
        ("route-compare", "algorithms", [1]),
        ("multiflow", "options", [["flows", 2]]),
        # purify-compare and strategy-compare option values
        ("purify-compare", "fidelities", 0.9),
        ("purify-compare", "fidelities", [0.9, 0.4]),
        ("purify-compare", "pairs_min", 0),
        ("purify-compare", "pairs_max", 2.5),
        ("strategy-compare", "lengths", 3),
        ("strategy-compare", "lengths", [3, 0]),
        ("strategy-compare", "pairs_per_hop", 0),
        ("strategy-compare", "fidelity_band", [0.99, 0.85]),
        ("strategy-compare", "fidelity_band", [0.3, 0.9]),
        ("strategy-compare", "swap_success", 0),
        # a subnormal step has an infinite reciprocal
        ("route-compare", "dphi", [0.01, 1e-320]),
        # below the least delta_phi a search takes (discretization_steps' floor)
        ("route-compare", "dphi", [0.01, 9.9e-13]),
        ("route-compare", "dpsi", 1e-320),
        # the summary's nested tree lists would overflow json.dumps' recursion
        ("purify-compare", "pairs_max", 513),
        # 1/delta is inf, and so was the trial count ceil(ln(1/delta)/ln 3)
        ("multiflow", "delta", 1e-310),
        # a hop's merge-order search grows steeply past 8 pairs
        ("strategy-compare", "pairs_per_hop", 9),
    ],
)
def test_experiment_rejects_bad_option_value_exits_2(capsys, tmp_path, scenario, option, value):
    # option values no trial can run with are config errors, not error rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": scenario, "trials": 1, option: value}), encoding="utf-8"
    )
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 2 and out == ""
    assert f"'{option}'" in err
    assert not outdir.exists()


def test_purify_compare_writes_at_the_pairs_bound(capsys, tmp_path):
    # a 511-level pumping tree goes through the summary's json.dumps
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "purify-compare",
                "algorithms": ["pumping"],
                "fidelities": [0.9],
                "pairs_min": 512,
                "pairs_max": 512,
            }
        ),
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir))
    assert code == 0
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    assert [a["n"] for a in summary["artifacts"]] == [512]


@pytest.mark.parametrize("options", [{"pairs_min": 9, "pairs_max": 3}, {"pairs_min": 13}])
def test_purify_compare_rejects_empty_pair_range_exits_2(capsys, tmp_path, options):
    # pairs_max defaults to 12; an empty range would write a header-only CSV
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "purify-compare", **options}), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 2 and out == ""
    assert "'pairs_min'" in err and "'pairs_max'" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "topology, name",
    [
        ({"kind": "grid", "rowz": 3}, "'rowz'"),
        ({"kind": "grid", "rows": "3", "cols": 3}, "'rows'"),
        ({"kind": "grid", "rows": 3, "cols": 3, "capacity": True}, "'capacity'"),
        ({"rows": 3, "cols": 3}, "'kind'"),
        ({"kind": "grid", "rows": -1, "cols": -2}, "rows, cols >= 1"),
        ({"kind": "waxman", "n": 6, "alpha": 0}, "alpha must be in (0, 1]"),
        ({"kind": "waxman", "n": 6, "domain_size": -1.0}, "domain_size must be > 0"),
        ({"kind": "grid", "rows": 3, "cols": 3, "fidelity_sigma": -0.1}, "fidelity_sigma must be >= 0"),
        ({"kind": "grid", "rows": 3, "cols": 3, "fidelity_mu": math.nan}, "fidelity_mu must be finite"),
    ],
)
def test_experiment_rejects_bad_topology_exits_2(capsys, tmp_path, topology, name):
    # checked at config time, for every scenario, before any trial runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scenario": "route-compare", "trials": 1, "topology": topology}),
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 2 and out == ""
    assert name in err
    assert not outdir.exists()


def test_topo_gen_rejects_bad_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "grid", "rowz": 3}), encoding="utf-8")
    out = tmp_path / "net.json"
    code, _, err = run_cli(capsys, "topo", "gen", "--spec", str(spec), "--out", str(out))
    assert code == 2 and "'rowz'" in err
    assert not out.exists()


# every JSON reader goes through one checker: each reader's parser, and the
# CLI arguments that make it read the JSON written to path (net: a network file)
_JSON_READERS = {
    "network": (
        lambda obj, net: QuantumNetwork.from_json(obj),
        lambda path, net: ["route", "--net", path, "--src", "0", "--dst", "1", "--f0", "0.8"],
    ),
    "flows": (
        lambda obj, net: cli._flows_from_json(obj, QuantumNetwork.load(net), 3),
        lambda path, net: ["multiflow", "--net", net, "--flows", path],
    ),
    "topology": (
        lambda obj, net: spec_from_json(obj),
        lambda path, net: ["topo", "gen", "--spec", path, "--out", path + ".net"],
    ),
    "config": (
        lambda obj, net: config_from_json(obj),
        lambda path, net: ["experiment", "run", "--config", path, "--out", path + ".out"],
    ),
    "chain": (
        lambda obj, net: cli._parse_chain(json.dumps(obj)),
        lambda path, net: ["strategy", "--chain", Path(path).read_text(encoding="utf-8"), "--policy", "pas"],
    ),
}
_FLOW_NO_F0 = {k: v for k, v in _FLOW.items() if k != "f0"}


@pytest.mark.parametrize(
    "reader, obj, message",
    [
        pytest.param("network", [], "network must be a JSON object, got []", id="network-not-object"),
        pytest.param(
            "network", {"nodes": [], "edges": [], "links": []}, "network: unknown key 'links'", id="network-unknown"
        ),
        pytest.param(
            "network", {"nodes": {}, "edges": []}, "network: 'nodes' must be a JSON list, got {}", id="network-type"
        ),
        pytest.param("network", {"nodes": []}, "network lacks 'edges'", id="network-missing"),
        pytest.param("flows", [3], "flow 0 must be a JSON object, got 3", id="flows-not-object"),
        pytest.param("flows", [{**_FLOW, "pos": 1}], "flow 0: unknown key 'pos'", id="flows-unknown"),
        pytest.param(
            "flows", [{**_FLOW, "weight": "2"}], "flow 0: 'weight' must be a finite number >= 0, got '2'",
            id="flows-type",
        ),
        pytest.param("flows", [_FLOW_NO_F0], "flow 0 lacks 'f0'", id="flows-missing"),
        pytest.param("topology", [], "topology must be a JSON object, got []", id="topology-not-object"),
        pytest.param(
            "topology", {"kind": "grid", "rows": 2, "cols": 2, "rowz": 3}, "topology: unknown key 'rowz'",
            id="topology-unknown",
        ),
        pytest.param(
            "topology", {"kind": "grid", "rows": "2", "cols": 2}, "topology: 'rows' must be an integer, got '2'",
            id="topology-type",
        ),
        pytest.param("topology", {"rows": 2, "cols": 2}, "topology lacks 'kind'", id="topology-missing"),
        pytest.param("config", [], "config must be a JSON object, got []", id="config-not-object"),
        pytest.param(
            "config", {"scenario": "route-compare", "dphis": [0.01]}, "route-compare options: unknown key 'dphis'",
            id="config-unknown",
        ),
        pytest.param(
            "config", {"scenario": "route-compare", "trials": "1"},
            "config: 'trials' must be an integer >= 1, got '1'", id="config-type",
        ),
        pytest.param("config", {"trials": 1}, "config lacks 'scenario'", id="config-missing"),
        # a --chain that is not an object is its hops
        pytest.param(
            "chain", 0.9, "--chain: 'hops' must be a list of non-empty lists of numbers, got 0.9",
            id="chain-not-object",
        ),
        pytest.param("chain", {"hops": [[0.9]], "swap": 1}, "--chain: unknown key 'swap'", id="chain-unknown"),
        pytest.param(
            "chain", {"hops": [[0.9]], "swap_success": "1"}, "--chain: 'swap_success' must be a number, got '1'",
            id="chain-type",
        ),
        pytest.param("chain", {"swap_success": 0.9}, "--chain lacks 'hops'", id="chain-missing"),
    ],
)
def test_json_reader_names_reader_and_key_exits_2(capsys, grid_net, tmp_path, reader, obj, message):
    parse, argv = _JSON_READERS[reader]
    net = str(grid_net[1])
    with pytest.raises(ValueError) as info:
        parse(obj, net)
    assert message in str(info.value)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv(str(path), net))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"kind": "waxman", "n": 6, "beta_w": 0}, "beta_w must be > 0"),
        ({"kind": "waxman", "n": 6, "alpha": math.nan}, "alpha must be finite"),
        ({"kind": "grid", "rows": 2, "cols": 2, "qubit_allowance": -3}, "qubit_allowance must be >= 1"),
        ({"kind": "grid", "rows": 2, "cols": 2, "fidelity_mu": 0.0}, "fidelity_mu 0.0 and fidelity_sigma 0.05"),
        ({"kind": "waxman", "n": 20, "alpha": 1e-9}, "no connected draw within 64 sub-seeds"),
    ],
    ids=["beta_w-0", "alpha-nan", "qubit_allowance-neg", "fidelity_mu-0", "alpha-never-connects"],
)
def test_topo_gen_checks_spec_parameters_exits_2(capsys, tmp_path, fields, name):
    # beta_w 0 used to end in a traceback, allowance -3 in 1-qubit nodes,
    # fidelity_mu 0 in a RuntimeError after 100,000 rejected fidelity draws,
    # and alpha 1e-9 in a RuntimeError after 64 disconnected Waxman draws
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields), encoding="utf-8")
    out = tmp_path / "net.json"
    code, _, err = run_cli(capsys, "topo", "gen", "--spec", str(spec), "--out", str(out))
    assert code == 2 and name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, name",
    [
        ([{"scenario": "multiflow", "trials": 1}], "JSON object"),
        ({"scenario": ["multiflow"], "trials": 1}, "scenario"),
    ],
)
def test_experiment_rejects_non_object_config_exits_2(capsys, tmp_path, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "experiment", "run", "--config", str(cfg), "--out", str(outdir)
    )
    assert code == 2 and out == ""
    assert name in err
    assert not outdir.exists()


def _checkout_env():
    # only the checkout's src on the path, whatever is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_entroute_runs_from_a_checkout(tmp_path):
    # run from a directory outside the checkout
    out = tmp_path / "report.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "entroute", "verify", "--suite", "lemma1", "--out", str(out)],
        capture_output=True, text=True, env=_checkout_env(), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("suite lemma1: PASS\n")
    assert out.read_text(encoding="utf-8") == proc.stdout


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # `entroute strategy scan | head -2`: the reader leaves after a few bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "entroute", "strategy", "scan", "--step", "0.02"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env(), cwd=tmp_path,
    )
    try:
        assert proc.stdout.read(64).startswith(b"a,b,c,d,delta,winner\n")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert err == b""


def test_importing_the_cli_leaves_numpy_random_unloaded(tmp_path):
    # the rounding generator is built on first use: numpy.random adds ~6 MB
    # to every command, and purify, strategy and route never draw
    code = "import sys, entroute.cli; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_checkout_env(), cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
