"""Pinned outputs: ROADMAP's "same outputs" as digests.

A change that keeps the results keeps these digests: the `verify --suite
all` report, the CSV body (without the runtime_ms column) and
summary.json of two small `experiment run` configs, the candidate
plans of six flows contending for one small grid, the `strategy scan`
CSV of two regions, and the `route` plan and label statistics of the
README's grid query.  A change meant to alter a result updates the digest
here and says why.
"""

import csv
import hashlib
import io
import json

import pytest

from entroute.cli import main
from entroute.multiflow import flow_candidates
from entroute.topology import sample_flows
from entroute.verify import rounding_mc_instance


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_verify_all_report_is_pinned(capsys):
    code = main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode()) == "b13a3d5dfd5f588945e68a01da19eab5edc68764edc63f72ec96e55b6c6eed63"


@pytest.mark.parametrize(
    "config, rows, body_digest, summary_digest",
    [
        (
            {"scenario": "route-compare", "trials": 3, "seed": 0},
            127,
            "9a1c9f1a0c1ce99f0ad1eb3f6ba96076d3634c319e8f3b7416bd0b6a0ab529fa",
            "7b8faa2d4d1914d583d03c58287cd4243f409054c27479be6c3d0542ef7dc134",
        ),
        (
            # qubit-limited: 2 qubits per neighbour, so a corner node (Q = 4)
            # holds fewer than an edge's capacity
            {
                "scenario": "multiflow", "trials": 3, "seed": 0,
                "topology": {"kind": "grid", "rows": 3, "cols": 3, "capacity": 5, "qubit_allowance": 2},
            },
            10,
            "73f78eae2dc1362599d84f544b58362a3d4bb101563575226ceac9bde605d7ea",
            "795bbc61660c18a85df90e50fde201cb5b36ad78c2d64809596ab3d3bc625130",
        ),
    ],
    ids=["route-compare", "multiflow"],
)
def test_experiment_outputs_are_pinned(capsys, tmp_path, config, rows, body_digest, summary_digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    table = list(csv.reader(io.StringIO((out / "results.csv").read_text(encoding="utf-8"))))
    assert table[0][-1] == "runtime_ms"
    body = [row[:-1] for row in table]
    assert len(body) == rows
    assert not any(row[3] == "error" for row in body)
    assert _sha256(json.dumps(body).encode()) == body_digest
    assert _sha256((out / "summary.json").read_bytes()) == summary_digest


@pytest.mark.parametrize(
    "region, step, rows, digest",
    [
        # the benchmark's purify-scan command
        ("lemma1", "0.02", 173056, "3c23ac592d4dafe891a6d3fcd3d0a5e65b735b78a96c9cc784909b6e557e3ea7"),
        ("low", "0.05", 625, "b7699bc0d722b7eeded79c1538983cd092714b40716d398c287c7e4b9c7a2075"),
    ],
    ids=["lemma1-0.02", "low-0.05"],
)
def test_strategy_scan_csv_is_pinned(capsys, tmp_path, region, step, rows, digest):
    out = tmp_path / "scan.csv"
    args = ["strategy", "scan", "--region", region, "--step", step]
    assert main(args + ["--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == rows + 1
    assert _sha256(data) == digest
    # stdout carries the same bytes as the file
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == data


def test_contended_candidates_are_pinned():
    # six flows at F >= 0.97 on the theorem4-mc grid: R = 3 searches whose
    # pools grow to hundreds of labels, with many kills
    net, _ = rounding_mc_instance(0)
    flows = sample_flows(net, 6, seed=1, f0=0.97, r_k=3)
    cands = [flow_candidates(net, fl, 0.2) for fl in flows]
    assert [len(c) for c in cands] == [0, 3, 0, 3, 3, 3]
    body = json.dumps([[p.to_json() for p in c] for c in cands])
    assert _sha256(body.encode()) == "43afa92b754a374e78f44dff3682cc6bf8fdcc3066e9ed5fe1b4ea4f201612ac"


def test_route_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    # the README query: 5x5 grid, capacity 15, seed 0, 0 -> 24 at f0 = 0.8
    monkeypatch.delenv("ENTROUTE_SEED", raising=False)
    spec, net = tmp_path / "spec.json", tmp_path / "net.json"
    spec.write_text(json.dumps({"kind": "grid", "rows": 5, "cols": 5, "capacity": 15, "seed": 0}))
    assert main(["topo", "gen", "--spec", str(spec), "--out", str(net)]) == 0
    plan, stats = tmp_path / "route.json", tmp_path / "labels.csv"
    args = ["route", "--net", str(net), "--src", "0", "--dst", "24", "--f0", "0.8"]
    assert main(args + ["--out", str(plan), "--stats-out", str(stats)]) == 0
    capsys.readouterr()
    assert _sha256(plan.read_bytes()) == "1c0581d1f94ceb9f49ce57f444711d078ba0830f9885e30b4fed5bf8760780ef"
    assert _sha256(stats.read_bytes()) == "dc98dd8cca2016a21eab64afafa60ab9d754c76d76890cf292fb6ef3e5e4e8d2"
