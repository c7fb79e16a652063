"""The benchmark's tracer wraps entroute functions by name from outside.

A renamed or rebound function would leave its layer silently at zero in
traced runs, so this test installs the tracer, runs one small route-compare
experiment, one multi-flow candidate search and one ``strategy scan``, and
checks that the search, table, frontier and scan layers all counted
something, the label counts the search reports through its stats= dict
included, and that the scan counted exactly the CSV's data rows.  It runs
in a subprocess so that the wrappers cannot leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, os, sys, tempfile
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer, install, layer_metrics
tracer = Tracer()
install(tracer)
from entroute import cli, experiments, multiflow, topology
cfg = experiments.config_from_json(
    {"scenario": "route-compare", "trials": 1, "seed": 0, "thresholds": [0.8], "dphi": [0.02],
     "algorithms": ["ours"]}
)
experiments.run_experiment(cfg)
net = topology.generate(topology.TopologySpec(kind="grid", rows=2, cols=2, capacity=4, seed=0))
multiflow.flow_candidates(net, multiflow.FlowRequest("f", 0, 3, 0.8, 1.0, 2), 0.2)
with tempfile.TemporaryDirectory() as tmp:
    scan = os.path.join(tmp, "scan.csv")
    assert cli.main(["strategy", "scan", "--step", "0.1", "--out", scan]) == 0
    with open(scan, encoding="utf-8") as fh:
        scan_rows = sum(1 for _ in fh) - 1
print(json.dumps({"scan_rows": scan_rows, **layer_metrics(tracer, 0.0)}))
"""


def test_tracer_sees_search_table_and_frontier_layers():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for name in (
        "routing.search_calls",
        "routing.table_builds",
        "purification.frontier_builds",
        # read from the search's stats= dict
        "routing.labels_pushed",
        "routing.labels_expanded",
        "routing.labels_alive",
        # the scan CSV rows, counted through the generator cli binds
        "strategies.scan_points",
    ):
        assert metrics[name] > 0, (name, metrics)
    # one route-compare query and one k-paths call
    assert metrics["routing.search_calls"] == 2
    # every CSV data row came through the generator the tracer wraps
    assert metrics["strategies.scan_points"] == metrics["scan_rows"]
