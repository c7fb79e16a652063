import json
import math

import pytest

from entroute.experiments import (
    ExperimentConfig,
    config_from_json,
    run_experiment,
)
from entroute.pair_algebra import pseudo_fidelity, swap_fidelity
from entroute.purification import evaluate_tree
from oracles import tree_from_json


def strip_runtime(csv_body: str) -> str:
    lines = csv_body.splitlines()
    return "\n".join(",".join(l.split(",")[:-1]) for l in lines)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="fig9")
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="route-compare", trials=0)
    with pytest.raises(ValueError, match="out of scope"):
        ExperimentConfig(scenario="route-compare", algorithms=("ours", "q-path"))
    cfg = ExperimentConfig(scenario="strategy-compare", algorithms=("pas", "sps{4}"))
    assert cfg.algorithm_list() == ("pas", "sps{4}")


def test_config_from_json_routes_extras_to_options():
    cfg = config_from_json(
        {"scenario": "route-compare", "trials": 2, "seed": 9, "deltaq": 5, "demand": 1.5}
    )
    assert cfg.trials == 2 and cfg.seed == 9
    assert cfg.opt("deltaq", 1) == 5 and cfg.opt("demand", 1.0) == 1.5


def test_purify_compare_rows_and_artifacts():
    cfg = ExperimentConfig(
        scenario="purify-compare",
        trials=1,
        options={"fidelities": (0.75,), "pairs_min": 2, "pairs_max": 6},
    )
    res = run_experiment(cfg)
    fid = {}
    for row in res.rows:
        if row.metric == "fidelity":
            fid.setdefault(row.algorithm, {})[row.parameter] = row.value
    # ours dominates both baselines at every pair budget
    for param, v in fid["ours"].items():
        assert v >= fid["symmetric"][param] - 1e-12
        assert v >= fid["pumping"][param] - 1e-12
    # ours is monotone in the budget
    ours = [v for _, v in sorted(fid["ours"].items())]
    assert all(a <= b + 1e-12 for a, b in zip(ours, ours[1:]))
    # every artifact's tree re-evaluates to the reported metric
    for art in res.artifacts:
        tree = tree_from_json(art["tree"])
        f, _ = evaluate_tree(tree, art["f_e"])
        assert f == pytest.approx(art["fidelity"], abs=1e-12)


def test_strategy_compare_ordering_and_seeds():
    cfg = ExperimentConfig(
        scenario="strategy-compare", trials=2, seed=3, options={"lengths": (4, 6)}
    )
    res = run_experiment(cfg)
    fid = {}
    for row in res.rows:
        if row.metric == "fidelity":
            fid.setdefault(row.parameter, {})[row.algorithm] = row.value
    assert len(fid) == 4  # two lengths x two trials
    for param, d in fid.items():
        assert d["pas"] >= d["sps{2}"] - 1e-12
        assert d["sps{2}"] >= d["sap"] - 1e-12
        assert d["sps{3}"] >= d["sap"] - 1e-12
        assert d["sps{l}"] == d["pas"]
    # artifacts expose the sampled chain; pas fidelity recomputable when a
    # single pair per hop makes purification a no-op
    cfg1 = ExperimentConfig(
        scenario="strategy-compare",
        trials=1,
        seed=3,
        algorithms=("pas",),
        options={"lengths": (4,), "pairs_per_hop": 1},
    )
    res1 = run_experiment(cfg1)
    art = res1.artifacts[0]
    assert art["fidelity"] == pytest.approx(
        swap_fidelity(list(art["hop_fidelities"])), abs=1e-12
    )


def test_route_compare_small_run():
    cfg = ExperimentConfig(
        scenario="route-compare",
        trials=2,
        seed=1,
        thresholds=(0.8, 0.9),
        options={"dphi": (0.02,)},
    )
    res = run_experiment(cfg)
    metrics = {(r.algorithm, r.parameter, r.metric): r.value for r in res.rows}
    assert ("ours", "threshold=0.8,dphi=0.02", "success_rate") in metrics
    # per-trial success rows exist for both algorithms
    per_trial = [r for r in res.rows if r.metric == "success"]
    assert len(per_trial) == 2 * 2 * 2  # thresholds x trials x algorithms
    # every successful row's cost matches its plan artifact
    plans = {
        (a["algorithm"], a["parameter"]): a["plan"]
        for a in res.artifacts
        if "plan" in a
    }
    for row in res.rows:
        if row.metric == "cost":
            plan = plans[(row.algorithm, row.parameter)]
            assert plan is not None
            assert row.value == pytest.approx(plan["cost"], abs=1e-12)
            # guarantee is the step-relaxed threshold, not theta itself
            theta = float(row.parameter.split(",")[0].split("=")[1])
            slack = len(plan["nodes"]) * 0.02
            assert plan["phi_hat"] >= pseudo_fidelity(theta) - slack - 1e-9


def test_csv_body_deterministic_modulo_runtime():
    cfg = dict(scenario="strategy-compare", trials=1, seed=8, options={"lengths": (5,)})
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert strip_runtime(a.csv_body()) == strip_runtime(b.csv_body())
    header = a.csv_body().splitlines()[0]
    assert header == "scenario,algorithm,parameter,metric,value,seed,runtime_ms"


def test_rows_sorted_by_scenario_parameter_seed():
    cfg = ExperimentConfig(
        scenario="purify-compare", options={"fidelities": (0.8, 0.7), "pairs_max": 4}
    )
    res = run_experiment(cfg)
    keys = [(r.scenario, r.parameter, r.seed) for r in res.rows]
    assert keys == sorted(keys)


def test_multiflow_scenario_artifacts_recompute():
    cfg = ExperimentConfig(scenario="multiflow", trials=2, seed=5)
    res = run_experiment(cfg)
    vals = {(r.parameter, r.metric): r.value for r in res.rows}
    for art in res.artifacts:
        param = art["parameter"]
        got = art["result"]
        assert vals[(param, "lp_objective")] == pytest.approx(got["lp_objective"])
        if got["selection"] is None:
            assert math.isnan(vals[(param, "selected_weight")])
        else:
            assert vals[(param, "selected_weight")] == pytest.approx(
                got["selection"]["total_weight"]
            )


def test_write_outputs(tmp_path):
    cfg = ExperimentConfig(
        scenario="purify-compare",
        options={"fidelities": (0.7,), "pairs_max": 3},
        output=str(tmp_path),
    )
    res = run_experiment(cfg)
    csv_path, json_path = res.write(tmp_path)
    assert csv_path.read_text().startswith("scenario,")
    summary = json.loads(json_path.read_text())
    assert summary["scenario"] == "purify-compare"
    assert summary["row_count"] == len(res.rows)
    assert len(summary["artifacts"]) == len(res.artifacts)


@pytest.mark.parametrize(
    "scenario, options",
    [
        ("purify-compare", {"fidelities": [0.75], "pairs_min": 2, "pairs_max": 3}),
        ("strategy-compare", {"lengths": [3], "pairs_per_hop": 1, "fidelity_band": [0.9, 0.95],
                              "swap_success": 0.9}),
        ("route-compare", {"dphi": [0.02], "dpsi": 0.01, "demand": 1.0, "deltaq": 5}),
        ("multiflow", {"flows": 2, "flow_fidelity": 0.8, "epsilon": 0.2, "delta": 0.05, "r_k": 2,
                       "weight_band": [1, 3]}),
    ],
)
def test_config_rejects_unknown_options(scenario, options):
    """Every option a scenario reads parses; any other key is refused by name,
    with the known ones listed, and cfg.opt refuses keys outside the table."""
    cfg = config_from_json({"scenario": scenario, "trials": 1, "seed": 0, **options})
    for key, value in options.items():
        assert cfg.opt(key, None) == value
    for bad in ("workers", "dphis"):
        message = f"{scenario} options: unknown key '{bad}'; known keys: {next(iter(options))}"
        with pytest.raises(ValueError, match=message):
            config_from_json({"scenario": scenario, bad: 3, **options})
        # options are top-level keys alone: a nested "options" object is an unknown option
        with pytest.raises(ValueError, match=f"{scenario} options: unknown key 'options'"):
            config_from_json({"scenario": scenario, "options": {bad: 3}})
    with pytest.raises(KeyError):
        cfg.opt("dphis", None)
