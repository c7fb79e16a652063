import pytest

from entroute.verify import (
    SUITES,
    Report,
    render,
    rounding_mc_instance,
    rounding_mc_stats,
    route_oracle_stats,
    run_suite,
    screened_route_instances,
)
from entroute.verify import _suite_route_oracle


def test_report_text_shape():
    r = Report("demo", "pass", ["a=1", "b=2"])
    assert r.text() == "suite demo: PASS\n  a=1\n  b=2\n"
    assert render([Report("demo", "pass")])[1] == 0
    assert render([Report("demo", "fail")])[1] == 1
    assert render([Report("demo", "skip")])[1] == 3


def test_render_worst_code_wins():
    reports = [Report("a", "pass"), Report("b", "skip"), Report("c", "fail")]
    text, code = render(reports)
    assert code == 1
    assert text.splitlines() == ["suite a: PASS", "suite b: SKIP", "suite c: FAIL"]
    assert render([])[1] == 0
    assert render([Report("a", "pass"), Report("b", "skip")])[1] == 3


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonesuch")


def test_lemma1_suite_passes_and_is_deterministic():
    a = render(run_suite("lemma1", 0))
    b = render(run_suite("lemma1", 0))
    assert a == b
    text, code = a
    assert code == 0
    assert "violations=0" in text
    assert "low_win_fraction=1.000000" in text


def test_policy_suite_passes():
    (rep,) = run_suite("theorem2-small", 0)
    assert rep.status == "pass"
    # 14 hop configs; chains of length 1..3 deduped up to reversal
    assert "chains=1589" in rep.text()
    assert "violations=0" in rep.text()


def test_suite_list_round_trips():
    assert SUITES == ("lemma1", "theorem2-small", "theorem3-small", "theorem4-mc")
    for name in SUITES[:2]:
        reps = run_suite(name, 0)
        assert len(reps) == 1 and reps[0].suite == name


def test_route_screen_respects_attempt_budget():
    instances, attempts = screened_route_instances(50, 0, 0.05, max_attempts=3)
    assert attempts == 3
    assert len(instances) < 50


def test_route_oracle_small_batch():
    stats = route_oracle_stats(8, 0, eps=0.05, max_attempts=500)
    assert stats["instances"] == 8
    assert stats["verdict_ok"] == 8
    assert stats["cost_ok"] == stats["feasible"]
    assert stats["fidelity_ok"] == stats["feasible"]


def test_route_suite_skip_path():
    rep = _suite_route_oracle(0, count=10, max_attempts=1)
    assert rep.status == "skip"
    assert render([rep])[1] == 3
    assert rep.lines[-1] == "screen exhausted the attempt budget"


def test_rounding_instance_frozen():
    net, flows = rounding_mc_instance(0)
    assert len(net.nodes) == 10
    assert [fl.weight for fl in flows] == [35.0, 40.0, 45.0]
    assert all(fl.f0 == 0.8 for fl in flows)


def test_rounding_mc_short_run():
    stats = rounding_mc_stats(0, trials=25)
    assert stats["conditions"]["qubits_ok"] and stats["conditions"]["weights_ok"]
    assert stats["fraction"] > 1.0 / 3.0
    assert stats["over_ilp"] == 0
    assert stats["max_weight"] <= stats["ilp_weight"] + 1e-9
    assert stats["lp_objective"] == pytest.approx(stats["ilp_weight"], abs=1e-6)
