import math

import pytest

from entroute.topology import (
    TopologySpec,
    generate,
    sample_flows,
    spec_from_json,
)


def grid55(seed=7):
    return TopologySpec(kind="grid", rows=5, cols=5, capacity=15, seed=seed)


def test_grid_shape_and_budgets():
    net = generate(grid55())
    assert len(net.nodes) == 25
    assert len(net.edges) == 40
    assert all(e.capacity == 15 for e in net.edges)
    # corner degree 2, edge-of-board 3, interior 4; allowance defaults to capacity
    assert net.nodes[0].qubits == 2 * 15
    assert net.nodes[2].qubits == 3 * 15
    assert net.nodes[12].qubits == 4 * 15
    assert all(n.swap_prob == 1.0 for n in net.nodes.values())


def test_grid_fidelities_in_band():
    net = generate(grid55())
    for e in net.edges:
        assert 0.8 <= e.fidelity <= 1.0


def test_generation_is_deterministic():
    a = generate(grid55()).to_json()
    b = generate(grid55()).to_json()
    assert a == b
    assert generate(grid55(seed=8)).to_json() != a


def test_waxman_connected_and_deterministic():
    spec = TopologySpec(kind="waxman", n=60, capacity=3, seed=11)
    net = generate(spec)
    assert len(net.nodes) == 60
    # BFS from node 0 reaches everything
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in net.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == 60
    again = generate(spec)
    assert net.to_json() == again.to_json()
    for v, n in net.nodes.items():
        assert n.qubits == len(list(net.neighbors(v))) * 3


def test_waxman_fidelity_mean_near_mu():
    spec = TopologySpec(kind="waxman", n=120, capacity=2, seed=3)
    net = generate(spec)
    fids = [e.fidelity for e in net.edges]
    assert len(fids) > 100
    mean = sum(fids) / len(fids)
    # symmetric truncation about mu keeps the mean at mu
    assert abs(mean - 0.9) <= 3 * 0.05 / math.sqrt(len(fids))


def test_waxman_vanishing_alpha_exhausts_retries():
    # alpha 0 is rejected by the spec; at 1e-12 no draw has an edge
    spec = TopologySpec(kind="waxman", n=6, alpha=1e-12, seed=0)
    with pytest.raises(ValueError, match="sub-seeds"):
        generate(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(kind="ring", n=5)
    with pytest.raises(ValueError):
        TopologySpec(kind="waxman", n=1)
    with pytest.raises(ValueError):
        TopologySpec(kind="grid", rows=1, cols=1)
    with pytest.raises(ValueError):
        TopologySpec(kind="grid", rows=2, cols=2, capacity=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", 0.0, "alpha must be in"),
        ("alpha", 1.01, "alpha must be in"),
        ("alpha", math.nan, "alpha must be finite"),
        ("beta_w", 0.0, "beta_w must be > 0"),
        ("beta_w", math.inf, "beta_w must be finite"),
        ("domain_size", 0.0, "domain_size must be > 0"),
        ("domain_size", -1.0, "domain_size must be > 0"),
        ("fidelity_sigma", -0.01, "fidelity_sigma must be >= 0"),
        ("fidelity_mu", math.nan, "fidelity_mu must be finite"),
        ("fidelity_mu", -math.inf, "fidelity_mu must be finite"),
        ("fidelity_mu", 0.0, "fidelity_mu 0.0 and fidelity_sigma 0.05 leave 0 "),
        ("fidelity_mu", 0.64, "leave 0.000687 of the normal in"),  # 3.2 sigma below the range
        ("swap_prob", math.nan, "swap_prob must be finite"),
        ("qubit_allowance", 0, "qubit_allowance must be >= 1"),
        ("qubit_allowance", -3, "qubit_allowance must be >= 1"),
    ],
)
def test_spec_checks_sampling_parameters(field, value, message):
    for kind in ({"kind": "waxman", "n": 6}, {"kind": "grid", "rows": 2, "cols": 2}):
        with pytest.raises(ValueError, match=message):
            spec_from_json({**kind, field: value})


def test_spec_accepts_the_closed_bounds():
    for field, value in (("alpha", 1.0), ("fidelity_sigma", 0.0), ("qubit_allowance", 1)):
        net = generate(TopologySpec(kind="waxman", n=6, beta_w=1.0, seed=1, **{field: value}))
        assert len(net.reachable(0)) == 6


def test_spec_bounds_the_share_of_fidelity_draws_kept():
    """A spec whose normal puts less than 1e-3 of its mass in [fidelity_lo,
    fidelity_hi] is rejected before any draw; one just above the floor
    generates, each fidelity in range."""
    for mu, sigma, kept in ((0.77, 0.01, True), (0.768, 0.01, False), (1.03, 0.01, True), (1.1, 0.03, False)):
        fields = {"kind": "grid", "rows": 2, "cols": 2, "fidelity_mu": mu, "fidelity_sigma": sigma}
        if kept:
            net = generate(spec_from_json(fields))
            assert all(0.8 <= e.fidelity <= 1.0 for e in net.edges)
        else:
            with pytest.raises(ValueError, match="below the floor 0.001"):
                spec_from_json(fields)


def test_spec_from_json_defaults():
    spec = spec_from_json({"kind": "grid", "rows": 2, "cols": 3, "capacity": 4})
    assert spec.alpha == 0.4 and spec.beta_w == 0.2
    assert spec.fidelity_mu == 0.9 and spec.fidelity_sigma == 0.05
    net = generate(spec)
    assert len(net.nodes) == 6 and len(net.edges) == 7


def test_sample_flows_distinct_and_deterministic():
    net = generate(grid55())
    flows = sample_flows(net, 12, seed=5)
    assert len(flows) == 12
    pairs = {(f.source, f.destination) for f in flows}
    assert len(pairs) == 12
    for f in flows:
        assert f.source in net.nodes and f.destination in net.nodes
        assert f.source != f.destination
        assert f.f0 == 0.8 and f.weight == 1.0 and f.r_k == 3
    again = sample_flows(net, 12, seed=5)
    assert [(f.source, f.destination) for f in again] == [
        (f.source, f.destination) for f in flows
    ]
    other = sample_flows(net, 12, seed=6)
    assert [(f.source, f.destination) for f in other] != [
        (f.source, f.destination) for f in flows
    ]


def test_sample_flows_count_errors():
    net = generate(TopologySpec(kind="grid", rows=1, cols=2, capacity=2))
    only = sample_flows(net, 1, seed=0)
    assert (only[0].source, only[0].destination) == (0, 1)
    with pytest.raises(ValueError):
        sample_flows(net, 2, seed=0)
    with pytest.raises(ValueError):
        sample_flows(net, 0, seed=0)
