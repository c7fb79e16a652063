import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from entroute.auxgraph import VIRTUAL_SINK, build_aux_graph
from entroute.network import EdgeSpec, NodeSpec, QuantumNetwork, _step
from oracles import VIRTUAL_SOURCE, decode_path, encode_path, out_arcs


def make_line(qubits=(2, 3, 3, 2), caps=(2, 2, 2), fids=(0.85, 0.97, 0.85)):
    names = ["s", "v", "u", "t"][: len(qubits)]
    nodes = [NodeSpec(n, q) for n, q in zip(names, qubits)]
    edges = [
        EdgeSpec(a, b, c, f)
        for a, b, c, f in zip(names, names[1:], caps, fids)
    ]
    return QuantumNetwork(nodes, edges)


@pytest.mark.parametrize("value", [0.01, 3, 1e-300, 1e308])
def test_step_accepts_a_finite_number_with_a_finite_reciprocal(value):
    assert _step(value)


@pytest.mark.parametrize("value", [0, -0.01, math.inf, math.nan, 1e-320, True, "0.01", None])
def test_step_rejects_everything_else(value):
    assert not _step(value)


def test_reachable():
    net = make_line()
    assert net.reachable("u") == {"s", "v", "u", "t"}
    lone = QuantumNetwork(
        [NodeSpec(n, 2) for n in "abc"], [EdgeSpec("a", "b", 1, 0.9)]
    )
    assert lone.reachable("a") == {"a", "b"}
    assert lone.reachable("c") == {"c"}


def test_node_edge_validation():
    with pytest.raises(ValueError):
        NodeSpec("a", 0)
    with pytest.raises(ValueError):
        NodeSpec("a", 2, swap_prob=0.0)
    with pytest.raises(ValueError):
        EdgeSpec("a", "a", 1, 0.9)
    with pytest.raises(ValueError):
        EdgeSpec("a", "b", 1, 0.5)  # fidelity must exceed 0.5
    with pytest.raises(ValueError):
        EdgeSpec("a", "b", 2, 0.9, ("table", (1.0,)))  # wrong table length
    with pytest.raises(ValueError):
        EdgeSpec("a", "b", 2, 0.9, ("table", (2.0, 1.0)))  # decreasing
    with pytest.raises(ValueError):
        QuantumNetwork([NodeSpec("a", 1)], [EdgeSpec("a", "b", 1, 0.9)])
    with pytest.raises(ValueError):
        QuantumNetwork(
            [NodeSpec("a", 1), NodeSpec("b", 1)],
            [EdgeSpec("a", "b", 1, 0.9), EdgeSpec("b", "a", 1, 0.9)],
        )


def test_cost_functions():
    unit = EdgeSpec("a", "b", 3, 0.9)
    assert unit.cost_of(2) == 2.0
    weighted = EdgeSpec("a", "b", 3, 0.9, ("weighted", 2.5))
    assert weighted.cost_of(3) == 7.5
    table = EdgeSpec("a", "b", 3, 0.9, ("table", (1.0, 1.5, 4.0)))
    assert table.cost_of(1) == 1.0
    assert table.cost_of(3) == 4.0
    with pytest.raises(ValueError):
        table.cost_of(4)


@pytest.mark.parametrize(
    "cost, message",
    [
        ({"weight": math.nan}, "weight must be >= 0"),
        ({"weight": math.inf}, "weight must be >= 0"),
        ({"weight": -1.0}, "weight must be >= 0"),
        ({"weight": 1e308}, "weight must be >= 0"),  # 2 pairs cost inf
        ({"cost_table": [1.0, math.nan]}, "cost table must be finite"),
        ({"cost_table": [1.0, math.inf]}, "cost table must be finite"),
        ({"cost_table": [math.nan, 1.0]}, "cost table must be finite"),
    ],
    ids=[
        "weight-nan", "weight-inf", "weight-neg", "weight-overflow", "table-nan", "table-inf", "table-nan-first"
    ],
)
def test_from_json_rejects_non_finite_costs(cost, message):
    # every cost must be finite and >= 0, as the search's cost cap assumes;
    # json.loads reads NaN and Infinity
    text = json.dumps(
        {
            "nodes": [{"id": "a", "qubits": 2}, {"id": "b", "qubits": 2}],
            "edges": [{"u": "a", "v": "b", "capacity": 2, "fidelity": 0.9, **cost}],
        }
    )
    with pytest.raises(ValueError, match=message):
        QuantumNetwork.from_json(json.loads(text))


def test_network_rejects_costs_summing_past_the_float_range():
    # every path cost is then finite: a path costs at most that sum
    nodes = [NodeSpec(n, 4) for n in "abcd"]
    heavy = [EdgeSpec(u, v, 2, 0.9, ("weighted", 4e307)) for u, v in ("ab", "bc")]
    assert QuantumNetwork(nodes, heavy).edges == heavy  # 1.6e308 in all
    with pytest.raises(ValueError, match="costs at capacity sum to inf"):
        QuantumNetwork(nodes, heavy + [EdgeSpec("c", "d", 1, 0.9, ("table", (2e307,)))])


def test_json_round_trip(tmp_path):
    net = QuantumNetwork(
        [NodeSpec("a", 2, 0.9), NodeSpec("b", 3)],
        [EdgeSpec("a", "b", 2, 0.88, ("weighted", 1.5))],
    )
    path = tmp_path / "net.json"
    net.dump(path)
    back = QuantumNetwork.load(path)
    assert back.node("a").swap_prob == 0.9
    assert back.edge("a", "b").cost == ("weighted", 1.5)
    assert back.edge("b", "a").fidelity == 0.88


def test_adjacency():
    net = make_line()
    assert net.neighbors("v") == ["s", "u"]
    assert len(net.neighbors("t")) == 1
    assert "u" in net.neighbors("v") and "t" not in net.neighbors("s")


def test_copy_index_ranges():
    aux = build_aux_graph(make_line(), "s", "t")
    assert aux.copy_indices("s") == (1, 2)
    assert aux.copy_indices("v") == (1, 2)
    assert aux.copy_indices("t") == (0, 1)


def test_example_instance_arcs():
    aux = build_aux_graph(make_line(), "s", "t")
    arcs = list(out_arcs(aux, ("s", 2)))
    # from s_2 both one- and two-pair allocations on (s,v) are reachable
    assert (("v", 1), 2, aux.net.edge("s", "v")) in arcs
    assert (("v", 2), 1, aux.net.edge("s", "v")) in arcs
    # from s_1 only the single-pair copy
    heads = [h for h, m, _ in out_arcs(aux, ("s", 1))]
    assert ("v", 2) in heads and ("v", 1) not in heads
    # sink copies flow to the virtual sink only
    assert list(out_arcs(aux, ("t", 0))) == [(VIRTUAL_SINK, 0, None)]


def test_example_instance_bijection():
    aux = build_aux_graph(make_line(), "s", "t")
    expected = [
        VIRTUAL_SOURCE,
        ("s", 2),
        ("v", 1),
        ("u", 2),
        ("t", 0),
        VIRTUAL_SINK,
    ]
    encoded = encode_path(aux, ["s", "v", "u", "t"], [2, 1, 2])
    assert encoded == expected
    nodes, counts = decode_path(aux, expected)
    assert nodes == ["s", "v", "u", "t"]
    assert counts == [2, 1, 2]
    assert encode_path(aux, nodes, counts) == expected


def test_single_edge_graph():
    net = QuantumNetwork(
        [NodeSpec("s", 1), NodeSpec("t", 1)], [EdgeSpec("s", "t", 1, 0.9)]
    )
    aux = build_aux_graph(net, "s", "t")
    arcs = list(out_arcs(aux, ("s", 1)))
    assert arcs == [(("t", 0), 1, net.edge("s", "t"))]


def test_two_qubit_relay_forces_single_pairs():
    net = make_line(qubits=(2, 2, 2), caps=(2, 2), fids=(0.9, 0.9))
    aux = build_aux_graph(net, "s", "u")
    assert aux.copy_indices("v") == (1,)
    for i in aux.copy_indices("s"):
        for head, m, _ in out_arcs(aux, ("s", i)):
            assert m == 1  # only copy v_1 exists, so Q_v - j = 1


def test_encode_rejects_bad_plans():
    aux = build_aux_graph(make_line(), "s", "t")
    with pytest.raises(ValueError):
        encode_path(aux, ["s", "v", "t"], [1, 1])  # no such edge
    with pytest.raises(ValueError):
        encode_path(aux, ["s", "v", "u", "t"], [2, 3, 1])  # exceeds v's leftover
    with pytest.raises(ValueError):
        encode_path(aux, ["s", "v", "u", "t"], [3, 1, 1])  # above Q_s
    with pytest.raises(ValueError):
        decode_path(aux, [VIRTUAL_SOURCE, ("s", 1), VIRTUAL_SINK])
    with pytest.raises(ValueError):
        build_aux_graph(make_line(), "s", "s")


def test_deltaq_coarsening():
    net = make_line(qubits=(4, 6, 6, 4), caps=(4, 4, 4), fids=(0.9, 0.9, 0.9))
    aux = build_aux_graph(net, "s", "t", deltaq=2)
    assert aux.copy_indices("s") == (2, 4)
    assert aux.copy_indices("v") == (2, 4)
    assert aux.copy_indices("t") == (0, 2)
    for head, m, _ in out_arcs(aux, ("s", 4)):
        assert m % 2 == 0  # allocations come in deltaq chunks
    with pytest.raises(ValueError):
        encode_path(aux, ["s", "v", "u", "t"], [2, 1, 2])  # m=1 not on the grid


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=3, max_size=3),
    st.lists(st.integers(1, 45), min_size=2, max_size=2),
    st.integers(1, 6),
)
def test_pair_counts_is_the_filter_of_every_copy_index(qubits, caps, deltaq):
    """The bisect slice of pair_counts equals a test of every copy index j
    of the head w, 1 <= Q_w - j <= capacity, in both directions of every
    edge, source and sink copies included."""
    aux = build_aux_graph(make_line(qubits=tuple(qubits), caps=tuple(caps), fids=(0.9, 0.9)), "s", "u", deltaq)
    for e in aux.net.edges:
        for u, w in ((e.u, e.v), (e.v, e.u)):
            q_w = aux.net.node(w).qubits
            want = tuple(q_w - j for j in aux.copy_indices(w) if 1 <= q_w - j <= e.capacity)
            assert aux.pair_counts(u, w) == want
