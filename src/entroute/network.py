"""Network model: nodes with qubit budgets, edges with pair capacities and
elementary fidelities, and per-edge allocation cost functions."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

# cost tags: ("unit",) | ("weighted", w) | ("table", (c_1, ..., c_cap))
UNIT_COST = ("unit",)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, float) or _integer(v)


def _seed(v) -> bool:
    """A seed that numpy's generators and the rounding's Philox key take."""
    return _integer(v) and 0 <= v < 2**64


def _step(v) -> bool:
    """A grid step: a finite number > 0 with a finite reciprocal (a
    subnormal step has an infinite one and overflows the grid)."""
    return _number(v) and 0 < v < math.inf and 1 / v < math.inf


def _check_fields(obj, rules: dict, required, what: str):
    """obj, checked to be a JSON object whose keys are all in rules and
    include every key of required, each value meeting its rule (a test and
    what it asks for); anything else raises ValueError naming what and the
    key.  Every JSON input is read through it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key, value in obj.items():
        if key not in rules:
            raise ValueError(f"{what}: unknown key {key!r}; known keys: {', '.join(rules)}")
        if not rules[key][0](value):
            raise ValueError(f"{what}: {key!r} must be {rules[key][1]}, got {value!r}")
    if missing := set(required) - obj.keys():
        raise ValueError(f"{what} lacks {', '.join(map(repr, sorted(missing)))}")
    return obj


def _json_rows(rows, rules: dict, required, what: str) -> list:
    """rows, checked to be a JSON list of objects that _check_fields
    passes, each named by what and its position."""
    if not isinstance(rows, list):
        raise ValueError(f"{what}s must be a JSON list, got {rows!r}")
    for n, row in enumerate(rows):
        _check_fields(row, rules, required, f"{what} {n}")
    return rows


# the keys of a network file's node and edge objects with their rules; the
# values are checked further by NodeSpec and EdgeSpec
_ID = (lambda v: isinstance(v, str) or _number(v), "a string or a number")
_ROWS = (lambda v: isinstance(v, list), "a JSON list")
_NETWORK_KEYS = {"nodes": _ROWS, "edges": _ROWS}
_NODE_KEYS = {"id": _ID, "qubits": (_integer, "an integer"), "swap_prob": (_number, "a number")}
_EDGE_KEYS = {
    "u": _ID,
    "v": _ID,
    "capacity": (_integer, "an integer"),
    "fidelity": (_number, "a number"),
    "weight": (_number, "a number"),
    "cost_table": (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers"),
}


@dataclass(frozen=True)
class NodeSpec:
    id: object
    qubits: int
    swap_prob: float = 1.0

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"node {self.id!r}: qubits must be >= 1")
        if not 0.0 < self.swap_prob <= 1.0:
            raise ValueError(f"node {self.id!r}: swap_prob outside (0, 1]")


@dataclass(frozen=True)
class EdgeSpec:
    u: object
    v: object
    capacity: int
    fidelity: float
    cost: tuple = UNIT_COST

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop at {self.u!r}")
        if self.capacity < 1:
            raise ValueError(f"edge ({self.u!r},{self.v!r}): capacity must be >= 1")
        if not 0.5 < self.fidelity <= 1.0:
            raise ValueError(f"edge ({self.u!r},{self.v!r}): fidelity outside (0.5, 1]")
        # every cost is finite and >= 0, as the search's cost cap assumes
        tag = self.cost[0]
        if tag == "unit":
            pass
        elif tag == "weighted":
            if len(self.cost) != 2 or not 0 <= self.cost[1] * self.capacity < math.inf:
                raise ValueError(
                    f"edge ({self.u!r},{self.v!r}): weight must be >= 0 with weight * capacity "
                    f"finite, got {self.cost!r}"
                )
        elif tag == "table":
            # one entry per allocation size, finite, nonnegative and nondecreasing
            table = self.cost[1]
            if len(self.cost) != 2 or len(table) != self.capacity:
                raise ValueError("cost table must have one entry per pair count")
            if not all(0 <= c < math.inf for c in table) or any(a > b for a, b in zip(table, table[1:])):
                raise ValueError(
                    f"edge ({self.u!r},{self.v!r}): cost table must be finite, nonnegative "
                    f"and nondecreasing, got {table!r}"
                )
        else:
            raise ValueError(f"unknown cost tag {tag!r}")

    def cost_of(self, m: int) -> float:
        """Cost of allocating m elementary pairs on this edge."""
        if not 1 <= m <= self.capacity:
            raise ValueError(f"pair count {m} outside [1, {self.capacity}]")
        tag = self.cost[0]
        if tag == "unit":
            return float(m)
        if tag == "weighted":
            return self.cost[1] * m
        return float(self.cost[1][m - 1])


class QuantumNetwork:
    """Undirected simple graph of quantum repeaters."""

    def __init__(self, nodes: Iterable[NodeSpec], edges: Iterable[EdgeSpec]):
        self.nodes: dict = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValueError(f"duplicate node {n.id!r}")
            self.nodes[n.id] = n
        self.edges: list[EdgeSpec] = []
        self._adj: dict = {v: {} for v in self.nodes}
        for e in edges:
            if e.u not in self.nodes or e.v not in self.nodes:
                raise ValueError(f"edge ({e.u!r},{e.v!r}) references unknown node")
            if e.v in self._adj[e.u]:
                raise ValueError(f"duplicate edge ({e.u!r},{e.v!r})")
            self.edges.append(e)
            self._adj[e.u][e.v] = e
            self._adj[e.v][e.u] = e
        # a path costs at most the sum of its edges' costs at capacity (costs
        # do not fall as m grows), so a finite total keeps every path cost,
        # summed in floats, finite
        total = sum(e.cost_of(e.capacity) for e in self.edges)
        if not total < math.inf:
            raise ValueError(f"the edges' costs at capacity sum to {total!r}; the sum must be finite")

    def node(self, v) -> NodeSpec:
        return self.nodes[v]

    def edge(self, u, v) -> EdgeSpec:
        return self._adj[u][v]

    def neighbors(self, v) -> list:
        return list(self._adj[v])

    def reachable(self, s) -> set:
        """Nodes connected to s, s included."""
        seen = {s}
        stack = [s]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def to_json(self) -> dict:
        nodes = [
            {"id": n.id, "qubits": n.qubits, "swap_prob": n.swap_prob}
            for n in self.nodes.values()
        ]
        edges = []
        for e in self.edges:
            row = {"u": e.u, "v": e.v, "capacity": e.capacity, "fidelity": e.fidelity}
            if e.cost[0] == "weighted":
                row["weight"] = e.cost[1]
            elif e.cost[0] == "table":
                row["cost_table"] = list(e.cost[1])
            edges.append(row)
        return {"nodes": nodes, "edges": edges}

    @classmethod
    def from_json(cls, obj: dict) -> "QuantumNetwork":
        """The network of a JSON object as to_json writes it.  A wrong JSON
        type, an unknown or missing key, or both cost keys on one edge raise
        ValueError naming the node or edge (by position) and the key."""
        _check_fields(obj, _NETWORK_KEYS, _NETWORK_KEYS, "network")
        nodes = [
            NodeSpec(n["id"], n["qubits"], n.get("swap_prob", 1.0))
            for n in _json_rows(obj["nodes"], _NODE_KEYS, ("id", "qubits"), "node")
        ]
        edges = []
        rows = _json_rows(obj["edges"], _EDGE_KEYS, ("u", "v", "capacity", "fidelity"), "edge")
        for n, row in enumerate(rows):
            if row.keys() >= {"weight", "cost_table"}:
                raise ValueError(f"edge {n} ({row['u']!r}, {row['v']!r}) has both 'weight' and 'cost_table'")
            if "cost_table" in row:
                cost = ("table", tuple(row["cost_table"]))
            elif "weight" in row:
                cost = ("weighted", row["weight"])
            else:
                cost = UNIT_COST
            edges.append(EdgeSpec(row["u"], row["v"], row["capacity"], row["fidelity"], cost))
        return cls(nodes, edges)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "QuantumNetwork":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
