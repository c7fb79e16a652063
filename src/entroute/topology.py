"""Seeded topology and flow-request generation for experiments.

Waxman graphs retry with incremented sub-seeds until connected; grids are
connected by construction.  Link fidelities are truncated-normal samples,
qubit budgets scale with node degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .multiflow import FlowRequest
from .network import EdgeSpec, NodeSpec, QuantumNetwork, _check_fields, _integer, _number, _seed

_MAX_RETRIES = 64
# the least share of fidelity draws a spec may keep: _truncated_normal then
# rejects all of its 100,000 draws with probability below e^-100
_MIN_ACCEPTANCE = 1e-3


@dataclass(frozen=True)
class TopologySpec:
    kind: str  # "waxman" | "grid"
    n: int = 0
    rows: int = 0
    cols: int = 0
    alpha: float = 0.4
    beta_w: float = 0.2
    domain_size: float = 1.0
    capacity: int = 10
    fidelity_mu: float = 0.9
    fidelity_sigma: float = 0.05
    fidelity_lo: float = 0.8
    fidelity_hi: float = 1.0
    qubit_allowance: Optional[int] = None  # pairs per neighbor; None = capacity
    swap_prob: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("waxman", "grid"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind == "waxman" and self.n < 2:
            raise ValueError("waxman graphs need n >= 2")
        if self.kind == "grid" and (min(self.rows, self.cols) < 1 or self.rows * self.cols < 2):
            raise ValueError("grid needs rows, cols >= 1 and at least 2 nodes")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name, ok, rule in (
            ("alpha", 0 < self.alpha <= 1, "in (0, 1]"),
            ("beta_w", self.beta_w > 0, "> 0"),
            ("domain_size", self.domain_size > 0, "> 0"),
            ("fidelity_sigma", self.fidelity_sigma >= 0, ">= 0"),
            ("qubit_allowance", self.qubit_allowance is None or self.qubit_allowance >= 1, ">= 1 or null"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if not 0.8 <= self.fidelity_lo < self.fidelity_hi <= 1.0:
            # keep the sampled range inside what the experiments assume
            raise ValueError("fidelity range must sit within [0.8, 1.0]")
        if self.fidelity_sigma > 0:
            mu, sigma = self.fidelity_mu, self.fidelity_sigma
            mass = (
                math.erf((self.fidelity_hi - mu) / (sigma * math.sqrt(2)))
                - math.erf((self.fidelity_lo - mu) / (sigma * math.sqrt(2)))
            ) / 2
            if mass < _MIN_ACCEPTANCE:
                raise ValueError(
                    f"fidelity_mu {mu!r} and fidelity_sigma {sigma!r} leave {mass:.3g} of the normal "
                    f"in [{self.fidelity_lo!r}, {self.fidelity_hi!r}], below the floor {_MIN_ACCEPTANCE:g}"
                )


# the JSON values each TopologySpec annotation accepts
_JSON_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_integer, "an integer"),
    "float": (_number, "a number"),
    "Optional[int]": (lambda v: v is None or _integer(v), "an integer or null"),
}


# the rules of a topology spec's JSON keys: each field's annotation, and
# for seed the range of every seed source
_SPEC_KEYS = {f.name: _JSON_TYPES[f.type] for f in fields(TopologySpec)} | {
    "seed": (_seed, "an integer in [0, 2**64)")
}


def spec_from_json(d: dict) -> TopologySpec:
    """A TopologySpec from a JSON object.  A missing kind, an unknown
    field or a value of the wrong JSON type raises ValueError."""
    return TopologySpec(**_check_fields(d, _SPEC_KEYS, ("kind",), "topology"))


def _truncated_normal(rng, mu, sigma, lo, hi) -> float:
    if sigma <= 0:
        return min(max(mu, lo), hi)
    for _ in range(100_000):
        x = rng.normal(mu, sigma)
        if lo <= x <= hi:
            return float(x)
    raise RuntimeError("truncated-normal rejection sampling failed")


def _allowance(spec: TopologySpec) -> int:
    return spec.capacity if spec.qubit_allowance is None else spec.qubit_allowance


def _build(spec: TopologySpec, ids, pairs, rng) -> QuantumNetwork:
    degree: dict = {v: 0 for v in ids}
    edges = []
    for u, v in pairs:
        f = _truncated_normal(
            rng, spec.fidelity_mu, spec.fidelity_sigma, spec.fidelity_lo, spec.fidelity_hi
        )
        edges.append(EdgeSpec(u, v, spec.capacity, f))
        degree[u] += 1
        degree[v] += 1
    allowance = _allowance(spec)
    nodes = [
        NodeSpec(v, max(1, degree[v] * allowance), spec.swap_prob) for v in ids
    ]
    return QuantumNetwork(nodes, edges)


def generate(spec: TopologySpec) -> QuantumNetwork:
    """Deterministic per seed; Waxman retries disconnected draws with
    sub-seed increments up to a bounded count."""
    if spec.kind == "grid":
        return _grid(spec)
    return _waxman(spec)


def _grid(spec: TopologySpec) -> QuantumNetwork:
    rng = np.random.default_rng(spec.seed)
    r, c = spec.rows, spec.cols
    ids = list(range(r * c))
    pairs = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                pairs.append((v, v + 1))
            if i + 1 < r:
                pairs.append((v, v + c))
    return _build(spec, ids, pairs, rng)


def _waxman(spec: TopologySpec) -> QuantumNetwork:
    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng(spec.seed + attempt)
        pos = rng.uniform(0.0, spec.domain_size, size=(spec.n, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        scale = float(dist.max())
        if scale <= 0:
            continue
        ids = list(range(spec.n))
        pairs = []
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                p = spec.alpha * math.exp(-dist[i, j] / (spec.beta_w * scale))
                if rng.random() < p:
                    pairs.append((i, j))
        net = _build(spec, ids, pairs, rng)
        if len(net.reachable(0)) == spec.n:
            return net
    raise ValueError(
        f"no connected draw within {_MAX_RETRIES} sub-seeds of {spec.seed}"
    )


def sample_flows(
    net: QuantumNetwork,
    count: int,
    seed: int,
    *,
    f0: float = 0.8,
    r_k: int = 3,
) -> list:
    """Distinct node pairs, uniform without replacement, each a request of
    weight 1; the graph is undirected so pairs are canonically oriented."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ids = sorted(net.nodes, key=str)
    pairs = list(itertools.combinations(ids, 2))
    if count > len(pairs):
        raise ValueError(f"only {len(pairs)} node pairs available")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pairs), size=count, replace=False)
    return [
        FlowRequest(f"flow{n}", pairs[i][0], pairs[i][1], f0, 1.0, r_k)
        for n, i in enumerate(picks)
    ]


def perturbed(spec: TopologySpec, trial: int) -> TopologySpec:
    """Same spec, shifted seed: trial substreams for repeated generation."""
    return replace(spec, seed=spec.seed + 1000 * (trial + 1))
