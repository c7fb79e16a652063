"""Entanglement management toolkit for quantum networks.

Layers, bottom up:

- :mod:`entroute.pair_algebra` — closed-form Werner-pair fidelity algebra.
- :mod:`entroute.purification` — single-hop purification scheduling.
- :mod:`entroute.strategies` — purify/swap orderings on repeater chains.
- :mod:`entroute.network` / :mod:`entroute.auxgraph` / :mod:`entroute.routing`
  — fidelity- and throughput-constrained min-cost entanglement routing.
- :mod:`entroute.multiflow` — multi-flow path selection via LP relaxation
  and randomized rounding (LP solved by :mod:`entroute.simplex`).
- :mod:`entroute.topology` — seeded experiment topologies.
- :mod:`entroute.cli` — command line front end and experiment harness.
"""

__version__ = "0.1.0"

from .pair_algebra import (
    inverse_pseudo_fidelity,
    pseudo_fidelity,
    purification_success_prob,
    purified_fidelity,
    swap_fidelity,
)

__all__ = [
    "__version__",
    "purified_fidelity",
    "purification_success_prob",
    "swap_fidelity",
    "pseudo_fidelity",
    "inverse_pseudo_fidelity",
]
