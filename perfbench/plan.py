"""Which inputs each workload runs, and in what order.

Every round of every workload is drawn from a fixed, finite pool whose
outputs are recorded in ``references.json``, so any benchmark seed can be
checked against a reference.  The seed chooses which pool members a run
visits, as a stratified sample: the pool is sorted by the calibrated cost
each member had when the references were recorded and cut into STRATA
strata, and each block of STRATA consecutive rounds of a run takes one
seed-chosen member of every stratum.  Round costs vary by two orders of
magnitude, so an unstratified sample of the rounds a run holds would move
the medians by more than the bounds allow.

This module imports nothing from the program, so the orchestrator can plan
a run without paying for the program's imports.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("route-compare", "multiflow-mc", "purify-scan")

# route-compare: key x*12 + cell is one (threshold, dphi, algorithm) cell of
# the one-trial config with seed x.  Config seed e + 1000*i with trials=1
# builds the same topology as trial i of the default 20-trial config at
# seed e, so the pool is the default config at seeds 0..ROUTE_CONFIG_SEEDS-1.
ROUTE_CONFIG_SEEDS = 16
ROUTE_TRIALS = 20
ROUTE_CELLS = 12  # 3 thresholds x 2 dphi steps x (ours, q-step)

# multiflow-mc: a key is the seed of one guarantee-satisfying instance.
MULTIFLOW_INSTANCES = 200

# purify-scan: a key is the seed of one batch of schedule queries.
PURIFY_BATCHES = 48

# Rounds per worker process.  Each pass starts a fresh interpreter, so the
# program's caches start cold in every pass, as in a CLI invocation.
PASS_SIZE = {"route-compare": 96, "multiflow-mc": 10, "purify-scan": 1}
# Strata of the pool: about the number of rounds a 38 s run holds, or fewer.
STRATA = {"route-compare": 96, "multiflow-mc": 25, "purify-scan": 8}


def pool(workload: str) -> list[int]:
    if workload == "route-compare":
        return [
            (e + 1000 * i) * ROUTE_CELLS + c
            for e in range(ROUTE_CONFIG_SEEDS)
            for i in range(ROUTE_TRIALS)
            for c in range(ROUTE_CELLS)
        ]
    if workload == "multiflow-mc":
        return list(range(MULTIFLOW_INSTANCES))
    if workload == "purify-scan":
        return list(range(PURIFY_BATCHES))
    raise ValueError(f"unknown workload {workload!r}")


@functools.cache
def strata(workload: str) -> list[list[int]]:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]
    keys = sorted(pool(workload), key=lambda k: (refs[str(k)]["ms"], k))
    n = STRATA[workload]
    per = len(keys) // n
    return [keys[i * per : (i + 1) * per] for i in range(n)]


def radical_inverse(i: int, base: int) -> float:
    """The i-th point of the van der Corput sequence in this base."""
    f, r = 1.0, 0.0
    while i:
        f /= base
        i, digit = divmod(i, base)
        r += f * digit
    return r


def _spread_order(n: int) -> list[int]:
    """0..n-1 in van der Corput order: every prefix is spread evenly over
    the range, so a run cut short by the deadline is still a balanced
    sample of the strata."""
    return sorted(range(n), key=lambda i: (radical_inverse(i, 2), i))


def _round_key(workload: str, seed: int, r: int) -> int:
    """Key of round r of the run with this seed.  Block b = r // STRATA
    visits every stratum once, in a seed-rotated spread order, and takes
    the b-th member of each in a seed-shuffled order, so no member repeats
    before its stratum is used up."""
    groups = strata(workload)
    block, u = divmod(r, len(groups))
    shift = random.Random(f"{workload}/{seed}/block{block}").randrange(len(groups))
    i = (_spread_order(len(groups))[u] + shift) % len(groups)
    cycle, pos = divmod(block, len(groups[i]))
    members = list(groups[i])
    random.Random(f"{workload}/{seed}/{cycle}/{i}").shuffle(members)
    return members[pos]


def stream_pass(workload: str, seed: int, k: int) -> list[int]:
    """Keys of pass k of the run with this seed."""
    n = PASS_SIZE[workload]
    return [_round_key(workload, seed, r) for r in range(k * n, (k + 1) * n)]


def trace_pass(workload: str, seed: int) -> list[int]:
    """Keys of the traced run: one fixed pass, so its counts repeat exactly.

    For route-compare it is the default 20-trial config at seed
    seed mod ROUTE_CONFIG_SEEDS, all 240 queries in the order run_experiment
    issues them (threshold, dphi, trial, algorithm); for the others, the
    first pass of the run.
    """
    if workload != "route-compare":
        return stream_pass(workload, seed, 0)
    e = seed % ROUTE_CONFIG_SEEDS
    return [
        (e + 1000 * i) * ROUTE_CELLS + cell + a
        for cell in range(0, ROUTE_CELLS, 2)
        for i in range(ROUTE_TRIALS)
        for a in (0, 1)
    ]
