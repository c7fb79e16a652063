"""Per-layer spans recorded from outside the program.

``install`` replaces functions of the ``entroute`` modules, under the names
the calling modules bind them to, with wrappers that open a span around the
call.  Spans are kept in memory as (name, start, end, parent) and written
when the pass ends.  A layer's self time is its spans' duration minus the
time covered by their child spans.

``pair_algebra`` gets no span: its calls take about a microsecond, so a
wrapper would mostly measure itself.  Its cost shows in the self time of
the purification and strategies layers that call it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list = []  # [span index, child time so far]

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1][0] if self._open else -1
        idx = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, start, parent])
        self._open.append([idx, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            _, child = self._open.pop()
            self.spans[idx][2] = end
            self._close(name, end - start, child)

    def _close(self, name: str, duration: float, child: float) -> None:
        self.counts[name + ".calls"] += 1
        self.self_s[name] += duration - child
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Route calls through module.attr into a span named ``name``;
        ``after(args, kwargs, result)`` may count what the call returned."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Like wrap, for a generator consumed by its caller item by item:
        only the time spent producing items counts as the span's."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            items = original(*args, **kwargs)
            parent = self._open[-1][0] if self._open else -1
            start = time.perf_counter()
            busy = 0.0
            try:
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter() - t
                    self.counts[name + ".items"] += 1
                    yield item
            finally:
                self.spans.append([name, start, start + busy, parent])
                self._close(name, busy, 0.0)

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span(tracer, name: str):
    """A span when tracing, else nothing."""
    return nullcontext() if tracer is None else tracer.span(name)


def install(tracer: Tracer) -> None:
    from entroute import (
        cli,
        experiments,
        multiflow,
        pair_algebra,
        purification,
        routing,
        topology,
        verify,
    )

    for mod in (topology, experiments, verify):
        tracer.wrap(mod, "generate", "topology.generate")
    for mod in (experiments, multiflow, verify):
        tracer.wrap(mod, "build_aux_graph", "auxgraph.build")
    # frontier builds happen behind routing's frontier cache
    for attr in ("candidate_frontier", "pumping_frontier"):
        tracer.wrap(
            routing,
            attr,
            "purification.frontier",
            after=lambda a, kw, res: tracer.counts.update({"purification.frontier_entries": len(res)}),
        )
    tracer.wrap(purification, "schedule", "purification.schedule")

    def after_search(args, kwargs, result):
        stats = kwargs["stats"]
        tracer.counts["routing.labels_pushed"] += stats["pushed"]
        tracer.counts["routing.labels_expanded"] += stats["expanded"]
        tracer.counts["routing.labels_alive"] += sum(stats["alive_per_vertex"].values())
        if kwargs.get("mode", "optimal") != "optimal":
            return
        plans = result if isinstance(result, list) else [result]
        theta = pair_algebra.inverse_pseudo_fidelity(args[1])
        for plan in plans:
            if plan is not None:
                tracer.counts["routing.plans_found"] += 1
                if plan.fidelity < theta:
                    tracer.counts["routing.plans_exact_below_threshold"] += 1

    # a search reports admitted labels, expansions and surviving labels only
    # through the public stats= dict, so pass one when the caller does not
    def with_stats(fn):
        def call(*args, stats=None, **kwargs):
            return fn(*args, stats={} if stats is None else stats, **kwargs)

        return call

    for mod, attr in ((experiments, "min_cost_path"), (multiflow, "k_paths"), (verify, "min_cost_path")):
        tracer.wrap(mod, attr, "routing.search", after=after_search)
        setattr(mod, attr, with_stats(getattr(mod, attr)))

    def after_lp(args, kwargs, result):
        rows, cols = args[1].shape
        tracer.counts["multiflow.lp_rows"] += rows
        tracer.counts["multiflow.lp_columns"] += cols

    tracer.wrap(multiflow, "simplex_solve", "multiflow.lp", after=after_lp)
    tracer.wrap(multiflow, "ilp_solve", "multiflow.ilp")
    tracer.wrap(
        multiflow,
        "randomized_round",
        "multiflow.round",
        after=lambda a, kw, sel: tracer.counts.update({"multiflow.round_feasible": int(sel.feasible)}),
    )
    tracer.wrap_generator(cli, "scan_points", "strategies.scan_points")
    tracer.wrap(verify, "optimal_policy_fidelity", "strategies.policy_oracle")


def layer_metrics(tracer: Tracer, body_s: float) -> dict:
    """Per-layer figures of one traced pass; every ``_s`` figure is a self
    time.  ``trace.other_s`` is the time inside no layer span, so the
    self times and it add up to ``body_s``."""
    from entroute import routing

    c, s = tracer.counts, tracer.self_s
    table = routing.edge_throughput_table.cache_info()
    admitted = c["routing.labels_pushed"]
    trials = c["multiflow.round.calls"]
    out = {
        "topology.generate_calls": c["topology.generate.calls"],
        "topology.generate_s": s["topology.generate"],
        "auxgraph.build_calls": c["auxgraph.build.calls"],
        "auxgraph.build_s": s["auxgraph.build"],
        "purification.frontier_builds": c["purification.frontier.calls"],
        "purification.frontier_s": s["purification.frontier"],
        "purification.frontier_entries": c["purification.frontier_entries"],
        "purification.schedule_calls": c["purification.schedule.calls"],
        "purification.schedule_s": s["purification.schedule"],
        "purification.tree_eval_s": s["purification.tree_eval"],
        "routing.search_calls": c["routing.search.calls"],
        "routing.search_self_s": s["routing.search"],
        "routing.labels_pushed": admitted,
        "routing.labels_expanded": c["routing.labels_expanded"],
        "routing.labels_alive": c["routing.labels_alive"],
        "routing.expand_ratio": c["routing.labels_expanded"] / admitted if admitted else 0.0,
        "routing.table_builds": table.misses,
        "routing.table_hits": table.hits,
        "routing.plans_found": c["routing.plans_found"],
        "routing.plans_exact_below_threshold": c["routing.plans_exact_below_threshold"],
        "multiflow.lp_s": s["multiflow.lp"],
        "multiflow.lp_rows": c["multiflow.lp_rows"],
        "multiflow.lp_columns": c["multiflow.lp_columns"],
        "multiflow.ilp_s": s["multiflow.ilp"],
        "multiflow.round_trials": trials,
        "multiflow.round_s": s["multiflow.round"],
        "multiflow.round_feasible_frac": c["multiflow.round_feasible"] / trials if trials else 0.0,
        "strategies.scan_points": c["strategies.scan_points.items"],
        "strategies.scan_s": s["strategies.scan_points"],
        "cli.scan_csv_s": s["cli.scan_csv"],
        "strategies.policy_oracle_s": s["strategies.policy_oracle"],
        "experiments.run_s": s["experiments.run"],
        "experiments.rows": c["experiments.rows"],
        "experiments.error_rows": c["experiments.error_rows"],
        "verify.lemma1_s": s["verify.lemma1"],
        "verify.theorem2-small_s": s["verify.theorem2-small"],
        "trace.other_s": s["bench"],
        "trace.body_s": body_s,
    }
    return out
