"""Record references.json: the output digest and the cost of every pool key.

    python3 perfbench/make_references.py [--workload NAME ...]

Run it at a commit whose outputs are trusted, on an otherwise idle
machine; the benchmark then fails any round whose output differs.  The
cost (``ms``, the least calibrated wall time of a round over REPEATS runs,
see calibrate.py) only sorts the pool into strata (see plan.py).  Keys run in fresh workers, in
passes of the benchmark's size and in a fixed shuffled order, so that no
round reuses caches filled by a related one, as in a benchmark run.  A key
whose output differs between repeats is an error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import plan
from run import run_worker

REPEATS = 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=plan.WORKLOADS, default=plan.WORKLOADS)
    args = p.parse_args(argv)
    refs = json.loads(plan.REFERENCES.read_text(encoding="utf-8")) if plan.REFERENCES.exists() else {}
    for workload in args.workload:
        keys = plan.pool(workload)
        random.Random(0).shuffle(keys)
        size = plan.PASS_SIZE[workload]
        found = {}
        for i in range(0, len(keys), size):
            for _ in range(REPEATS):
                result = run_worker(workload, keys[i : i + size], timeout=900)
                for ev in result["events"]:
                    if ev["event"] != "round":
                        continue
                    if "error" in ev:
                        print(f"{workload} key {ev['key']}: {ev['error']}", file=sys.stderr)
                        return 1
                    ms = round(1000 * sum(wall / slow for wall, _, slow in ev["segments"]), 1)
                    ref = found.setdefault(str(ev["key"]), {"output": ev["output"], "ms": ms})
                    if ref["output"] != ev["output"]:
                        print(f"{workload} key {ev['key']}: output differs between runs", file=sys.stderr)
                        return 1
                    ref["ms"] = min(ref["ms"], ms)
                missing = [k for k in keys[i : i + size] if str(k) not in found]
                if missing:
                    print(f"{workload}: no output for keys {missing}\n{result['stderr']}", file=sys.stderr)
                    return 1
        refs[workload] = dict(sorted(found.items(), key=lambda kv: int(kv[0])))
        plan.REFERENCES.write_text(
            "{\n"
            + ",\n".join(
                f"{json.dumps(w)}: {{\n"
                + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
                + "\n}"
                for w, entries in refs.items()
            )
            + "\n}\n",
            encoding="utf-8",
        )
        print(f"{workload}: {len(found)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
