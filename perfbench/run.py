"""Benchmark entry point.

    python3 perfbench/run.py --workload route-compare --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --all                      # every workload, untraced
    python3 perfbench/run.py --record perfbench/baseline.json

One run is a closed loop from a single client: worker processes (see
worker.py) run the rounds of one workload one after another until the
window of --seconds has passed.  Each worker is a fresh interpreter, so the
program's caches start cold in every pass.  Every round's outputs are
compared with references.json.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 1 runs
the workload's fixed trace pass twice, untraced and traced, and reports the
per-layer figures instead of the end-to-end ones.

End-to-end times are calibrated for the host's speed (see calibrate.py):
every segment of a round, and the set-up, is divided by the slowdown the
reference loop measured just before and just after it.  The raw times stay
in the record.

A full record of each run, with the machine facts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 3  # extra set-up-only workers per run, for the setup_s median
GRACE_S = 60.0  # how far a pass may overrun the window before it is killed
TRACE_CAP_S = 75.0  # time cap of each of the two passes of a traced run
BASELINE_SEEDS = (0, 1)  # the development seed and the held-out one
# one single-threaded client: no BLAS/OpenMP threads, fixed hash order
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(
    workload, keys, *, timeout, deadline=0.0, trace_out=None, setup_only=False, calibrated=True
) -> dict:
    """Run one worker pass; a pass that outlives ``timeout`` is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, ",".join(map(str, keys))]
    if deadline:
        cmd += ["--deadline", repr(deadline)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    if not calibrated:
        cmd.append("--no-calibrate")
    env = {k: v for k, v in os.environ.items() if k != "ENTROUTE_SEED"}
    env.update(PINS)
    timed_out = False
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, timeout=max(timeout, 1.0)
        )
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, stderr, code, timed_out = exc.stdout or b"", exc.stderr or b"", None, True
    events = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass  # a line cut short by the kill
    return {
        "keys": list(keys),
        "events": events,
        "returncode": code,
        "timed_out": timed_out,
        "stderr": stderr.decode("utf-8", "replace")[-2000:],
    }


def check_pass(workload: str, result: dict, refs: dict) -> tuple[list, list]:
    """(rounds, failures) of one pass; a round whose outputs differ from the
    reference, that raised, or that was cut off counts as failed."""
    rounds, failures = [], []
    for ev in result["events"]:
        if ev["event"] != "round":
            continue
        want = refs[workload].get(str(ev["key"]), {}).get("output")
        if "error" in ev:
            failures.append({"key": ev["key"], "kind": "error", "detail": ev["error"]})
        elif ev["output"] != want:
            failures.append({"key": ev["key"], "kind": "mismatch", "got": ev["output"], "want": want})
        rounds.append(ev)
    ended = any(ev["event"] == "end" for ev in result["events"])
    if result["timed_out"] or not ended:
        left = result["keys"][len(rounds) :]
        failures.append(
            {
                "key": left[0] if left else None,
                "kind": "timeout" if result["timed_out"] else "crash",
                "detail": result["stderr"],
            }
        )
    return rounds, failures


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entroute").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "pins": PINS,
        "loadavg_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: int, refs: dict) -> dict:
    """Untraced run: set-up probes, then passes until the window closes."""
    facts = machine_facts()
    first = plan.stream_pass(workload, seed, 0)
    probes = [
        run_worker(workload, first, timeout=GRACE_S, setup_only=True) for _ in range(SETUP_PROBES)
    ]
    passes = []
    deadline = time.time() + seconds
    while time.time() < deadline:
        keys = plan.stream_pass(workload, seed, len(passes))
        passes.append(
            run_worker(workload, keys, deadline=deadline, timeout=deadline - time.time() + GRACE_S)
        )
        if passes[-1]["timed_out"]:
            break
    rounds, failures = [], []
    for result in probes:
        if not any(ev["event"] == "setup" for ev in result["events"]):
            kind = "timeout" if result["timed_out"] else "crash"
            failures.append({"key": None, "kind": kind, "detail": result["stderr"]})
    for result in passes:
        r, f = check_pass(workload, result, refs)
        rounds += r
        failures += f
    passes += probes
    setups = [ev for p in passes for ev in p["events"] if ev["event"] == "setup"]
    metrics, raw = {}, {}
    if rounds:
        for out, slow in ((raw, lambda seg: 1.0), (metrics, lambda seg: seg[2])):
            walls = [sum(seg[0] / slow(seg) for seg in r["segments"]) for r in rounds]
            queries = [
                q / slow(r["segments"][i]) for r in rounds for q, i in r.get("queries", ())
            ] or [w * 1000.0 for w in walls]  # multiflow-mc: the round is the query
            out.update(
                query_p50_ms=percentile(queries, 50),
                query_p90_ms=percentile(queries, 90),
                round_wall_s=statistics.median(walls),
                round_cpu_s=statistics.median(
                    sum(seg[1] / slow(seg) for seg in r["segments"]) for r in rounds
                ),
            )
        raw["setup_s"] = statistics.median(ev["setup_s"] for ev in setups)
        metrics["setup_s"] = statistics.median(ev["setup_s"] / ev["slowdown"] for ev in setups)
        metrics["peak_rss_mb"] = max(
            ev["rss_mb"] for p in passes for ev in p["events"] if "rss_mb" in ev
        )
        raw["slowdown"] = statistics.median(seg[2] for r in rounds for seg in r["segments"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "seconds": seconds,
        "facts": facts,
        "passes": len(passes) - len(probes),
        "rounds": [{k: r.get(k) for k in ("key", "wall_s", "cpu_s", "segments")} for r in rounds],
        "queries": sum(len(r.get("queries", [None])) for r in rounds),
        "setup_samples": [[ev["setup_s"], ev["slowdown"]] for ev in setups],
        "attempted": len(rounds) + sum(f["kind"] in ("timeout", "crash") for f in failures),
        "failures": failures,
        "metrics": metrics,
        "raw_metrics": raw,
    }


def measure_traced(workload: str, seed: int, refs: dict) -> dict:
    """Traced run: the fixed trace pass untraced, then traced; the difference
    of their body times is the tracing overhead."""
    facts = machine_facts()
    keys = plan.trace_pass(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    plain = run_worker(workload, keys, timeout=TRACE_CAP_S, calibrated=False)
    traced = run_worker(workload, keys, timeout=TRACE_CAP_S, trace_out=spans)
    rounds, failures = [], []
    for result in (plain, traced):
        r, f = check_pass(workload, result, refs)
        rounds += r
        failures += f
    ends = [next((e for e in p["events"] if e["event"] == "end"), None) for p in (plain, traced)]
    metrics = {}
    if all(ends):
        metrics = dict(ends[1]["layers"])
        metrics["trace.rounds"] = sum(e["event"] == "round" for e in traced["events"])
        metrics["trace.untraced_body_s"] = ends[0]["body_s"]
        metrics["trace.overhead_s"] = ends[1]["body_s"] - ends[0]["body_s"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "facts": facts,
        "keys": keys,
        "spans_file": str(spans.relative_to(ROOT)),
        "attempted": len(rounds) + sum(f["kind"] in ("timeout", "crash") for f in failures),
        "failures": failures,
        "metrics": metrics,
    }


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line, with the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {
        "correct": not any(f["kind"] in ("mismatch", "error") for f in record["failures"]),
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def run_one(workload, seed, seconds, trace, spec, refs) -> tuple[dict, dict]:
    if trace:
        record = measure_traced(workload, seed, refs)
    else:
        record = measure(workload, seed, seconds, refs)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not record["metrics"]:
        raise RuntimeError(f"{workload}: no round completed; see {path.relative_to(ROOT)}")
    line = result_line(record, spec)
    print(f"# {workload} seed={seed} trace={trace} attempted={line['attempted']} "
          f"failed={line['failed']} correct={line['correct']}")
    raw = record.get("raw_metrics", {})
    for name, m in line["metrics"].items():
        extra = f"  (uncalibrated {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    if "slowdown" in raw:
        print(f"host slowdown = {raw['slowdown']:.4g} (median over segments)")
    return record, line


def main(argv=None) -> int:
    # SIGTERM raises SystemExit, on which subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=plan.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--record", help="write a baseline to this file: every workload at "
                   "seeds 0 and 1, untraced once and traced twice")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "entroute" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'entroute'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    try:
        if args.record:
            return record_baseline(Path(args.record), seconds, spec, refs)
        if args.all:
            lines = [run_one(w, args.seed, seconds, args.trace, spec, refs)[1] for w in plan.WORKLOADS]
            print(json.dumps({
                "correct": all(l["correct"] for l in lines),
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "metrics": {},
            }))
            return 0
        if args.workload is None:
            p.error("--workload, --all or --record is required")
        _, line = run_one(args.workload, args.seed, seconds, args.trace, spec, refs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


def record_baseline(path: Path, seconds, spec, refs) -> int:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = []
    for workload in plan.WORKLOADS:
        for seed in BASELINE_SEEDS:
            _, untraced = run_one(workload, seed, seconds, 0, spec, refs)
            record, traced = run_one(workload, seed, seconds, 1, spec, refs)
            _, again = run_one(workload, seed, seconds, 1, spec, refs)
            differ = [n for n in counts if traced["metrics"][n] != again["metrics"][n]]
            runs.append({
                "workload": workload,
                "seed": seed,
                "untraced": untraced,
                "traced": traced,
                "traced_keys": record["keys"],
                "counts_differing_in_repeat": differ,
            })
    path.write_text(json.dumps({"facts": machine_facts(), "seconds": seconds, "runs": runs},
                               indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"written": str(path), "all_correct": all(
        r["untraced"]["correct"] and r["traced"]["correct"] for r in runs),
        "counts_repeat": all(not r["counts_differing_in_repeat"] for r in runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
