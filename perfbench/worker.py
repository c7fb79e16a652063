"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD KEYS [--deadline EPOCH]
[--trace-out SPANS.json] [--setup-only] [--no-calibrate]

KEYS is a comma-separated list of pool keys.  The worker prints one JSON
object per line: a ``setup`` event, one ``round`` event per key run, and an
``end`` event.  Rounds and set-up are timed in segments with the reference
loop of calibrate.py between them, except with --trace-out or
--no-calibrate.  It starts no round once the wall clock passes --deadline.
With --trace-out it records spans and reports per-layer figures.
"""

import time

import calibrate

_REF_BEFORE_S = calibrate.reference()  # the host's speed as set-up begins
_START = time.perf_counter()  # set-up is timed from here: imports + inputs

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "perfbench" / "out"


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("keys")
    p.add_argument("--deadline", type=float, default=0.0)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--no-calibrate", action="store_true")
    args = p.parse_args()
    keys = [int(k) for k in args.keys.split(",")]

    sys.path.insert(0, str(ROOT / "src"))
    import entroute

    if Path(entroute.__file__).resolve().parent != (ROOT / "src" / "entroute").resolve():
        print(f"entroute imported from {entroute.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    t_imported = time.perf_counter()
    with tracing.span(tracer, "bench"):
        workload = workloads.WORKLOADS[args.workload](keys, tracer, SCRATCH)
        setup = {"event": "setup", "setup_s": time.perf_counter() - _START, "rss_mb": _rss_mb()}
        clock = calibrate.Clock(tracer is None and not args.no_calibrate)
        if clock.calibrating:
            setup["slowdown"] = (_REF_BEFORE_S + clock.ref_s) / 2.0 / calibrate.REF_NOMINAL_S
        _emit(setup)
        if args.setup_only:
            return 0
        for key in keys:
            if args.deadline and time.time() >= args.deadline:
                break
            clock.start()
            try:
                out = workload.run(key, clock)
            except Exception as exc:  # a failed round is reported, not fatal
                traceback.print_exc(file=sys.stderr)
                out = {"error": repr(exc)}
            clock.lap()
            out.update(
                event="round",
                key=key,
                wall_s=sum(seg[0] for seg in clock.segments),
                cpu_s=sum(seg[1] for seg in clock.segments),
                segments=clock.segments,
                rss_mb=_rss_mb(),
            )
            _emit(out)
    end = {"event": "end", "body_s": time.perf_counter() - t_imported}
    if tracer:
        end["layers"] = tracing.layer_metrics(tracer, end["body_s"])
        tracer.dump(args.trace_out)
    _emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
