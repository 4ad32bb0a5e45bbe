"""transasym benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload pole-survey --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  The run sets up the
workload seven times (re-importing ``transasym`` each time), then repeats
whole passes until ``--seconds`` have elapsed, checking every pass.  Set-ups
and untraced passes are timed by ``clock.Clock``, which rescales wall time
to a fixed machine speed; the median speed factor of the passes goes to
standard error.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each untraced pass
is followed by a traced one, timed in plain wall time, the metrics are per
layer, and the spans and counters go to ``bench/out/trace-<workload>.json``.
"""

import os

# pinned before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 7


def load_package():
    """Import transasym afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "transasym" or n.startswith("transasym.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ts = importlib.import_module("transasym")
    importlib.import_module("transasym.cli")
    if not Path(ts.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"transasym imported from {ts.__file__}, not from {SRC}")
    return ts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](OUT)

    clock = Clock()

    def set_up():
        ts = load_package()
        return ts, wl.setup(ts, args.seed)

    setup_s = []
    for _ in range(SETUPS):
        t = clock.timed(set_up)
        ts, state = t.result
        setup_s.append(t.seconds)

    attempted = failed = 0
    problems: list[str] = []
    digests: set[str] = set()
    run_s: list[float] = []
    wall_s: list[float] = []
    speed: list[float] = []
    traced: list[tuple[Tracer, float]] = []

    def account(p):
        nonlocal attempted, failed
        attempted += p.attempted
        failed += p.failed
        digests.add(p.digest)
        problems.extend(wl.check(ts, p.outputs))

    start = time.perf_counter()
    while True:
        gc.collect()
        t = clock.timed(wl.run, ts, state)
        run_s.append(t.seconds)
        wall_s.append(t.wall)
        speed.append(t.speed)
        account(t.result)
        if args.trace:
            gc.collect()
            tracer = Tracer()
            tracer.install(ts)
            try:
                t0 = time.perf_counter()
                p = wl.run(ts, state)
                traced.append((tracer, time.perf_counter() - t0))
            finally:
                tracer.remove()
            account(p)
        if time.perf_counter() - start >= args.seconds:
            break

    if len(digests) != 1:
        problems.append(f"outputs differ between passes ({len(digests)} distinct digests)")
    print(f"clock speed factor: median {statistics.median(speed):.4f} over {len(speed)} passes "
          f"(min {min(speed):.4f}, max {max(speed):.4f})", file=sys.stderr)
    if args.trace:
        metrics, trace_problems = _per_layer(args, traced, run_s, wall_s, speed)
        problems += trace_problems
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


UNITS = {"calls": "count", "steps": "count", "rhs": "count", "legs": "count",
         "approach_rhs": "count", "homing_rhs": "count", "refine_rhs": "count",
         "homing_legs": "count", "steps_per_rhs": "ratio",
         "observed_per_attempt": "ratio", "us_per_call": "us", "speed_factor": "ratio"}


def _per_layer(args, traced, run_s, wall_s, speed):
    """Per-layer metrics of the traced passes, and the trace file."""
    counts = [t.counts() for t, _ in traced]
    problems = [] if all(c == counts[0] for c in counts) else [
        "work counts differ between traced passes"]
    timings = [t.timings() for t, _ in traced]
    values = dict(counts[0])
    values.update({k: statistics.median(t[k] for t in timings) for k in timings[0]})
    overhead = statistics.median(w for _, w in traced) - statistics.median(wall_s)
    values["trace.overhead_s"] = overhead
    values["pass.wall_s"] = statistics.median(wall_s)
    values["clock.speed_factor"] = statistics.median(speed)
    metrics = {k: {"value": v, "unit": UNITS.get(k.rsplit(".", 1)[-1], "s")}
               for k, v in sorted(values.items())}
    with open(OUT / f"trace-{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "untraced_run_s": run_s, "untraced_wall_s": wall_s,
                   "untraced_speed_factor": speed,
                   "overhead_s": overhead,
                   "passes": [{"wall_s": w, "field_calls": t.field_calls,
                               "field_s": t.field_s, "counts": c, "timings": tm,
                               "spans": t.spans}
                              for (t, w), c, tm in zip(traced, counts, timings)]},
                  fh, indent=1)
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
