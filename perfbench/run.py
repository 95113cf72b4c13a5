"""Seeded benchmark for the inclogic package.

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  One
process, one thread.  A run does round(seconds / round_seconds) rounds of the
workload (see workloads.py), times every operation, checks every output
outside the timed region and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are reported
at a fixed machine pace (see pace.py); the line before the JSON object also
gives the unscaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
operations with spans around the package's layer functions, prints the
per-layer table, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAGE = os.sysconf("SC_PAGE_SIZE")


def process_age() -> float:
    """Seconds since this process was created, interpreter start-up
    included; falls back to the time since this module started."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    return age if age > 0 else time.perf_counter() - _STARTED


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def current_rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "inclogic" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'inclogic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    rounds = max(1, round(args.seconds / workload.round_seconds))
    clock = pace.Pace()
    clock.after(force=True)
    intervals: list[tuple[float, float]] = []   # per operation, failed ones included
    done: list[bool] = []
    attempted = failed = 0
    peak = 0
    setup = None
    errors: list[str] = []
    for _ in range(rounds):
        ops = iter(workload.make_round())
        while True:
            # inputs are generated here, untraced and outside the timed region
            if tracer:
                tracer.active = False
            op = next(ops, None)
            if op is None:
                break
            label, run, check = op
            attempted += 1
            if setup is None:
                setup = process_age()
            if tracer:
                tracer.active = True
                tracer.op = attempted
            high = peak_rss()
            start = time.perf_counter()
            try:
                out = run()
                ok = True
            except Exception as exc:  # counted and reported, the run goes on
                ok = False
                print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
            intervals.append((start, start + elapsed))
            done.append(ok)
            # the high-water mark when this operation raised it, else the
            # resident size it left: checks run outside this window
            now = peak_rss()
            peak = max(peak, now if now > high else current_rss())
            if ok:
                problem = check(out)
                if problem:
                    errors.append(f"{label}: {problem}")
            else:
                failed += 1
            clock.after()
    clock.after(force=True)

    for e in errors[:10]:
        print(f"wrong: {e}", file=sys.stderr)
    raw = [end - start for start, end in intervals]
    timed = sum(raw)
    # every operation's time at the reference pace (see pace.py)
    paced = [t * clock.factor(*interval) for t, interval in zip(raw, intervals)]
    latencies = [t for t, ok in zip(paced, done) if ok]
    raw_ok = [t for t, ok in zip(raw, done) if ok]
    print(f"# {args.workload} seed={args.seed} rounds={rounds} attempted={attempted}"
          f" failed={failed} samples={len(latencies)} timed_s={timed:.4f}"
          f" paced_timed_s={sum(paced):.4f} raw_ops_s={len(raw_ok) / timed:.4f}"
          f" raw_p50_ms={1000 * statistics.median(raw_ok):.4f}"
          f" raw_p90_ms={1000 * statistics.quantiles(raw_ok, n=10, method='inclusive')[8]:.4f}"
          f" slices={len(clock.at)} median_slice_ms={1000 * clock.median():.4f}"
          f" errors={len(errors)}")
    if tracer:
        tracer.print_table()
        path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
        metrics = tracer.metrics()
    else:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": setup * pace.REFERENCE / clock.median(), "unit": "s"},
            "throughput_ops_s": {"value": len(latencies) / sum(paced), "unit": "ops/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak / 2**20, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
