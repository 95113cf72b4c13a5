"""Steadiness check: run each workload repeatedly and compare sets of runs.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads approx-game --runs 5 --sets 1
    python3 perfbench/steady.py --runs 1 --trace    # tracing overhead

Every run lasts ``run_seconds`` from BENCHMARK.json, the length the bounds
hold for.  Set 1 uses seeds 1, 2, ... and set 2 seeds 101, 102, ....  For
every end-to-end metric it prints the median and quartiles of each set and
the spread (Q3 - Q1) / median next to the bound in BENCHMARK.json.  With two
sets it also reports whether the two sets' medians differ by at most the
bound, in either direction, and whether both sets failed the same share of
operations.  The spread of ``setup_s`` is reported but not gated: it is one
cold process start per run, and only its median is compared.  With
``--trace`` every run is repeated traced, and the report gives the tracing
overhead (traced over untraced timed seconds, both at the reference pace)
and whether both runs agreed on every count.  Results are also written as
JSON to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(l for l in lines if l.startswith(f"# {workload} "))
    result["timed_s"] = float(re.search(r" paced_timed_s=([\d.]+)", summary).group(1))
    return result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    metrics = bench["end_to_end"]
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for j in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + 100 * j + i
                r = run_once(workload, seed, bench["run_seconds"], 0)
                if args.trace:
                    t = run_once(workload, seed, bench["run_seconds"], 1)
                    r["trace_overhead"] = t["timed_s"] / r["timed_s"] - 1
                    r["trace_agrees"] = all(t[k] == r[k] for k in
                                            ("correct", "attempted", "failed"))
                runs.append(r)
                print(f"{workload} seed {seed}: correct={r['correct']}"
                      f" attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics), flush=True)
            sets.append(runs)
        report[workload] = sets
        print(f"\n{workload}")
        for j, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            ok &= correct and len(shares) == 1
            print(f"  set {j + 1}: all correct={correct}, failed shares={sorted(shares)}")
            if args.trace:
                overheads = [r["trace_overhead"] for r in runs]
                agree = all(r["trace_agrees"] for r in runs)
                ok &= agree
                print(f"  tracing overhead median {100 * statistics.median(overheads):.1f}%,"
                      f" traced runs agree on counts and verdicts: {agree}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:18}"
            meds = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                if len(values) < 2:
                    line += f" value {values[0]:.4g}"
                    meds.append(values[0])
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                steady = spread <= bound / 3
                if name != "setup_s":
                    ok &= spread <= bound
                meds.append(med)
                line += (f" median {med:.4g} [Q1 {q1:.4g}, Q3 {q3:.4g}] spread"
                         f" {100 * spread:.1f}% ({'<' if steady else '>='} bound/3)")
            if len(meds) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                agree = abs(change) <= bound
                ok &= agree
                line += f" | set 2 vs 1: {100 * change:+.1f}% within bound: {agree}"
            print(line + f" (bound {100 * bound:.0f}%)")
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nall checks {'pass' if ok else 'FAIL'}; raw results in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
