"""Run-to-run spread of the benchmark, as the bounds in BENCHMARK.json are
judged: per workload and metric, the distance between the first and third
quartiles of the runs, as a share of their median.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--trace 0] [--workload NAME ...]

Runs are sequential, one seed each, with BENCHMARK.json's run_seconds.
A table goes to standard output; every run's result is kept in
.bench_out/spread-<first-seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results: dict[str, list] = {}
    for name in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - start
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line) if proc.returncode == 0 else {"exit": proc.returncode}
            results.setdefault(name, []).append(result)
            print(f"{name} seed={seed} exit={proc.returncode} correct={result.get('correct')} "
                  f"elapsed={elapsed:.1f}s", file=sys.stderr)

    print(f"{'workload':20} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name, runs in results.items():
        ok = [r for r in runs if r.get("correct")]
        shares = sorted({r["failed"] / r["attempted"] for r in ok})
        print(f"{name}: {len(ok)}/{len(runs)} correct, failed shares {shares}")
        for metric in (ok[0]["metrics"] if ok else {}):
            values = [r["metrics"][metric]["value"] for r in ok]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print(f"{'':20} {metric:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}")
    os.makedirs(".bench_out", exist_ok=True)
    out = os.path.join(".bench_out", f"spread-{args.first_seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
