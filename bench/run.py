"""carnn benchmark: one workload per run, in this single-threaded process.

Run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Inputs are generated from the seed. The workload then repeats whole rounds
(one set-up, then a fixed list of operations, each timed on its own) until
--seconds have passed. Outputs are checked against the references in
oracles.py outside the timed regions. The last line of standard output is
one JSON object: correct, attempted, failed, and the metrics. With --trace 0
those are the end-to-end metrics; with --trace 1 the entry points of each
carnn layer are wrapped and the per-layer metrics are reported instead.
--quick shrinks every input so that a run takes seconds (for the tests).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# Pinned before numpy loads: on a 2-core machine a second BLAS thread
# measures the scheduler, not carnn.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# latency_p99_ms is taken per block of whole rounds of at least this many
# operations (see _tail_blocks).
TAIL_BLOCK_OPS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Repeat rounds of set-up plus wl.ops_per_round operations until
    ``seconds`` have passed; at least one round always runs. Each set-up and
    operation time is kept both raw and at the reference speed (speed.py)."""
    import resource
    import time
    from array import array

    from carnn.errors import CarnnError
    from oracles import CheckFailed
    from speed import INTERVAL_S, Speed
    from workloads import OpFailed

    # Times, and the start and end of each timed interval, in flat arrays of
    # 8 bytes a value: the run's own bookkeeping then adds little to
    # peak_rss_mb, however many operations a run fits in.
    setup_s, op_s, setup_at, op_at = array("d"), array("d"), array("d"), array("d")
    attempted = failed = rounds = 0
    untraced_s = 0.0
    problem = peak_rss_mb = None
    setup_scaled = op_scaled = []
    deadline = time.perf_counter() + seconds
    try:
        with Speed(tracer.exclude if tracer else None) as speed:
            while True:
                start = time.perf_counter()
                state = wl.setup()
                end = time.perf_counter()
                setup_s.append(end - start - speed.own_s(start, end))
                setup_at.extend((start, end))
                for i in range(wl.ops_per_round):
                    attempted += 1
                    covered = tracer.covered_s() if tracer else 0.0
                    start = time.perf_counter()
                    try:
                        out = wl.op(state, i)
                    except (CarnnError, OpFailed) as exc:
                        failed += 1
                        print(f"operation {i} failed: {exc}", file=sys.stderr)
                        continue
                    end = time.perf_counter()
                    raw = end - start - speed.own_s(start, end)
                    op_s.append(raw)
                    op_at.extend((start, end))
                    if tracer:
                        untraced_s += raw - (tracer.covered_s() - covered)
                        tracer.enabled = False
                    wl.check_op(state, i, out)
                    if tracer:
                        tracer.enabled = True
                rounds += 1
                if time.perf_counter() >= deadline:
                    break
            time.sleep(INTERVAL_S)   # one more loop run after the last interval
        # the peak of the measured rounds, before the checks and the summary
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_scaled = [t * speed.factor(a, b)
                        for t, a, b in zip(setup_s, setup_at[::2], setup_at[1::2])]
        op_scaled = [t * speed.factor(a, b) for t, a, b in zip(op_s, op_at[::2], op_at[1::2])]
        if tracer:
            tracer.uninstall()
        recall = wl.finish(state)
    except CheckFailed as exc:
        problem, recall = str(exc), None
    return dict(setup_s=setup_s, op_s=op_s, setup_scaled=setup_scaled, op_scaled=op_scaled,
                calibration_s=speed.loop_s, attempted=attempted, failed=failed,
                rounds=rounds, untraced_s=untraced_s, problem=problem, recall=recall,
                peak_rss_mb=peak_rss_mb)


def _tail_blocks(wl, op_s: list) -> list:
    """The run's operation times in blocks of whole rounds, each of at least
    TAIL_BLOCK_OPS operations; with too few operations, one block of all.

    latency_p99_ms is the median over these blocks of each block's p99, so
    the host's slow stretches move it only if they reach half the blocks."""
    size = wl.ops_per_round * -(-TAIL_BLOCK_OPS // wl.ops_per_round)
    return [op_s[i:i + size] for i in range(0, len(op_s) - size + 1, size)] or [op_s]


def end_to_end(wl, run: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics; times at the reference speed unless ``scaled``
    is false."""
    import statistics

    op_s, setup_s = run["op_s"], run["setup_s"]
    if scaled:
        op_s, setup_s = run["op_scaled"], run["setup_scaled"]
    p50 = statistics.median(op_s)
    p99 = statistics.median(
        statistics.quantiles(block, n=100, method="inclusive")[98] if len(block) > 1
        else block[0] for block in _tail_blocks(wl, op_s))
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "throughput": {"value": wl.units / p50, "unit": "ops/s"},
        "latency_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "latency_p99_ms": {"value": 1e3 * p99, "unit": "ms"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "heldout_recall_at_10": {"value": run["recall"], "unit": "fraction"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "carnn", "__init__.py")):
        print("error: run from the root of a carnn checkout (no src/carnn here)",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.abspath("src"), HERE]

    import shutil
    import statistics
    import tempfile

    import carnn
    from tracer import Tracer
    from workloads import WORKLOADS

    if not os.path.abspath(carnn.__file__).startswith(os.path.abspath("src")):
        print(f"error: carnn imported from {carnn.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.quick, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        run = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run["problem"] is None and bool(run["op_s"])
    if not correct:
        print(f"check failed: {run['problem'] or 'no operation completed'}", file=sys.stderr)
    metrics = end_to_end(wl, run) if correct else {}
    summary = {"workload": args.workload, "seed": args.seed, "rounds": run["rounds"],
               "ops": len(run["op_s"]), "end_to_end": metrics,
               "end_to_end_unscaled": end_to_end(wl, run, scaled=False) if correct else {},
               "calibration_median_s": statistics.median(run["calibration_s"]),
               "near_ties": getattr(wl, "near_ties", 0)}
    if tracer:
        metrics = tracer.per_round(run["rounds"], run["untraced_s"])
        summary["per_layer"] = metrics
        summary["absent"] = tracer.absent
        if tracer.absent:
            print(f"absent entry points: {', '.join(tracer.absent)}", file=sys.stderr)
    with open(os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
