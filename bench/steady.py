"""Steadiness of the benchmark: repeated runs on the same code.

Usage:
    python3 bench/steady.py [--runs 10] [--sets 1] [--trace 0|1]

Runs bench/run.py --runs times per workload and set, each run with its
own seed (1, 2, ...), the workloads interleaved so that a slow spell of
the machine touches all of them.  For every workload and metric it prints
the median and the quartile spread (Q3 - Q1) / median over the runs of
each set, as statistics.quantiles(values, n=4) gives the quartiles, and
with --sets 2 the drift of the second set's median from the first's.  An
end-to-end metric whose spread or drift, either way, exceeds its bound in
BENCHMARK.json is marked OVER.  The command exits 1 if any metric is
OVER, or if a run is not correct, or if a run's share of failed
operations differs from the first run's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # results[set][workload] -> list of run results
    results = [{w: [] for w in WORKLOADS} for _ in range(args.sets)]
    seed = 1
    bad = []
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in WORKLOADS:
                began = time.monotonic()
                r = run_once(w, seed, spec["run_seconds"], args.trace)
                r["elapsed_s"] = time.monotonic() - began
                results[s][w].append(r)
                share = r["failed"] / r["attempted"]
                print(f"set {s + 1} seed {seed} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"in {r['elapsed_s']:.1f} s",
                      file=sys.stderr, flush=True)
                first = results[0][w][0]
                if not r["correct"] or share != first["failed"] / first["attempted"]:
                    bad.append(f"{w} seed {seed}")
            seed += 1

    # a spread or a drift, either way, past the bound is marked OVER
    print(f"{'workload':<11} {'metric':<32} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'drift':>8}")
    for w in WORKLOADS:
        for name in results[0][w][0]["metrics"]:
            bound = bounds.get(name)
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spread = (q3 - q1) / median if median else float("nan")
                drift = (medians[1] - medians[0]) / medians[0] if s and medians[0] else 0.0
                over = bound is not None and (spread > bound or abs(drift) > bound)
                if over:
                    bad.append(f"{w} {name} set {s + 1}")
                print(f"{w:<11} {name:<32} {s + 1:>3} {median:>12.6g} {spread:>8.3f} "
                      f"{'' if bound is None else bound:>6} "
                      f"{f'{drift:+8.3f}' if s else '':>8}{'  OVER' if over else ''}")
    if bad:
        print("not correct, failed share differs, or OVER: " + ", ".join(bad),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
