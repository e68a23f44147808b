"""qexpand benchmark: one workload, timed in fresh interpreters.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload's operation, each time in a new child process
(child.py), for about S seconds, then checks the outputs independently
(checks.py) and prints one JSON object as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, each the median over the run's
repetitions.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics from the traced ones (tracer.py); the
untraced ones give trace.overhead_s.  The traced children's spans and
counts are kept in .bench-trace/WORKLOAD-seedN.json.  The seed picks the coefficients
that are checked against sympy; the program's inputs do not depend on it.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3  # rounds of repetitions per run, however short --seconds is
SYMPY_SAMPLE = 4  # coefficients per run checked against sympy
TRACE_DIR = os.path.join(ROOT, ".bench-trace")
REFERENCE_ROUNDS = 100  # about 0.15 s of reference work when the machine is idle


def clock():
    # CLOCK_MONOTONIC is system-wide, so parent and child timestamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference():
    """(wall, cpu) seconds of a fixed amount of pure-Python work.

    The loop is a schoolbook product of two integer tuples, the same kind
    of work as qexpand's arithmetic.  On a shared machine the speed of the
    processor drifts by tens of percent over seconds to minutes, and both
    this loop and the workload slow down alike, so the workload's time is
    reported in units of this loop's time, taken just before and just
    after each repetition.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    coeffs = tuple(range(1, 120))
    for _ in range(REFERENCE_ROUNDS):
        out = [0] * (2 * len(coeffs) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(coeffs):
                out[i + j] += x * y
    return time.perf_counter() - wall, time.process_time() - cpu


class Spawner:
    """Runs child.py and measures it from outside."""

    def __init__(self, workload, tmp):
        self.workload = workload
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.count = 0

    def run(self, mode):
        self.count += 1
        record_path = os.path.join(self.tmp, f"record-{self.count}.json")
        output_path = os.path.join(self.tmp, f"output-{self.count}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
                record_path, output_path, mode]
        with open(output_path, "wb") as out, open(
            os.path.join(self.tmp, "stderr.txt"), "wb"
        ) as err:
            spawned = clock()
            child = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            exited = clock()
            child.returncode = os.waitstatus_to_exitcode(status)
        rep = {
            "code": child.returncode,
            "output": output_path,
            "wall_outside": exited - spawned,
            "cpu_outside": usage.ru_utime + usage.ru_stime,
            "peak_rss_outside": usage.ru_maxrss,
        }
        try:
            with open(record_path) as f:
                rep["record"] = json.load(f)
        except (OSError, ValueError):
            rep["record"] = None
        if rep["record"] is not None:
            rep["setup_s"] = rep["record"]["ready"] - spawned
        os.remove(record_path)
        return rep


def e2e(rep, kind):
    """Wall seconds, CPU seconds and peak RSS (MB) of one repetition."""
    if kind == "cli":
        # what a CLI user waits for: spawn to exit of the whole process
        return rep["wall_outside"], rep["cpu_outside"], rep["peak_rss_outside"] / 1024
    rec = rep["record"]
    return rec["wall_s"], rec["cpu_s"], rec["peak_rss_kb"] / 1024


def layer_metrics(rep, kind):
    """Per-layer figures of one traced repetition."""
    trace = rep["record"]["trace"]
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][2]

    gcd_calls = calls("exactarith.gcd")
    lookups = counts["theta_hits"] + counts["theta_misses"]
    return {
        "exactarith.mul.calls": calls("exactarith.mul"),
        "exactarith.mul.self_s": self_s("exactarith.mul"),
        "exactarith.mul.max_degree": counts["mul_max_degree"],
        "exactarith.gcd.calls": gcd_calls,
        "exactarith.gcd.self_s": self_s("exactarith.gcd"),
        "exactarith.gcd.nontrivial_ratio": counts["gcd_nontrivial"] / gcd_calls
        if gcd_calls else 0.0,
        "exactarith.exact_div.calls": calls("exactarith.exact_div"),
        "exactarith.exact_div.self_s": self_s("exactarith.exact_div"),
        "exactarith.rf_new.calls": calls("exactarith.rf_new"),
        "exactarith.rf_new.self_s": self_s("exactarith.rf_new"),
        "exactarith.max_coeff_bits": counts["max_coeff_bits"],
        "qnumbers.theta.calls": calls("qnumbers.theta"),
        "qnumbers.theta.self_s": self_s("qnumbers.theta"),
        "qnumbers.theta.cache_hit_ratio": counts["theta_hits"] / lookups
        if lookups else 0.0,
        "qnumbers.phi.self_s": self_s("qnumbers.phi"),
        "freealgebra.mul.calls": calls("freealgebra.mul"),
        "freealgebra.mul.self_s": self_s("freealgebra.mul"),
        "freealgebra.max_terms": counts["max_terms"],
        "ordering.normalize.calls": calls("ordering.normalize"),
        "ordering.normalize.self_s": self_s("ordering.normalize"),
        "ordering.words_in": counts["words_in"],
        "ordering.words_out": counts["words_out"],
        "verify.self_s": self_s("verify"),
        "cli.self_s": self_s("cli"),
        "cli.output_bytes": os.path.getsize(rep["output"]) if kind == "cli" else 0,
    }


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "qexpand", "__init__.py")):
        print(f"error: no qexpand sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = load_units()
    kind, func_name, system, size = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".bench-run-", dir=ROOT) as tmp:
        spawner = Spawner(args.workload, tmp)
        # a round is one untraced repetition, plus one traced with --trace 1;
        # every repetition sits between two runs of the reference loop
        reps, round_costs = [], []
        start = clock()
        before = reference()
        while True:
            began = clock()
            for mode in ("0", "1")[: 1 + args.trace]:
                rep = spawner.run(mode)
                after = reference()
                rep["reference"] = [(b + a) / 2 for b, a in zip(before, after)]
                before = after
                rep["mode"] = mode
                reps.append(rep)
                if kind == "cli":
                    with open(rep["output"]) as f:
                        rep["problems"] = checks.check_verify_all(f.read(), rep["code"])
            round_costs.append(clock() - began)
            # stop when the next round would overrun the run length
            if len(round_costs) >= MIN_ROUNDS and (
                clock() - start + statistics.median(round_costs) > args.seconds
            ):
                break

        ok = [r for r in reps if r["record"] is not None and (kind == "cli" or r["code"] == 0)]
        failed = len(reps) - len(ok)
        if not ok:
            print(f"error: every repetition of {args.workload} failed", file=sys.stderr)
            with open(os.path.join(tmp, "stderr.txt")) as f:
                sys.stderr.write(f.read())
            return 1
        problems = _check(args, ok, kind, func_name, system, size)
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)

        if args.trace:
            metrics = _trace_metrics(ok, kind)
            _write_traces(args, ok)
        else:
            walls, cpus, rss = zip(*(e2e(r, kind) for r in ok))
            print(f"{args.workload}: median wall {statistics.median(walls):.3f} s, "
                  f"cpu {statistics.median(cpus):.3f} s over {len(ok)} repetitions",
                  file=sys.stderr)
            metrics = {
                "wall_ref": statistics.median(
                    w / r["reference"][0] for w, r in zip(walls, ok)),
                "cpu_ref": statistics.median(
                    c / r["reference"][1] for c, r in zip(cpus, ok)),
                "peak_rss_mb": statistics.median(rss),
                "setup_s": statistics.median(r["setup_s"] for r in ok),
            }

    result = {
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check(args, reps, kind, func_name, system, size):
    """Failure messages over every successful repetition's output."""
    if kind == "cli":
        return [p for r in reps for p in r["problems"]]
    # identical inputs give identical outputs: the first is checked in full,
    # the others must be byte-identical to it
    first = reps[0]
    with open(first["output"]) as f:
        data = json.load(f)
    rng = random.Random(args.seed)
    if func_name == "verify_expansions":
        results = checks.check_lemma2(data, size, rng, SYMPY_SAMPLE)
    else:
        terms = checks.parse_terms(data)
        sample = checks.sample_words(system, size, terms, rng, SYMPY_SAMPLE)
        results = checks.check_expansion(system, size, terms, sample)
    problems = [f"{name}: {m}" for name, msgs in results.items() for m in msgs]
    digest = _digest(first["output"])
    problems += [
        "output differs from the first repetition's"
        for r in reps[1:] if _digest(r["output"]) != digest
    ]
    return problems


def _write_traces(args, reps):
    """Keep every traced repetition's spans and counts after the run."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump([r["record"]["trace"] for r in reps if r["mode"] == "1"], f)
    print(f"spans and counts written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def _trace_metrics(reps, kind):
    plain = [e2e(r, kind)[0] for r in reps if r["mode"] == "0"]
    traced = [r for r in reps if r["mode"] == "1"]
    per_rep = [layer_metrics(r, kind) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_s"] = statistics.median(
        e2e(r, kind)[0] for r in traced
    ) - statistics.median(plain)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
