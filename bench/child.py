"""One timed operation of one workload, in a fresh interpreter.

Usage: python3 child.py WORKLOAD RECORD OUTPUT MODE

MODE is 0 (untraced) or 1 (traced).

Every repetition runs in its own process because the lru_cache tables in
qexpand.qnumbers and the per-system rewrite memo in qexpand.ordering live
for the life of the process: a second call in the same process would time
cache hits.  The child writes a JSON record (timestamps, CPU, memory and,
with TRACE=1, the layer statistics) to RECORD.  A library workload writes
its result to OUTPUT; the CLI workload's stdout is OUTPUT, set by the
parent.  Only sys, os and time are imported before the set-up timestamp,
so set-up time is the interpreter's start plus qexpand's import.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    workload, record_path, output_path, mode = sys.argv[1:5]
    from workloads import CLI_ARGV, WORKLOADS

    kind, func_name, system_name, size = WORKLOADS[workload]
    from qexpand import ordering, verify

    if kind == "cli":
        from qexpand import cli
    else:
        system = ordering.SYSTEMS[system_name]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json

    record = {"ready": ready}
    tracer = None
    if mode == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    if kind == "library":
        func = getattr(verify, func_name)
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = func(system, size)
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu0
        code = 0
    else:
        code = cli.main(CLI_ARGV)
        sys.stdout.flush()
    import resource

    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.report()

    if kind == "library":
        with open(output_path, "w") as out:
            json.dump(_to_json(func_name, result), out)
    with open(record_path, "w") as out:
        json.dump(record, out)
    return code


def _to_json(func_name, result):
    if func_name == "verify_expansions":
        return [
            {
                "n": r.n,
                "match": r.match,
                "mismatches": len(r.mismatches),
                "formula": r.formula_terms.to_json(),
                "oracle": r.oracle_terms.to_json(),
            }
            for r in result
        ]
    return result.to_json()


if __name__ == "__main__":
    sys.exit(main())
