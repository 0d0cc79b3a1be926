"""Record the reference outputs that run.py checks every invocation against.

    python3 perfbench/record.py [WORKLOAD ...]

For each input set (seed 0 .. POOL-1) of each named workload (default: all)
this runs one traced pass, checks exit codes, t5 `passed`, the span counts
the configuration implies and the binding sites, and stores the key outputs
and the data-dependent counts in reference.json.  Run it from the root of a
checkout, only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import (REFERENCE, BenchError, key_outputs, layer_metrics, run_worker,
                 trace_self_check, worker_env)
from workloads import POOL, WORKLOADS

# The ROADMAP exactness contracts (batch equals per-row evaluation bit for
# bit, row-order independence, byte-identical reruns, ratio and weighted-mean
# forms within 1e-10) let a faithful kernel rewrite move a step by ~1e-15.
# Every checked output is a count or a rate built from discrete decisions
# (test rejections, ball counts, rankings, cluster labels), which such a
# change cannot flip except at exact ties; a wrong kernel (e.g. a 1% scale
# error) moves t5 values and rates by 1e-3 or more.  Integers must match.
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12, "integers": "exact"}


def main():
    names = sys.argv[1:] or sorted(WORKLOADS)
    reference = {"tolerance": TOLERANCE, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference["workloads"] = {k: v for k, v in json.load(fh)["workloads"].items()
                                      if k in WORKLOADS}
    env = worker_env(os.getcwd())
    for name in names:
        workload = WORKLOADS[name]
        table = reference["workloads"].setdefault(name, {})
        for seed in range(POOL):
            result = run_worker(workload, seed, 0.0, "traced", env, time.monotonic() + 600)
            metrics = layer_metrics(result, 0.0)
            outputs = []
            problems = trace_self_check(workload, result, None, metrics)
            for call in result["passes"][0]["invocations"]:
                got, bad = key_outputs(workload, call)
                outputs.append(got)
                problems += bad
            if problems:
                raise BenchError(f"{name} seed {seed}: " + "; ".join(problems))
            table[str(seed)] = {
                "outputs": outputs,
                "counts": {k: metrics[k] for k in workload.recorded_counts},
            }
            print(f"{name} seed {seed}: {metrics['trace.wall_s']:.2f} s traced", flush=True)
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
