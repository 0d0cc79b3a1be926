"""msdenoise benchmark: end-to-end CLI workloads plus a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload (see workloads.py; the reason for each is in BENCHMARK.json)
runs in a fresh worker process on the machine's default BLAS threads, with
MSDENOISE_THREADS and every *_NUM_THREADS variable removed from its
environment.  --seed picks the input set (seed mod workloads.POOL).

--trace 0 reports the end-to-end metrics:
  wall_s       median over untraced passes (repeated for --seconds) of the
               time from the first CLI invocation to the last report
  setup_s      median over 6 fresh interpreters of start-up to
               `import msdenoise.cli` plus the modules the subcommand loads
               lazily (after one unmeasured warm-up); half run before the
               timed passes and half after, so they see the same host load
  peak_rss_mb  high-water RSS of the untraced worker
--trace 1 runs one untraced pass, one traced pass and one informational
traced pass with OPENBLAS_NUM_THREADS=1 (not gated), and reports the
per-layer metrics.  Every invocation is checked: exit code, `passed` for t5,
key outputs against reference.json within its stated tolerance, identical
report bytes across passes and between the untraced and traced runs
(reference.json is written by record.py).  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import POOL, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEADLINE_S = 170.0
SETUP_PROBES = 6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "density.scv.calls": "count",
    "density.scv.self_s": "s",
    "density.scv.pairs": "count",
    "density.scv.ns_per_pair": "ns",
    "shift.step.calls": "count",
    "shift.step.self_s": "s",
    "shift.step.rows": "count",
    "shift.step.pairs": "count",
    "shift.step.ns_per_pair": "ns",
    "shift.step.rows_per_call": "count",
    "twosample.permutation_test.calls": "count",
    "twosample.permutation_test.self_s": "s",
    "twosample.permutation_test.pooled_pairs": "count",
    "twosample.permutation_test.permutations": "count",
    "twosample.energy_statistic.self_s": "s",
    "twosample.msd_pipeline.calls": "count",
    "twosample.msd_pipeline.self_s": "s",
    "clustering.spectral.calls": "count",
    "clustering.spectral.self_s": "s",
    "clustering.kmeans.calls": "count",
    "clustering.kmeans.self_s": "s",
    "clustering.ari.self_s": "s",
    "anomaly.anomaly_scores.calls": "count",
    "anomaly.anomaly_scores.self_s": "s",
    "anomaly.iterations_max": "count",
    "anomaly.iterations_mean": "count",
    "anomaly.active_fraction": "ratio",
    "anomaly.nonconverged": "count",
    "theory_lab.multi_sweep_mode_growth.self_s": "s",
    "synthetic.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "cli.cpu_s": "s",
    "cli.blas_threads": "count",
    "cli.trace_overhead_s": "s",
    "trace.wall_s": "s",
    "trace.other_self_s": "s",
    "blas1.wall_s": "s",
    "blas1.twosample.permutation_test.self_s": "s",
    "blas1.clustering.spectral.self_s": "s",
}
# Span names with a metric of their own; the self time of every other span
# (density.fit, shift.shift_until_converged, ...) goes to trace.other_self_s.
NAMED_SPANS = ("density.scv", "shift.step", "twosample.permutation_test",
               "twosample.energy_statistic", "twosample.msd_pipeline",
               "clustering.spectral", "clustering.kmeans", "clustering.ari",
               "anomaly.anomaly_scores",
               "theory_lab.multi_sweep_mode_growth", "synthetic", "cli")


class BenchError(Exception):
    """The benchmark could not run (missing source tree, crashed worker, timeout)."""


def worker_env(root, single_thread=False):
    env = {k: v for k, v in os.environ.items()
           if k != "MSDENOISE_THREADS" and not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run(cmd, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {' '.join(cmd[:4])}")
    try:
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd[:4])}")


def measure_setup(workload, env, deadline, probes, warm_up):
    """Wall times of fresh interpreters importing the CLI and its lazy modules."""
    stmt = "; ".join(f"import {m}" for m in ("msdenoise.cli",) + workload.imports)
    times = []
    for i in range(probes + warm_up):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-c", stmt], env, deadline)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if i >= warm_up:  # the first probe compiles bytecode and fills the page cache
            times.append(elapsed)
    return times


def run_worker(workload, seed, seconds, mode, env, deadline):
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"), workload.name,
                 str(seed), repr(seconds), mode], env, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def within(got, ref, tol):
    """Integers and booleans exactly; floats to atol + rtol*|ref|; lists and dicts itemwise."""
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(within(got[k], ref[k], tol) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(within(g, r, tol) for g, r in zip(got, ref)))
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - ref) <= tol["atol"] + tol["rtol"] * abs(ref)
    return type(got) is type(ref) and got == ref


def key_outputs(workload, call):
    """(key outputs, problems) of one invocation: exit code, report, t5 `passed`."""
    if call["error"]:
        return None, [f"raised:\n{call['error']}"]
    if call["code"] != 0:
        return None, [f"exit code {call['code']}, expected 0"]
    try:
        report = json.loads(call["stdout"])
        outputs = workload.key_outputs(report)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable report: {exc!r}"]
    if workload.passed_flag and report.get("passed") is not True:
        return outputs, ["report says passed: false"]
    return outputs, []


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(result, untraced_wall):
    """Per-layer metrics from one traced worker result."""
    spans = result["trace"]["spans"]
    anomaly = result["trace"]["anomaly"]
    traced = result["passes"][0]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_pair(name):
        pairs = get(name, "pairs")
        return get(name, "self_s") / pairs * 1e9 if pairs else 0.0

    step_calls = get("shift.step", "calls")
    perm = "twosample.permutation_test"
    return {
        "density.scv.calls": get("density.scv", "calls"),
        "density.scv.self_s": get("density.scv", "self_s"),
        "density.scv.pairs": get("density.scv", "pairs"),
        "density.scv.ns_per_pair": per_pair("density.scv"),
        "shift.step.calls": step_calls,
        "shift.step.self_s": get("shift.step", "self_s"),
        "shift.step.rows": get("shift.step", "rows"),
        "shift.step.pairs": get("shift.step", "pairs"),
        "shift.step.ns_per_pair": per_pair("shift.step"),
        "shift.step.rows_per_call": (get("shift.step", "rows") / step_calls
                                     if step_calls else 0.0),
        f"{perm}.calls": get(perm, "calls"),
        f"{perm}.self_s": get(perm, "self_s"),
        f"{perm}.pooled_pairs": get(perm, "pooled_pairs"),
        f"{perm}.permutations": get(perm, "permutations"),
        "twosample.energy_statistic.self_s": get("twosample.energy_statistic", "self_s"),
        "twosample.msd_pipeline.calls": get("twosample.msd_pipeline", "calls"),
        "twosample.msd_pipeline.self_s": get("twosample.msd_pipeline", "self_s"),
        "clustering.spectral.calls": get("clustering.spectral", "calls"),
        "clustering.spectral.self_s": get("clustering.spectral", "self_s"),
        "clustering.kmeans.calls": get("clustering.kmeans", "calls"),
        "clustering.kmeans.self_s": get("clustering.kmeans", "self_s"),
        "clustering.ari.self_s": get("clustering.ari", "self_s"),
        "anomaly.anomaly_scores.calls": get("anomaly.anomaly_scores", "calls"),
        "anomaly.anomaly_scores.self_s": get("anomaly.anomaly_scores", "self_s"),
        "anomaly.iterations_max": max(anomaly["iterations"], default=0),
        "anomaly.iterations_mean": (anomaly["rows"] / anomaly["points"]
                                    if anomaly["points"] else 0.0),
        "anomaly.active_fraction": (anomaly["rows"] / anomaly["sweep_rows"]
                                    if anomaly["sweep_rows"] else 0.0),
        "anomaly.nonconverged": get("anomaly.anomaly_scores", "nonconverged"),
        "theory_lab.multi_sweep_mode_growth.self_s":
            get("theory_lab.multi_sweep_mode_growth", "self_s"),
        "synthetic.self_s": get("synthetic", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "cli.report_bytes": sum(len(c["stdout"].encode()) for c in traced["invocations"]),
        "cli.cpu_s": traced["cpu_s"],
        "cli.blas_threads": result["machine"]["blas_threads"],
        "cli.trace_overhead_s": traced["wall_s"] - untraced_wall,
        "trace.wall_s": traced["wall_s"],
        "trace.other_self_s": sum(v["self_s"] for k, v in spans.items()
                                  if k not in NAMED_SPANS),
    }


def trace_self_check(workload, result, ref_counts, metrics):
    """Problems with the tracer itself: missed binding sites, wrong span counts."""
    problems = [f"unwrapped binding site {s}" for s in result["unwrapped"]]
    problems += [f"binding site {s} not wrapped"
                 for s, ok in result["wrapped_sites"].items() if not ok]
    spans = result["trace"]["spans"]
    for name, want in workload.expected_calls.items():
        got = spans.get(name, {}).get("calls", 0)
        if got != want:
            problems.append(f"{name}: {got} spans, the configuration implies {want}")
    for key, want in (ref_counts or {}).items():
        if metrics[key] != want:
            problems.append(f"{key} = {metrics[key]}, recorded {want}")
    self_total = sum(v["self_s"] for v in spans.values())
    wall = metrics["trace.wall_s"]
    if abs(wall - self_total) > 0.01 * wall:
        problems.append(f"self times sum to {self_total:.4f} s, traced wall is {wall:.4f} s")
    return problems


def run_workload(workload, seed, seconds, trace, root, deadline):
    """Run one workload; returns (correct, attempted, failed, metrics, machine)."""
    pool_seed = seed % POOL
    reference = load_reference()
    tol = reference["tolerance"]
    recorded = reference["workloads"].get(workload.name, {}).get(str(pool_seed), {})
    refs = recorded.get("outputs")
    env = worker_env(root)

    setup = measure_setup(workload, env, deadline, SETUP_PROBES // 2, warm_up=1)
    untraced = run_worker(workload, pool_seed, seconds if not trace else 0.0,
                          "untraced", env, deadline)
    setup += measure_setup(workload, env, deadline, SETUP_PROBES - len(setup), warm_up=0)
    setup_s = statistics.median(setup)
    runs = [("untraced", p) for p in untraced["passes"]]
    traced = None
    if trace:
        traced = run_worker(workload, pool_seed, 0.0, "traced", env, deadline)
        runs.append(("traced", traced["passes"][0]))

    first = untraced["passes"][0]["invocations"]
    attempted = failed = 0
    for label, p in runs:
        for i, call in enumerate(p["invocations"]):
            attempted += 1
            outputs, problems = key_outputs(workload, call)
            if refs is None:
                problems.append("no reference outputs recorded for this seed")
            elif outputs is not None and not within(outputs, refs[i], tol):
                problems.append(f"key outputs {outputs} differ from reference {refs[i]}")
            if call["stdout"] != first[i]["stdout"]:
                problems.append(f"{label} report bytes differ from the first untraced pass")
            if problems:
                failed += 1
                print(f"FAIL {workload.name} {label} {' '.join(call['argv'])}: "
                      + "; ".join(problems))

    walls = [p["wall_s"] for p in untraced["passes"]]
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    print(f"{workload.name} seed={seed} inputs={pool_seed} wall_s={wall_s:.4f} s "
          f"(q1={q1:.4f} q3={q3:.4f} n={len(walls)}) setup_s={setup_s:.4f} s "
          f"peak_rss_mb={untraced['peak_rss_mb']:.1f} MB "
          f"failed_frac={failed / attempted:.4f} ratio ({failed}/{attempted})")
    if untraced["late_imports"]:
        print(f"note: loaded during the timed passes, not in setup_s: "
              f"{', '.join(untraced['late_imports'])}")
    correct = failed == 0
    if not trace:
        metrics = {"wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": untraced["peak_rss_mb"]}
        return correct, attempted, failed, metrics, untraced["machine"]

    metrics = layer_metrics(traced, walls[0])
    problems = trace_self_check(workload, traced, recorded.get("counts"), metrics)
    for problem in problems:
        print(f"TRACE-CHECK {workload.name}: {problem}")
    correct = correct and not problems
    spans = traced["trace"]["spans"]
    top = max(spans, key=lambda k: spans[k]["self_s"])
    print(f"dominant layer: {top} ({spans[top]['self_s']:.3f} s of "
          f"{metrics['trace.wall_s']:.3f} s traced); expected {workload.dominant}")

    # informational single-thread pass, not gated
    single = run_worker(workload, pool_seed, 0.0, "traced",
                        worker_env(root, single_thread=True), deadline)
    one = layer_metrics(single, walls[0])
    metrics["blas1.wall_s"] = one["trace.wall_s"]
    for name in ("twosample.permutation_test.self_s", "clustering.spectral.self_s"):
        metrics[f"blas1.{name}"] = one[name]
    same = all(c["stdout"] == f["stdout"]
               for c, f in zip(single["passes"][0]["invocations"], first))
    print(f"single-thread pass (OPENBLAS_NUM_THREADS=1, blas_threads="
          f"{single['machine']['blas_threads']}): wall {one['trace.wall_s']:.3f} s "
          f"vs {metrics['trace.wall_s']:.3f} s default; reports "
          f"{'identical' if same else 'DIFFER'}")
    return correct, attempted, failed, metrics, traced["machine"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "msdenoise", "cli.py")):
        print(f"error: no msdenoise source tree under {root}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    total_correct, total_attempted, total_failed, metrics = True, 0, 0, {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            correct, attempted, failed, values, machine = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace, root, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"machine: {json.dumps(machine, sort_keys=True)}")
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
        total_correct &= correct
        total_attempted += attempted
        total_failed += failed
    print(json.dumps({"correct": total_correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
