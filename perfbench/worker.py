"""Run one workload's CLI invocations in this process and print the result.

Usage (from the root of a checkout, with PYTHONPATH pointing at its src/):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS {untraced,traced}

Every invocation goes through `msdenoise.cli.main(argv)` with stdout
captured.  Untraced, passes over the invocation list repeat until SECONDS
have elapsed; traced, one pass runs with span wrappers installed around the
public functions of every msdenoise module (no edit to the package).  The
last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from workloads import WORKLOADS

PACKAGE = "msdenoise"
MODULES = ("cli", "density", "shift", "synthetic", "theory_lab", "clustering",
           "twosample", "anomaly")

# Functions whose span carries another name than "<module>.<function>".  The
# three step entry points share one name, so the weighted-mean call made
# inside ShiftOperator.step folds into the step's span.
SPAN_NAMES = {
    ("density", "select_bandwidth_scv"): "density.scv",
    ("shift", "empirical_step_weighted_mean"): "shift.step",
    ("shift", "shift_step"): "shift.step",
}
# Whole modules that count as one layer.
MODULE_SPANS = {"cli": "cli", "synthetic": "synthetic"}


def _rows(x, dim):
    """Query rows in `x`, following density._as_queries."""
    arr = np.asarray(x)
    if arr.ndim == 2:
        return arr.shape[0]
    if arr.ndim == 1 and arr.shape[0] != dim:
        return arr.shape[0]
    return 1


def _n_points(data):
    return len(np.asarray(getattr(data, "points", data)))


def _model_size(source):
    data = getattr(source, "data", None)
    return 0 if data is None else data.size


def _scv_attrs(a, _):
    n = _n_points(a["data"])
    return {"pairs": n * (n - 1) // 2}


def _step_attrs(owner):
    """Attributes of a step whose model or operator is the argument `owner`."""
    def attrs(a, _):
        obj = a[owner]
        rows = _rows(a["x"], obj.dim)
        source = getattr(obj, "source", obj)  # an operator's source, or the model
        return {"rows": rows, "pairs": rows * _model_size(source)}
    return attrs


def _perm_attrs(a, _):
    total = _n_points(a["x"]) + _n_points(a["y"])
    return {"pooled_pairs": total * total, "permutations": a["n_perm"]}


def _anomaly_attrs(a, result):
    return {"points": _n_points(a["data"]),
            "nonconverged": int((~result.converged).sum())}


ATTRS = {
    ("density", "select_bandwidth_scv"): _scv_attrs,
    ("shift", "empirical_step_weighted_mean"): _step_attrs("model"),
    ("shift", "shift_step"): _step_attrs("op"),
    ("twosample", "permutation_test"): _perm_attrs,
    ("anomaly", "anomaly_scores"): _anomaly_attrs,
}


class Tracer:
    """Spans around wrapped calls: name, parent, invocation, start, end."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = 0
        self.originals = {}  # wrapper -> original function

    def wrap(self, name, fn, attrs=None):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a call under a span of the same name is part of that span
            if self.stack and self.stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans),
                    "parent": self.stack[-1]["id"] if self.stack else None,
                    "invocation": self.invocation, "name": name}
            self.spans.append(span)
            self.stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments, result))
            return result

        self.originals[wrapper] = fn
        return wrapper

    def install(self):
        """Wrap every public function at every binding site in the package.

        Returns the binding sites that still hold an unwrapped original.
        """
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replace = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = (SPAN_NAMES.get((short, attr)) or MODULE_SPANS.get(short)
                            or f"{short}.{attr}")
                    replace[obj] = self.wrap(name, obj, ATTRS.get((short, attr)))
        shift = mods[MODULES.index("shift")]
        shift.ShiftOperator.step = self.wrap(
            "shift.step", shift.ShiftOperator.step, _step_attrs("self"))
        sites = [sys.modules[PACKAGE]] + mods
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
        return [f"{mod.__name__}.{attr}" for mod in sites
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj in replace]

    def summary(self):
        """Per-name call counts and self times, plus the anomaly-loop counts."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        names = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        steps_under = defaultdict(list)  # anomaly_scores span id -> step rows
        for s in self.spans:
            agg = names[s["name"]]
            agg["calls"] += 1
            agg["self_s"] += s["t1"] - s["t0"] - child[s["id"]]
            for key in ("pairs", "rows", "pooled_pairs", "permutations", "points",
                        "nonconverged"):
                if key in s:
                    agg[key] = agg.get(key, 0) + s[key]
            if s["name"] == "shift.step" and s["parent"] is not None:
                parent = self.spans[s["parent"]]
                if parent["name"] == "anomaly.anomaly_scores":
                    steps_under[parent["id"]].append(s["rows"])
        scoring = [s for s in self.spans if s["name"] == "anomaly.anomaly_scores"]
        anomaly = {
            "iterations": [len(steps_under[s["id"]]) for s in scoring],
            "rows": sum(sum(steps_under[s["id"]]) for s in scoring),
            "points": sum(s["points"] for s in scoring),
            "sweep_rows": sum(len(steps_under[s["id"]]) * s["points"] for s in scoring),
        }
        return {"spans": dict(names), "anomaly": anomaly}


def invoke(main, argv):
    """One CLI call: exit code, captured stdout, and a traceback on a crash."""
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the harness keeps going and reports the failure
        code = None
        error = traceback.format_exc()
    return {"argv": argv, "code": code, "stdout": buf.getvalue(), "error": error}


def _openblas():
    """numpy's bundled OpenBLAS: (effective thread count, config string)."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*")))
    if not found:
        return None, None
    lib = ctypes.CDLL(found[0])
    threads = lib.scipy_openblas_get_num_threads64_
    threads.argtypes, threads.restype = [], ctypes.c_int
    config = lib.scipy_openblas_get_config64_
    config.argtypes, config.restype = [], ctypes.c_char_p
    return threads(), config().decode()


def main():
    name, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    workload = WORKLOADS[name]
    src = os.path.join(os.getcwd(), "src")
    import msdenoise
    import msdenoise.cli
    import scipy

    if not os.path.abspath(msdenoise.__file__).startswith(src + os.sep):
        raise SystemExit(f"msdenoise imported from {msdenoise.__file__}, not {src}")
    for mod in workload.imports:
        importlib.import_module(mod)
    tracer = None
    unwrapped = []
    if mode == "traced":
        tracer = Tracer()
        unwrapped = tracer.install()
    loaded = set(sys.modules)
    cli = sys.modules["msdenoise.cli"]
    passes = []
    start = time.perf_counter()
    while True:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        calls = []
        for argv in workload.invocations(seed):
            if tracer is not None:
                tracer.invocation += 1
            calls.append(invoke(cli.main, argv))
        wall = time.perf_counter() - t0
        passes.append({"wall_s": wall, "cpu_s": time.process_time() - cpu0,
                       "invocations": calls})
        if tracer is not None or time.perf_counter() - start >= seconds:
            break

    blas_threads, blas_config = _openblas()
    late = sorted(m for m in set(sys.modules) - loaded
                  if m.split(".")[0] in (PACKAGE, "scipy"))
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "late_imports": late,
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "openblas_config": blas_config, "blas_threads": blas_threads},
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["unwrapped"] = unwrapped
        out["wrapped_sites"] = {
            site: getattr(sys.modules[f"{PACKAGE}.{site.split('.')[0]}"],
                          site.split(".")[1]) in tracer.originals
            for site in ("anomaly.select_bandwidth_scv", "theory_lab.fit",
                         "theory_lab.shift_until_converged",
                         "theory_lab.empirical_step_weighted_mean")}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
