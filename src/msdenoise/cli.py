"""Command line interface: argument parsing and I/O only.

Subcommands cover the full pipeline: `gen` writes synthetic datasets, `denoise`
shifts a CSV of points, `cluster-eval` scores clustering before/after
denoising, `twosample` runs the power-curve harnesses, `anomaly` ranks points
by shift path length, and `theory` runs the Monte Carlo property checks and
fails (exit 3) on violations.  The experiments themselves live in the library
(`clustering`, `twosample`, `anomaly`, `theory_lab`), which owns their
defaults and argument checks; this module reads CSVs and reference datasets,
checks the flags that must fail before a bandwidth is selected, and writes
every CSV and JSON report, so no library module opens a file.  `theory_lab` is
the one module loaded on demand.  Every run prints a JSON report that embeds
its configuration and the package version; reruns with the same inputs and
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .anomaly import anomaly_scores, top_k
from .clustering import run_clustering_case, run_dataset_eval
from .density import _count, _positive, density_at, fit, standardize
from .shift import ShiftOperator, denoise
from .synthetic import (
    _CASES,
    _generate_case,
    _rng,
    default_anomaly_scenario,
    gen_bullseye,
    gen_gmm_1d,
    gen_spiral,
)
from .twosample import power_experiment_mixture_proportion, power_experiment_uniform_noise


class CliError(ValueError):
    """User-facing command failure: `main` prints it and exits 2."""


# ---------------------------------------------------------------------------
# CSV plumbing


def _read_csv(path):
    """Parse a numeric CSV; returns (array, header-or-None).

    Comma separated, UTF-8 with or without a byte order mark (as Excel
    saves it), optional single header row detected by a non-numeric first
    row.  Malformed cells are reported with their line and column;
    non-finite values are rejected.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    if not rows:
        raise CliError(f"{path}: file is empty")

    def parse(row):
        return [float(cell) for cell in row]

    header = None
    start = 0
    try:
        parse(rows[0])
    except ValueError:
        header = rows[0]
        start = 1
    if start >= len(rows):
        raise CliError(f"{path}: header but no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:]):
        line = start + i + 1
        if len(row) != width:
            raise CliError(
                f"{path}: line {line}: expected {width} columns, found {len(row)}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise CliError(
                    f"{path}: line {line}, column {j + 1}: not a number: {cell!r}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise CliError(
            f"{path}: line {start + int(i) + 1}, column {int(j) + 1}: non-finite value")
    return data, header


def _open_output(path):
    """`path` opened for writing as UTF-8 text; one that cannot be opened
    raises CliError naming it, as every output of every command does."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")


def _write_csv(path, rows, header=None):
    """Write rows of numbers, a 2-D array or any iterable, as `%.17g` cells."""
    with _open_output(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Reference datasets

_DATASETS = {
    # name: (rows, feature columns, default cluster count, published bandwidth)
    "olive": (572, 8, 7, 0.587),
    "banknote": (1372, 4, 5, 0.453),
    "seeds": (210, 7, 3, 0.613),
}


def load_dataset(name, path):
    """Load one of the reference CSV datasets with a strict shape check.

    Expected shapes: olive 572x8, banknote 1372x4, seeds 210x7.  A single
    extra trailing column is treated as the class label and split off; its
    values must be whole numbers.  Returns the standardized features
    (per-coordinate zero mean, unit sample sd; the published bandwidths
    assume them) and the labels, or None when the file has no label column.
    """
    if name not in _DATASETS:
        raise CliError(f"unknown dataset {name!r}; choose from {sorted(_DATASETS)}")
    n_exp, d_exp, _, _ = _DATASETS[name]
    arr, header = _read_csv(path)
    labels = None
    if arr.shape == (n_exp, d_exp + 1):
        col = arr[:, -1]
        bad = np.flatnonzero(col != np.trunc(col))
        if bad.size:
            line = int(bad[0]) + 1 + (header is not None)
            raise CliError(f"{path}: line {line}: label {col[bad[0]]:g} is not a whole number")
        labels = col.astype(np.int64)
        arr = arr[:, :d_exp]
    elif arr.shape != (n_exp, d_exp):
        raise CliError(
            f"{path}: {name} should be {n_exp}x{d_exp} (optionally +1 label "
            f"column), found {arr.shape[0]}x{arr.shape[1]}")
    return standardize(arr), labels


# ---------------------------------------------------------------------------
# Report plumbing


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):  # a library result, such as a ScalingReport
        return _jsonable(vars(value))
    return value


def _config_echo(args):
    skip = {"func"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _report(args, **payload):
    out = {"command": args.command, "version": __version__,
           "config": _config_echo(args)}
    out.update(_jsonable(payload))
    return out


def _parse_bandwidth(spec):
    """A --h value: 'scv' or a positive finite number."""
    if spec == "scv":
        return spec
    try:
        return _positive(spec, "--h")
    except ValueError:
        raise CliError(f"--h must be a positive finite number or 'scv', got {spec!r}")


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args):
    rng = _rng(args.seed)
    if args.case in _CASES:
        labeled = _generate_case(args.case, rng)
    elif args.case == "bullseye":
        labeled = gen_bullseye(args.n0, rng_seed=rng)
    elif args.case == "spiral":
        labeled = gen_spiral(args.n0, rng_seed=rng)
    elif args.case == "anomaly":
        labeled = default_anomaly_scenario(rng_seed=args.seed)
    else:  # gmm1d
        cloud = gen_gmm_1d(args.n0, rng_seed=rng)
        labeled = None
        pts = cloud.points
    if labeled is not None:
        pts = labeled.cloud.points
    if args.no_labels or labeled is None:
        body, header = pts, [f"x{j}" for j in range(pts.shape[1])]
    else:
        body = np.column_stack([pts, labeled.labels.astype(np.float64)])
        header = [f"x{j}" for j in range(pts.shape[1])] + ["label"]
    _write_csv(args.out, body, header)
    counts = (np.bincount(labeled.labels).tolist() if labeled is not None else
              [pts.shape[0]])
    report = _report(args, rows=int(pts.shape[0]), dim=int(pts.shape[1]),
                     label_counts=counts, output=args.out)
    return report, 0


def cmd_denoise(args):
    _count(args.sweeps, "--sweeps")
    arr, header = _read_csv(args.input)
    model = fit(arr, _parse_bandwidth(args.h))
    op = ShiftOperator(model)
    mean_before = float(density_at(model, arr).mean())
    moved = denoise(arr, op, sweeps=args.sweeps).points
    mean_after = float(density_at(model, moved).mean())
    _write_csv(args.output, moved, header)
    report = _report(args, bandwidth=model.bandwidth, rows=int(arr.shape[0]),
                     dim=int(arr.shape[1]), kde_mean_before=mean_before,
                     kde_mean_after=mean_after, output=args.output)
    return report, 0


def cmd_cluster_eval(args):
    if args.dataset:
        if args.knn is not None or args.sigma is not None:
            raise CliError("--knn and --sigma apply to --case runs only, not to --dataset")
        if not args.input:
            raise CliError("--dataset requires --input pointing at the CSV file")
        cloud, labels = load_dataset(args.dataset, args.input)
        if labels is None:
            raise CliError(f"{args.input}: dataset file has no label column to score against")
        _, _, k_default, h_default = _DATASETS[args.dataset]
        # a malformed --h fails even with --no-msd, which leaves it unused
        h = h_default if args.h is None else _parse_bandwidth(args.h)
        payload = run_dataset_eval(args.dataset, cloud, labels,
                                   k_default if args.k is None else args.k,
                                   algo=args.algo, n_reps=args.reps,
                                   rng_seed=args.seed, msd=args.msd, bandwidth=h)
    elif args.case:
        if args.algo != "spectral" and (args.knn is not None or args.sigma is not None):
            raise CliError(f"--knn and --sigma apply to --algo spectral only, not to {args.algo}")
        sigma = args.sigma
        if sigma not in (None, "auto"):
            try:
                sigma = float(sigma)
            except ValueError:
                raise CliError(f"--sigma must be a number or 'auto', got {sigma!r}")
        h = _parse_bandwidth(args.h or "scv")
        payload = run_clustering_case(args.case, algo=args.algo,
                                      k=2 if args.k is None else args.k,
                                      n_reps=args.reps, rng_seed=args.seed,
                                      msd=args.msd, knn=args.knn,
                                      affinity_sigma=sigma, bandwidth=h)
    else:
        raise CliError("pick a --case or a --dataset to evaluate")
    report = _report(args, **payload)
    return report, 0


POWER_CURVE_HEADER = ["grid", "power_before", "power_after", "n_reps"]


def _power_curve_rows(curve):
    """One row per grid point; a curve without an after column gets nan cells."""
    size = curve.grid.size
    after = np.full(size, np.nan) if curve.power_after is None else curve.power_after
    return np.column_stack([curve.grid, curve.power_before, after, np.full(size, curve.n_reps)])


def _parse_grid(spec, cast):
    """A --grid value: comma-separated entries, each read by `cast`."""
    values = []
    for entry in spec.split(","):
        try:
            values.append(cast(entry))
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise CliError(f"--grid entries must each be {kind}, got {entry!r} in {spec!r}")
    return values


def cmd_twosample(args):
    common = dict(n0=args.n0, n_reps=args.reps, alpha=args.alpha, msd=args.msd,
                  rng_seed=args.seed, test=args.test, n_perm=args.n_perm)
    if args.scenario == "noise":
        run, grid_arg, cast = power_experiment_uniform_noise, "noise_grid", int
    else:
        run, grid_arg, cast = power_experiment_mixture_proportion, "pi_grid", float
    # without --grid the library's default grid applies
    if args.grid:
        common[grid_arg] = _parse_grid(args.grid, cast)
    curve = run(**common)
    if args.out_csv:
        _write_csv(args.out_csv, _power_curve_rows(curve), POWER_CURVE_HEADER)
    payload = vars(curve).copy()
    payload.update(payload.pop("extras"))  # extras sit beside the curve's fields
    report = _report(args, **payload)
    return report, 0


def cmd_anomaly(args):
    planted = None
    if args.input:
        arr, _ = _read_csv(args.input)
    else:
        scenario = default_anomaly_scenario(rng_seed=args.seed)
        arr = scenario.cloud.points
        planted = np.flatnonzero(scenario.labels == scenario.labels.max())
    rows = arr.shape[0]
    if not 0 <= args.k <= rows:
        raise CliError(f"--k must be in 0..{rows}")
    _count(args.max_iter, "--max-iter")
    model = fit(arr, _parse_bandwidth(args.h))
    report_obj = anomaly_scores(arr, model, max_iter=args.max_iter,
                                keep_traces=args.traces_out is not None)
    top = top_k(report_obj, args.k)
    payload = {
        "bandwidth": model.bandwidth,
        "rows": rows,
        "top_k": top.tolist(),
        "top_k_scores": report_obj.scores[top].tolist(),
        "n_nonconverged": int((~report_obj.converged).sum()),
    }
    if planted is not None:
        recovered = sorted(set(top.tolist()) & set(planted.tolist()))
        payload.update(planted_indices=planted.tolist(), recovered=recovered,
                       n_recovered=len(recovered))
    if args.traces_out:
        # one row per retained position, streamed: point, step, coordinates
        rows = ((i, s, *x) for i, t in enumerate(report_obj.traces)
                for s, x in enumerate(t.path))
        _write_csv(args.traces_out, rows,
                   ["point", "step"] + [f"x{j}" for j in range(arr.shape[1])])
        payload["traces_out"] = args.traces_out
    report = _report(args, **payload)
    return report, 0


def cmd_theory(args):
    from . import theory_lab as lab  # the one module loaded on demand

    payload = lab.run_check(args.check, args.seed)
    passed = all(payload["checks"].values())
    report = _report(args, passed=passed, **payload)
    return report, 0 if passed else 3


# ---------------------------------------------------------------------------
# Parser


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out-json", default=None, help="also write the report here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msdenoise",
        description="Mean shift denoising: KDE shift operator, experiments, checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset as CSV")
    p.add_argument("--case", required=True,
                   choices=sorted(_CASES) + ["bullseye", "spiral", "gmm1d", "anomaly"])
    p.add_argument("--n0", type=int, default=500, help="structure sample size")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--no-labels", action="store_true",
                   help="omit the trailing label column")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("denoise", help="mean shift a CSV of points")
    p.add_argument("input", help="numeric CSV, optional header row")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--h", default="scv",
                   help="bandwidth: positive number or 'scv' (default)")
    p.add_argument("--sweeps", type=int, default=1,
                   help="number of shift sweeps, operator held fixed")
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("cluster-eval",
                       help="ARI before vs after denoising on a case or dataset")
    p.add_argument("--case", choices=sorted(_CASES), default=None)
    p.add_argument("--dataset", choices=sorted(_DATASETS), default=None)
    p.add_argument("--input", default=None, help="CSV path for --dataset")
    p.add_argument("--algo", choices=["kmeans", "spectral", "hier"],
                   default="spectral")
    p.add_argument("--k", type=int, default=None,
                   help="cluster count (default: 2 for cases, published for datasets)")
    p.add_argument("--knn", type=int, default=None,
                   help="neighbor count for the spectral graph on cases "
                        "(default per case; 0 forces a dense graph)")
    p.add_argument("--sigma", default=None,
                   help="spectral affinity scale: number or 'auto' "
                        "(default per case)")
    p.add_argument("--h", default=None,
                   help="denoising bandwidth: number or 'scv' "
                        "(default: scv for cases, published for datasets)")
    p.add_argument("--msd", action=argparse.BooleanOptionalAction, default=True,
                   help="also score after one denoising sweep")
    p.add_argument("--reps", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_cluster_eval)

    p = sub.add_parser("twosample", help="power curves for the two-sample tests")
    p.add_argument("--scenario", choices=["noise", "mixture"], required=True)
    p.add_argument("--test", choices=["energy", "mmd"], default="energy")
    p.add_argument("--grid", default=None,
                   help="comma-separated grid values (noise counts or mixture weights)")
    p.add_argument("--n0", type=int, default=1000)
    p.add_argument("--reps", type=int, default=50,
                   help="replicates per grid point (200 reproduces the study)")
    p.add_argument("--n-perm", type=int, default=199)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--msd", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out-csv", default=None, help="write the curve as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_twosample)

    p = sub.add_parser("anomaly", help="rank points by shift path length")
    p.add_argument("--input", default=None,
                   help="numeric CSV; omit to use the builtin blob scenario")
    p.add_argument("--k", type=int, default=10, help="how many top scores to list")
    p.add_argument("--h", default="scv")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--traces-out", default=None, help="write full paths as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser("theory", help="Monte Carlo property checks (exit 3 on failure)")
    p.add_argument("--check", required=True,
                   choices=["t1", "t2", "t4", "t5", "t6", "ascent"])
    _add_common(p)
    p.set_defaults(func=cmd_theory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _count(args.seed, "--seed", 0)
        report, code = args.func(args)
        text = json.dumps(report, indent=2, sort_keys=True)
        # the file first: a reader that closes stdout early must not lose it
        if args.out_json:
            with _open_output(args.out_json) as fh:
                fh.write(text + "\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); point stdout at devnull so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
