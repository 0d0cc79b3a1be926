"""Command line interface: dataset I/O and experiment orchestration.

Subcommands cover the full pipeline: `gen` writes synthetic datasets, `denoise`
shifts a CSV of points, `cluster-eval` scores clustering before/after
denoising, `twosample` runs the power-curve harnesses, `anomaly` ranks points
by shift path length, and `theory` runs the Monte Carlo property checks and
fails (exit 3) on violations.  Every run prints a JSON report that embeds its
configuration and the package version; reruns with the same inputs and seed
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__


class CliError(Exception):
    """User-facing command failure with an exit code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# CSV plumbing


def _read_csv(path):
    """Parse a numeric CSV; returns (array, header-or-None).

    Comma separated, UTF-8, optional single header row detected by a
    non-numeric first row.  Malformed cells are reported with their line and
    column; non-finite values are rejected.
    """
    import csv

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
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


def _write_csv(path, arr, header=None):
    arr = np.atleast_2d(arr)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in arr:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


# ---------------------------------------------------------------------------
# Reference datasets

_DATASETS = {
    # name: (rows, feature columns, default cluster count, published bandwidth)
    "olive": (572, 8, 7, 0.587),
    "banknote": (1372, 4, 5, 0.453),
    "seeds": (210, 7, 3, 0.613),
}


def load_dataset(name, path, standardize=True, with_labels=False):
    """Load one of the reference CSV datasets with a strict shape check.

    Expected shapes: olive 572x8, banknote 1372x4, seeds 210x7.  A single
    extra trailing column is treated as the class label and split off.
    Features are standardized (per-coordinate zero mean, unit sample sd) by
    default; the published bandwidths assume standardized coordinates.
    """
    if name not in _DATASETS:
        raise CliError(f"unknown dataset {name!r}; choose from {sorted(_DATASETS)}")
    n_exp, d_exp, _, _ = _DATASETS[name]
    arr, _ = _read_csv(path)
    labels = None
    if arr.shape == (n_exp, d_exp + 1):
        labels = arr[:, -1].astype(np.int64)
        arr = arr[:, :d_exp]
    elif arr.shape != (n_exp, d_exp):
        raise CliError(
            f"{path}: {name} should be {n_exp}x{d_exp} (optionally +1 label "
            f"column), found {arr.shape[0]}x{arr.shape[1]}")
    if standardize:
        from .density import standardize as _standardize

        cloud, _ = _standardize(arr)
    else:
        from .density import PointCloud

        cloud = PointCloud(arr)
    return (cloud, labels) if with_labels else cloud


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
    return value


def _config_echo(args):
    skip = {"func"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _report(args, **payload):
    out = {"command": args.command, "version": __version__,
           "config": _config_echo(args)}
    out.update(_jsonable(payload))
    return out


def _print_report(report, path=None):
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _resolve_bandwidth(spec, points):
    from .density import select_bandwidth_scv

    if spec == "scv":
        return float(select_bandwidth_scv(points))
    try:
        h = float(spec)
    except ValueError:
        raise CliError(f"--h must be a positive number or 'scv', got {spec!r}")
    if not h > 0.0:
        raise CliError(f"--h must be positive, got {h}")
    return h


# ---------------------------------------------------------------------------
# Synthetic cases (bullseye/spiral structures plus uniform background noise)

_CASES = {
    "bullseye1": ("bullseye", 500, 100, 6.5),
    "bullseye2": ("bullseye", 500, 150, 6.5),
    "bullseye3": ("bullseye", 500, 300, 6.5),
    "spiral4": ("spiral", 300, 20, 0.8),
    "spiral5": ("spiral", 300, 50, 0.8),
    "spiral6": ("spiral", 300, 100, 0.8),
}

# Spectral graph settings per case family: (knn, affinity_sigma).  The graph
# scale has to track the data scale: the bullseye spans a 13-unit box where a
# unit-sigma dense affinity separates ring from eye, while the spiral lives in
# a 1.6-unit box and needs a sparse neighbor graph so the cut follows the
# arms.  Explicit --knn/--sigma flags override these.
_CASE_SPECTRAL = {
    "bullseye": (None, 1.0),
    "spiral": (10, "auto"),
}


def _generate_case(case, rng):
    from .synthetic import gen_bullseye, gen_spiral, gen_uniform_noise, with_noise

    family, n0, n1, half = _CASES[case]
    if family == "bullseye":
        structure = gen_bullseye(n0, rng_seed=rng)
    else:
        structure = gen_spiral(n0, rng_seed=rng)
    noise = gen_uniform_noise(n1, [-half, -half], [half, half], rng_seed=rng)
    return with_noise(structure, noise)


def _cluster_once(points, algo, k, seed, knn, sigma="auto"):
    from . import clustering

    if algo == "kmeans":
        return clustering.kmeans(points, k, rng_seed=seed)
    if algo == "spectral":
        return clustering.spectral(points, k, affinity_sigma=sigma, knn=knn,
                                   rng_seed=seed)
    if algo == "hier":
        return clustering.hierarchical(points, k)
    raise CliError(f"unknown algorithm {algo!r}")


def run_clustering_case(case, algo="spectral", k=2, n_reps=50, rng_seed=0,
                        msd=True, knn=None, affinity_sigma=None,
                        bandwidth="scv"):
    """Before/after-denoising ARI over replicates of one synthetic case.

    Each replicate draws a fresh structure+noise dataset, clusters it, then
    denoises (one sweep, bandwidth as given) and clusters again.  ARI is
    scored on the structure points only, since background noise has no true
    cluster.  Spectral graph settings default per case family; the same
    settings apply before and after so the comparison is like for like.
    Returns per-replicate scores plus summary statistics.
    """
    from .clustering import ari
    from .density import fit
    from .shift import ShiftOperator
    from .synthetic import _rng

    if case not in _CASES:
        raise CliError(f"unknown case {case!r}; choose from {sorted(_CASES)}")
    if n_reps < 1:
        raise CliError("--reps must be >= 1")
    knn_default, sigma_default = _CASE_SPECTRAL[_CASES[case][0]]
    if knn is None:
        knn = knn_default
    elif knn <= 0:
        knn = None
    sigma = sigma_default if affinity_sigma is None else affinity_sigma
    before = np.empty(n_reps)
    after = np.empty(n_reps) if msd else None
    for rep in range(n_reps):
        rng = _rng(rng_seed, rep)
        labeled = _generate_case(case, rng)
        pts = labeled.cloud.points
        truth = labeled.labels
        structure = truth < truth.max()  # noise carries the highest label
        cluster_seed = int(rng.integers(2**62))
        got = _cluster_once(pts, algo, k, cluster_seed, knn, sigma)
        before[rep] = ari(got.labels[structure], truth[structure])
        if msd:
            h = _resolve_bandwidth(bandwidth, pts)
            moved = ShiftOperator(fit(pts, h)).step(pts)
            got2 = _cluster_once(moved, algo, k, cluster_seed, knn, sigma)
            after[rep] = ari(got2.labels[structure], truth[structure])
    return _summarize_ari(case, algo, k, n_reps, before, after)


def _summarize_ari(name, algo, k, n_reps, before, after):
    def sd(v):
        return float(v.std(ddof=1)) if v.size > 1 else 0.0

    out = {
        "scenario": name,
        "algo": algo,
        "k": k,
        "n_reps": n_reps,
        "ari_before_mean": float(before.mean()),
        "ari_before_sd": sd(before),
        "ari_before": before.tolist(),
    }
    if after is not None:
        out.update({
            "ari_after_mean": float(after.mean()),
            "ari_after_sd": sd(after),
            "ari_after": after.tolist(),
            "gap": float(after.mean() - before.mean()),
        })
    return out


def run_dataset_eval(name, path, algo="spectral", k=None, n_reps=10, rng_seed=0,
                     msd=True, bandwidth=None):
    """Before/after-denoising ARI on a reference dataset with known labels.

    The data is fixed, so replicates only vary the clustering seed.  Cluster
    count and bandwidth default to the published per-dataset values.
    """
    from .clustering import ari
    from .density import fit
    from .shift import ShiftOperator
    from .synthetic import _rng

    cloud, labels = load_dataset(name, path, with_labels=True)
    if labels is None:
        raise CliError(f"{path}: dataset file has no label column to score against")
    _, _, k_default, h_default = _DATASETS[name]
    k = k_default if k is None else int(k)
    pts = cloud.points
    if msd:
        h = h_default if bandwidth is None else _resolve_bandwidth(bandwidth, pts)
        moved = ShiftOperator(fit(pts, h)).step(pts)
    before = np.empty(n_reps)
    after = np.empty(n_reps) if msd else None
    for rep in range(n_reps):
        seed = int(_rng(rng_seed, rep).integers(2**62))
        before[rep] = ari(_cluster_once(pts, algo, k, seed, None).labels, labels)
        if msd:
            after[rep] = ari(_cluster_once(moved, algo, k, seed, None).labels, labels)
    return _summarize_ari(name, algo, k, n_reps, before, after)


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args):
    from .synthetic import (
        _rng,
        default_anomaly_scenario,
        gen_bullseye,
        gen_gmm_1d,
        gen_spiral,
    )

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
    from .density import fit
    from .shift import ShiftOperator, denoise

    if args.sweeps < 1:
        raise CliError("--sweeps must be >= 1")
    arr, header = _read_csv(args.input)
    h = _resolve_bandwidth(args.h, arr)
    model = fit(arr, h)
    op = ShiftOperator(model)
    mean_before = float(model.density_at(arr).mean())
    moved = denoise(arr, op, sweeps=args.sweeps).points
    mean_after = float(model.density_at(moved).mean())
    _write_csv(args.output, moved, header)
    report = _report(args, bandwidth=h, rows=int(arr.shape[0]),
                     dim=int(arr.shape[1]), kde_mean_before=mean_before,
                     kde_mean_after=mean_after, output=args.output)
    return report, 0


def cmd_cluster_eval(args):
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    if args.dataset:
        if not args.input:
            raise CliError("--dataset requires --input pointing at the CSV file")
        payload = run_dataset_eval(args.dataset, args.input, algo=args.algo,
                                   k=args.k, n_reps=args.reps, rng_seed=args.seed,
                                   msd=args.msd, bandwidth=args.h)
    elif args.case:
        k = 2 if args.k is None else args.k
        sigma = None
        if args.sigma is not None and args.sigma != "auto":
            try:
                sigma = float(args.sigma)
            except ValueError:
                raise CliError(f"--sigma must be a number or 'auto', got {args.sigma!r}")
        elif args.sigma == "auto":
            sigma = "auto"
        payload = run_clustering_case(args.case, algo=args.algo, k=k,
                                      n_reps=args.reps, rng_seed=args.seed,
                                      msd=args.msd, knn=args.knn,
                                      affinity_sigma=sigma,
                                      bandwidth=args.h or "scv")
    else:
        raise CliError("pick a --case or a --dataset to evaluate")
    report = _report(args, **payload)
    return report, 0


def cmd_twosample(args):
    from .twosample import (
        power_experiment_mixture_proportion,
        power_experiment_uniform_noise,
    )

    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    common = dict(n0=args.n0, n_reps=args.reps, alpha=args.alpha, msd=args.msd,
                  rng_seed=args.seed, test=args.test, n_perm=args.n_perm)
    if args.scenario == "noise":
        grid = ([int(v) for v in args.grid.split(",")] if args.grid
                else (0, 100, 200, 300, 400, 500))
        curve = power_experiment_uniform_noise(noise_grid=grid, **common)
    else:
        grid = ([float(v) for v in args.grid.split(",")] if args.grid
                else (0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2))
        curve = power_experiment_mixture_proportion(pi_grid=grid, **common)
    if args.out_csv:
        curve.to_csv(args.out_csv)
    report = _report(args, **curve.to_dict())
    return report, 0


def cmd_anomaly(args):
    from .anomaly import anomaly_scores, top_k
    from .density import fit

    planted = None
    if args.input:
        arr, _ = _read_csv(args.input)
    else:
        from .synthetic import default_anomaly_scenario

        scenario = default_anomaly_scenario(rng_seed=args.seed)
        arr = scenario.cloud.points
        planted = np.flatnonzero(scenario.labels == scenario.labels.max())
    h = _resolve_bandwidth(args.h, arr)
    model = fit(arr, h)
    report_obj = anomaly_scores(arr, model, max_iter=args.max_iter,
                                keep_traces=args.traces_out is not None)
    if args.k > len(report_obj):
        raise CliError(f"--k must be <= {len(report_obj)}")
    top = top_k(report_obj, args.k)
    payload = {
        "bandwidth": h,
        "rows": int(arr.shape[0]),
        "top_k": top.tolist(),
        "top_k_scores": report_obj.scores[top].tolist(),
        "n_nonconverged": int((~report_obj.converged).sum()),
    }
    if planted is not None:
        recovered = sorted(set(top.tolist()) & set(planted.tolist()))
        payload.update(planted_indices=planted.tolist(), recovered=recovered,
                       n_recovered=len(recovered))
    if args.traces_out:
        report_obj.traces_to_csv(args.traces_out)
        payload["traces_out"] = args.traces_out
    report = _report(args, **payload)
    return report, 0


def _theory_payload(check, seed):
    import msdenoise.theory_lab as lab

    from .synthetic import _rng

    if check == "ascent":
        # many small random models, 10k (model, probe) pairs in total
        from .density import fit as fit_model

        rng = _rng(seed)
        total = 0
        violations = 0
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(50, 400))
            h = float(rng.uniform(0.2, 1.5))
            model = fit_model(rng.normal(size=(n, d)), h)
            probes = rng.normal(scale=2.0, size=(500, d))
            violations += lab.monotone_ascent_audit(model, probes)
            total += 500
        return {"checks": {"no_violations": violations == 0},
                "violations": violations, "evaluations": total}

    gmm = lab.gmm_density()
    if check == "t1":
        spec = lab.gmm_level_spec(gmm)
        rep = lab.mass_increase_curve(gmm, spec, [0.05, 0.1, 0.2, 0.4],
                                      n_mc=200000, rng_seed=seed)
        checks = {"no_violations": not rep.violations,
                  "slope_in_band": 1.7 <= rep.slope <= 2.3,
                  "mc_resolved": bool(rep.extras["mc_ok"])}
        return {"checks": checks, "report": rep.to_dict()}
    if check == "t2":
        nrm = lab.standard_normal_density()
        mode = lab.mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4], 0.05,
                                            n_mc=200000, rng_seed=seed)
        valley = lab.mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.15, 0.2],
                                              0.05, n_mc=400000, rng_seed=seed,
                                              kind="minimum")
        checks = {"mode_slope_in_band": 1.6 <= mode.slope <= 2.4,
                  "valley_ratio_below_one": bool(np.all(valley.values > 0.0)),
                  "no_violations": not (mode.violations or valley.violations)}
        return {"checks": checks, "mode": mode.to_dict(), "valley": valley.to_dict()}
    if check == "t4":
        spec = lab.gmm_level_spec(gmm)
        rep = lab.empirical_population_gap(gmm, spec, [200, 800, 3200], h=0.3,
                                           n_reps=20, rng_seed=seed)
        checks = {"slope_in_band": -0.75 <= rep.slope <= -0.25}
        return {"checks": checks, "report": rep.to_dict()}
    if check == "t5":
        rep = lab.multi_sweep_mode_growth(gmm, n_data=1000, h=0.25, sweeps=5,
                                          n_mc=200000, rng_seed=seed)
        checks = {"strictly_increasing_and_positive_rate":
                  not rep.extras["violations"]}
        return {"checks": checks, "report": rep.to_dict()}
    if check == "t6":
        spec = lab.gmm_level_spec(gmm)
        scale_fam = lab.level_scale_family(gmm)
        tilt_fam = lab.mixture_tilt_family()
        deltas = [0.02, 0.04, 0.08, 0.16]
        dens = lab.perturbation_response(tilt_fam, deltas, tau=0.3, probe=spec,
                                         n_mc=200000, rng_seed=seed)
        scale0 = lab.perturbation_response(scale_fam, deltas, tau=0.3, probe=spec,
                                           n_mc=50000, rng_seed=seed)
        step = lab.perturbation_response(scale_fam, deltas, tau=0.3, probe=spec,
                                         n_mc=200000, rng_seed=seed,
                                         situation="step")
        samp = lab.perturbation_response(
            scale_fam, deltas, tau=0.3, probe=spec, n_mc=200000, rng_seed=seed,
            situation="sampling",
            contaminant_sampler=lambda rng, n: rng.uniform(-3.0, 8.0, (n, 1)))
        checks = {
            "level_scaling_invariant": bool(np.all(scale0.values == 0.0)),
            "density_slope_in_band": 0.7 <= dens.slope <= 1.3,
            "step_slope_in_band": 0.7 <= step.slope <= 1.3,
            "sampling_slope_in_band": 0.8 <= samp.slope <= 1.2,
        }
        return {"checks": checks, "density": dens.to_dict(),
                "level_scale": scale0.to_dict(), "step": step.to_dict(),
                "sampling": samp.to_dict()}
    raise CliError(f"unknown check {check!r}")


def cmd_theory(args):
    payload = _theory_payload(args.check, args.seed)
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
        report, code = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report, getattr(args, "out_json", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
