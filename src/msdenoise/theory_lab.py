"""Monte Carlo verification of the operator's concentration properties.

Population shift operators are claimed to (a) never decrease level-set mass,
with an O(h^2) increase, (b) raise density at modes and lower it at local
minima by Theta(h^2), (c) track their population counterparts at the usual
O_P(n^-1/2) sampling rate, (d) compound geometrically over repeated sweeps,
and (e) respond linearly to small perturbations of the density, the step
scale, or the sampling distribution.  Each check here turns one of those
statements into a seeded, deterministic measurement with explicit Monte
Carlo error accounting, against 1-D reference densities whose modes, level
sets and curvature constants are known analytically.

Replicates derive their generators from the master seed through
``numpy.random.SeedSequence`` entropy lists (master, index...), so reports
are reproducible and replicate order never matters.

The lab runs on numpy alone.  The critical points, curvature constant and
level-set boundaries of the reference mixture are scalar roots, found by
bisecting every sign-change bracket on a fixed grid at once
(`_bracketed_roots`), so no check imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .density import DensityModel, _as_cloud, density_at, fit
from .shift import (
    AnalyticDensity,
    ShiftOperator,
    empirical_step_weighted_mean,
    shift_until_converged,
)
from .synthetic import _rng, gen_gmm_1d

__all__ = [
    "LevelSetSpec",
    "ScalingReport",
    "PerturbationFamily",
    "standard_normal_density",
    "gmm_density",
    "gmm_level_spec",
    "level_scale_family",
    "mixture_tilt_family",
    "level_set_mass",
    "mass_increase_curve",
    "geometric_density_at",
    "mode_density_ratio_curve",
    "empirical_population_gap",
    "perturbation_response",
    "monotone_ascent_audit",
    "multi_sweep_mode_growth",
    "run_check",
]


# ---------------------------------------------------------------------------
# report and spec types


@dataclass(frozen=True)
class LevelSetSpec:
    """An upper level set {x : f(x) >= level} with optional 1-D diagnostics.

    `boundary_points` holds the analytic boundary (one row per point for 1-D
    references) and `gradient_floor` the minimum |f'| over that boundary;
    both feed the explicit lower-bound reporting of `mass_increase_curve`.
    """

    density: Callable[[np.ndarray], np.ndarray]
    level: float
    boundary_points: Optional[np.ndarray] = None
    gradient_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.level) and self.level > 0.0):
            raise ValueError(f"level must be a positive real, got {self.level!r}")
        if self.boundary_points is not None:
            b = np.atleast_2d(np.asarray(self.boundary_points, dtype=float))
            b.setflags(write=False)
            object.__setattr__(self, "boundary_points", b)
            # membership must be consistent with f at the boundary itself
            vals = np.asarray(self.density(b), dtype=float)
            if not np.allclose(vals, self.level, rtol=1e-6, atol=1e-9):
                raise ValueError("boundary points are not on the stated level")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.density(pts), dtype=float) >= self.level


@dataclass(frozen=True)
class ScalingReport:
    """A measured quantity over a strictly increasing parameter grid.

    `slope` is the ordinary-least-squares slope of log(value) against
    log(grid) (or against the raw grid for the sweep-growth check, noted in
    `extras['fit']`), with a confidence half-width of two residual standard
    errors.  `extras` carries per-check diagnostics: Monte Carlo standard
    errors, violation flags, explicit bound comparisons.
    """

    name: str
    grid: np.ndarray
    values: np.ndarray
    slope: float
    slope_halfwidth: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float).copy()
        v = np.asarray(self.values, dtype=float).copy()
        if g.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if g.shape[0] < 2 or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing with at least 2 entries")
        if not math.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def violations(self) -> list:
        return list(self.extras.get("violations", []))


def _fit_loglog(grid: np.ndarray, values: np.ndarray) -> tuple[float, float, int]:
    """OLS slope of log values vs log grid over the positive pairs."""
    mask = (grid > 0.0) & (values > 0.0)
    k = int(mask.sum())
    if k < 2:
        return 0.0, math.inf, k
    x = np.log(grid[mask])
    y = np.log(values[mask])
    return _ols_slope(x, y) + (k,)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y) / sxx)
    resid = y - y.mean() - slope * xc
    dof = x.size - 2
    if dof <= 0:
        return slope, math.inf
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return slope, 2.0 * se


def _require_sampler(density: AnalyticDensity) -> Callable:
    if density.sampler is None:
        raise ValueError("this check draws Monte Carlo samples; the density needs a sampler")
    return density.sampler


# ---------------------------------------------------------------------------
# reference densities


def standard_normal_density() -> AnalyticDensity:
    """1-D standard normal with analytic gradient and curvature constant."""
    amp = (2.0 * math.pi) ** -0.5

    def dens(q):
        x = np.atleast_2d(q)[:, 0]
        return amp * np.exp(-0.5 * x * x)

    def grad(q):
        x = np.atleast_2d(q)[:, 0]
        return (-x * amp * np.exp(-0.5 * x * x))[:, None]

    def sampler(rng, n):
        return rng.standard_normal((n, 1))

    # |p''| peaks at the origin where p'' = -phi(0)
    return AnalyticDensity(density=dens, gradient=grad, dim=1, modes=[[0.0]],
                           hess_sup=amp, sampler=sampler)


def _bracketed_roots(f, xs, values, xtol: float = 1e-13) -> np.ndarray:
    """Roots of `f` in every sign-change bracket of `values` on the grid `xs`.

    A bracket is a grid step [xs[i], xs[i+1]] with
    sign(values[i]) * sign(values[i+1]) < 0, so a root that falls exactly on
    a grid node is not bracketed.  Bisection runs on all brackets at once,
    `f` mapping a 1-D array of points to their values.  A bracket stops once
    its width is at most `xtol`, its midpoint rounds onto an end, or `f` is
    zero at its midpoint, so the loop always ends.  Returns the final
    midpoints in grid order.
    """
    i = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    a = np.array(xs[i], dtype=float)
    b = np.array(xs[i + 1], dtype=float)
    sign_a = np.sign(values[i])
    while True:
        mid = 0.5 * (a + b)
        live = np.flatnonzero((b - a > xtol) & (mid != a) & (mid != b))
        if live.size == 0:
            return mid
        m = mid[live]
        sign_m = np.sign(f(m))
        # the root lies right of m when f(m) has the sign of f(a), left of it
        # when the sign is opposite; a zero at m collapses the bracket onto m
        a[live] = np.where(sign_m != -sign_a[live], m, a[live])
        b[live] = np.where(sign_m != sign_a[live], m, b[live])


def _phi(x, mu, s):
    return np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def gmm_density(mix: float = 0.7, mu1: float = 0.0, mu2: float = 5.0,
                s1: float = 1.0, s2: float = 1.0) -> AnalyticDensity:
    """Two-component 1-D gaussian mixture with located critical points.

    Modes and the inter-mode minimum are the roots of p' in its sign-change
    brackets on a 4001-point grid over mu -/+ 4 s, found by bisection.  The
    curvature constant sup |p''| is the grid maximum of |p''| or, if larger,
    |p''| at the root of p''' within two grid steps of it.  All are
    deterministic functions of the parameters.
    """
    if not 0.0 < mix < 1.0:
        raise ValueError("mix must be strictly inside (0, 1) for a two-mode fixture")
    w = np.array([mix, 1.0 - mix])
    mu = np.array([mu1, mu2])
    s = np.array([s1, s2])

    def pdf_scalar(x):
        x = np.asarray(x, dtype=float)
        return w[0] * _phi(x, mu[0], s[0]) + w[1] * _phi(x, mu[1], s[1])

    def dpdf_scalar(x):
        x = np.asarray(x, dtype=float)
        return (-w[0] * (x - mu[0]) / s[0] ** 2 * _phi(x, mu[0], s[0])
                - w[1] * (x - mu[1]) / s[1] ** 2 * _phi(x, mu[1], s[1]))

    def d2pdf_scalar(x):
        x = np.asarray(x, dtype=float)
        t1 = w[0] * _phi(x, mu[0], s[0]) * (((x - mu[0]) / s[0] ** 2) ** 2 - 1.0 / s[0] ** 2)
        t2 = w[1] * _phi(x, mu[1], s[1]) * (((x - mu[1]) / s[1] ** 2) ** 2 - 1.0 / s[1] ** 2)
        return t1 + t2

    def d3pdf_scalar(x):
        # for z = (x - mu) / s the third derivative of phi(z) is (3z - z^3) phi(z)
        x = np.asarray(x, dtype=float)
        z1 = (x - mu[0]) / s[0]
        z2 = (x - mu[1]) / s[1]
        return (w[0] * _phi(x, mu[0], s[0]) * (3.0 * z1 - z1 ** 3) / s[0] ** 3
                + w[1] * _phi(x, mu[1], s[1]) * (3.0 * z2 - z2 ** 3) / s[1] ** 3)

    lo = min(mu1 - 4.0 * s1, mu2 - 4.0 * s2)
    hi = max(mu1 + 4.0 * s1, mu2 + 4.0 * s2)
    xs = np.linspace(lo, hi, 4001)
    roots = _bracketed_roots(dpdf_scalar, xs, dpdf_scalar(xs))
    curv_at_roots = d2pdf_scalar(roots)
    modes = roots[curv_at_roots < 0.0]
    minima = roots[curv_at_roots > 0.0]

    curv = np.abs(d2pdf_scalar(xs))
    k = int(np.argmax(curv))
    window = xs[max(k - 2, 0): k + 3]
    peaks = _bracketed_roots(d3pdf_scalar, window, d3pdf_scalar(window))
    hess_sup = float(np.abs(d2pdf_scalar(peaks)).max(initial=curv[k]))

    def dens(q):
        return pdf_scalar(np.atleast_2d(q)[:, 0])

    def grad(q):
        return dpdf_scalar(np.atleast_2d(q)[:, 0])[:, None]

    def sampler(rng, n):
        return gen_gmm_1d(n, mix, mu1, mu2, s1, s2, rng_seed=rng).points

    return AnalyticDensity(density=dens, gradient=grad, dim=1,
                           modes=modes[:, None], minima=minima[:, None],
                           hess_sup=hess_sup, sampler=sampler)


def gmm_level_spec(density: AnalyticDensity, level: Optional[float] = None) -> LevelSetSpec:
    """Level set of a 1-D mixture fixture with analytic boundary diagnostics.

    Default level: half the height of the lower mode, which puts the
    boundary on well-conditioned slopes of both bumps.
    """
    if density.modes is None or density.dim != 1:
        raise ValueError("need a 1-D density with declared modes")
    mode_heights = np.asarray(density.density(density.modes), dtype=float)
    if level is None:
        level = 0.5 * float(mode_heights.min())
    if level >= mode_heights.max():
        raise ValueError("level is above the highest mode; level set empty")

    span = float(density.modes.max() - density.modes.min()) + 1.0
    lo = float(density.modes.min()) - 6.0 * span / 5.0
    hi = float(density.modes.max()) + 6.0 * span / 5.0
    xs = np.linspace(lo, hi, 8001)

    def excess(x):
        return np.asarray(density.density(x[:, None]), dtype=float) - level

    boundary = _bracketed_roots(excess, xs, excess(xs))[:, None]
    slopes = np.abs(np.asarray(density.gradient(boundary), dtype=float)[:, 0])
    return LevelSetSpec(density=density.density, level=float(level),
                        boundary_points=boundary, gradient_floor=float(slopes.min()))


# ---------------------------------------------------------------------------
# level-set mass concentration


def level_set_mass(dist_sample, spec: LevelSetSpec) -> float:
    """Fraction of the sample inside the level set: a plain MC mass estimate."""
    return float(spec.contains(_as_cloud(dist_sample).points).mean())


def _admissible_h_sq(level: float, hess_sup: float, g0: float) -> float:
    return min(3.0 * math.sqrt(2.0) * level / hess_sup,
               math.sqrt(2.0) * level * level / (g0 * g0))


def mass_increase_curve(density: AnalyticDensity, spec: LevelSetSpec, h_grid: Sequence[float],
                        n_mc: int, rng_seed: int = 0) -> ScalingReport:
    """Mass gained by a level set under one population shift, per step scale.

    One common sample feeds every h (paired estimates), so the reported
    differences share their Monte Carlo noise and the log-log slope is
    stable.  Negative mass changes beyond 3 standard errors are flagged in
    ``extras['violations']``.  Two variants of the first-order explicit
    lower bound are reported: ``bound_plain`` (h^2 g0 B / (6 sqrt 2), B =
    boundary point count) and the more aggressive ``bound_over_level`` which
    divides by the level; each gets an `_ok` flag.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if np.any(np.diff(h_grid) <= 0.0) or np.any(h_grid <= 0.0):
        raise ValueError("h_grid must be positive and strictly increasing")
    if density.hess_sup is None or spec.gradient_floor is None:
        raise ValueError("admissibility guard needs hess_sup and gradient_floor")
    h2max = _admissible_h_sq(spec.level, density.hess_sup, spec.gradient_floor)
    if float(h_grid.max()) ** 2 > h2max:
        raise ValueError(
            f"h={h_grid.max():g} outside the admissible range (h^2 <= {h2max:.4g}); "
            "shrink the grid or raise the level"
        )
    sampler = _require_sampler(density)
    rng = _rng(rng_seed)
    x = sampler(rng, int(n_mc))
    inside_before = spec.contains(x).astype(float)

    deltas, ses, violations = [], [], []
    n_boundary = 0 if spec.boundary_points is None else spec.boundary_points.shape[0]
    bound_plain, bound_over_level = [], []
    for h in h_grid:
        op = ShiftOperator(density, tau=float(h))
        inside_after = spec.contains(op.step(x)).astype(float)
        d = inside_after - inside_before
        delta = float(d.mean())
        se = float(d.std(ddof=1) / math.sqrt(d.size))
        deltas.append(delta)
        ses.append(se)
        if delta < -3.0 * se:
            violations.append(f"mass decreased at h={h:g}: delta={delta:.3g}, se={se:.3g}")
        base = h * h * spec.gradient_floor * n_boundary / (6.0 * math.sqrt(2.0))
        bound_plain.append(base)
        bound_over_level.append(base / spec.level)

    deltas = np.array(deltas)
    ses = np.array(ses)
    slope, halfwidth, _ = _fit_loglog(h_grid, deltas)
    extras = {
        "delta_se": ses,
        "violations": violations,
        "mc_ok": bool(np.all(ses < np.maximum(np.abs(deltas), 1e-300) / 5.0)),
        "base_mass": float(inside_before.mean()),
        "bound_plain": np.array(bound_plain),
        "bound_plain_ok": bool(np.all(deltas + 3.0 * ses >= np.array(bound_plain))),
        "bound_over_level": np.array(bound_over_level),
        "bound_over_level_ok": bool(np.all(deltas + 3.0 * ses >= np.array(bound_over_level))),
        "admissible_h_max": math.sqrt(h2max),
    }
    return ScalingReport("level_set_mass_increase", h_grid, deltas, slope, halfwidth, extras)


# ---------------------------------------------------------------------------
# mode / minimum density ratio


def geometric_density_at(sample, x, radius: float) -> float:
    """Ball-count density estimate: points in B(x, radius) over n * ball volume."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    cloud = _as_cloud(sample)
    pts = cloud.points
    xv = np.asarray(x, dtype=float).reshape(1, -1)
    if xv.shape[1] != cloud.dim:
        raise ValueError(f"x dim {xv.shape[1]} does not match sample dim {cloud.dim}")
    d = cloud.dim
    count = int((((pts - xv) ** 2).sum(axis=1) <= radius * radius).sum())
    vball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d
    return count / (cloud.size * vball)


def mode_density_ratio_curve(density: AnalyticDensity, mode, h_grid: Sequence[float],
                             ball_radius: float, n_mc: int, rng_seed: int = 0,
                             kind: str = "mode") -> ScalingReport:
    """Density change at a critical point under one population shift.

    Reports ratio - 1 at a mode (expected positive, Theta(h^2)) or 1 - ratio
    at a local minimum (`kind="minimum"`), estimated by paired ball counts
    on a common sample.  Wrong-signed gaps beyond 3 MC standard errors are
    flagged.
    """
    if kind not in ("mode", "minimum"):
        raise ValueError("kind must be 'mode' or 'minimum'")
    h_grid = np.asarray(h_grid, dtype=float)
    if np.any(np.diff(h_grid) <= 0.0) or np.any(h_grid <= 0.0):
        raise ValueError("h_grid must be positive and strictly increasing")
    m = np.asarray(mode, dtype=float).reshape(1, -1)
    gnorm = float(np.linalg.norm(np.asarray(density.gradient(m), dtype=float)))
    if gnorm >= 1e-8:
        raise ValueError(f"point is not critical: |grad f| = {gnorm:.3g}")
    fm = float(np.asarray(density.density(m), dtype=float)[0])
    if density.hess_sup is None:
        raise ValueError("admissibility guard needs hess_sup")
    if float(h_grid.max()) ** 2 >= fm / density.hess_sup:
        raise ValueError(
            f"h={h_grid.max():g} outside the admissible range "
            f"(h^2 < {fm / density.hess_sup:.4g})"
        )
    sampler = _require_sampler(density)
    rng = _rng(rng_seed)
    x = sampler(rng, int(n_mc))
    in_before = (((x - m) ** 2).sum(axis=1) <= ball_radius**2).astype(float)
    count_before = float(in_before.sum())
    if count_before == 0:
        raise ValueError("no sample mass in the reference ball; enlarge radius or n_mc")

    gaps, ses, violations = [], [], []
    for h in h_grid:
        op = ShiftOperator(density, tau=float(h))
        y = op.step(x)
        in_after = (((y - m) ** 2).sum(axis=1) <= ball_radius**2).astype(float)
        d = in_after - in_before
        ratio = float(in_after.sum() / count_before)
        se = float(math.sqrt(float((d * d).sum())) / count_before)
        gap = ratio - 1.0 if kind == "mode" else 1.0 - ratio
        gaps.append(gap)
        ses.append(se)
        if gap < -3.0 * se:
            side = "ratio <= 1 at mode" if kind == "mode" else "ratio >= 1 at minimum"
            violations.append(f"{side} at h={h:g}: gap={gap:.3g}, se={se:.3g}")

    gaps = np.array(gaps)
    slope, halfwidth, _ = _fit_loglog(h_grid, gaps)
    extras = {
        "gap_se": np.array(ses),
        "violations": violations,
        "kind": kind,
        "critical_point": m[0],
        "ball_radius": float(ball_radius),
        "density_at_point": fm,
    }
    return ScalingReport(f"{kind}_density_ratio", h_grid, gaps, slope, halfwidth, extras)


# ---------------------------------------------------------------------------
# empirical operator vs its population limit


def empirical_population_gap(density: AnalyticDensity, probe_set: LevelSetSpec,
                             n_grid: Sequence[int], h: float, n_reps: int,
                             rng_seed: int = 0, n_pop: int = 20000) -> ScalingReport:
    """Sampling gap of the fitted operator on a probe set, per sample size.

    For each n: fit the operator on an n-sample, shift that same sample (the
    plug-in estimate) and a large fresh sample from the true density (its
    population counterpart), and record |difference| of the probe-set
    masses.  Values are means over replicates; the expected trend slope in
    log n is -1/2.
    """
    n_grid = np.asarray(n_grid, dtype=int)
    if np.any(np.diff(n_grid) <= 0) or np.any(n_grid < 100):
        raise ValueError("n_grid must be strictly increasing with all n >= 100")
    if n_reps < 2:
        raise ValueError(f"n_reps must be >= 2 for a standard error, got {n_reps}")
    sampler = _require_sampler(density)
    means, ses = [], []
    for i, n in enumerate(n_grid):
        gaps = np.empty(n_reps)
        for rep in range(n_reps):
            rng = _rng(rng_seed, i, rep)
            data = sampler(rng, int(n))
            op = ShiftOperator(fit(data, h))
            q_hat = float(probe_set.contains(op.step(data)).mean())
            pop = sampler(rng, int(n_pop))
            q_bar = float(probe_set.contains(op.step(pop)).mean())
            gaps[rep] = abs(q_hat - q_bar)
        means.append(float(gaps.mean()))
        ses.append(float(gaps.std(ddof=1) / math.sqrt(n_reps)))
    values = np.array(means)
    slope, halfwidth, _ = _fit_loglog(n_grid.astype(float), values)
    extras = {"gap_se": np.array(ses), "h": float(h), "n_pop": int(n_pop),
              "n_reps": int(n_reps), "trend_decreasing": bool(np.all(np.diff(values) < 0.0))}
    return ScalingReport("empirical_population_gap", n_grid.astype(float), values,
                         slope, halfwidth, extras)


# ---------------------------------------------------------------------------
# perturbation response


@dataclass(frozen=True)
class PerturbationFamily:
    """A path of densities f_delta leaving f_0 = base, with exact size measure.

    `delta1` maps the raw parameter to the sup-norm perturbation size
    (|f_d - f|_inf + |f_d' - f'|_inf), the scale the linear-response rates
    are stated in.
    """

    name: str
    base: AnalyticDensity
    perturbed: Callable[[float], AnalyticDensity]
    delta1: Callable[[float], float]


def _sup_norms(density: AnalyticDensity, lo: float, hi: float) -> tuple[float, float]:
    xs = np.linspace(lo, hi, 20001)[:, None]
    f = np.asarray(density.density(xs), dtype=float)
    g = np.linalg.norm(np.asarray(density.gradient(xs), dtype=float), axis=1)
    return float(f.max()), float(g.max())


def level_scale_family(base: AnalyticDensity) -> PerturbationFamily:
    """f_delta = (1 + delta) f.  The shift map is exactly invariant under this
    scaling (the gradient-to-density ratio cancels the factor), so the
    measured response is identically zero; the family exists to pin that
    down.  The sup norms behind delta1 are taken on [-10, 10]."""
    f_sup, g_sup = _sup_norms(base, -10.0, 10.0)

    def perturbed(delta: float) -> AnalyticDensity:
        scale = 1.0 + delta

        def dens(q):
            return scale * np.asarray(base.density(q), dtype=float)

        def grad(q):
            return scale * np.asarray(base.gradient(q), dtype=float)

        return AnalyticDensity(density=dens, gradient=grad, dim=base.dim)

    return PerturbationFamily("level_scale", base, perturbed,
                              delta1=lambda d: abs(d) * (f_sup + g_sup))


def mixture_tilt_family(mix: float = 0.7, mu1: float = 0.0, mu2: float = 5.0,
                        s1: float = 1.0, s2: float = 1.0) -> PerturbationFamily:
    """Reweight the two mixture components: mix -> mix - delta.

    This moves mass between the bumps, genuinely changing the shift field;
    the response on a level set should scale linearly in the perturbation
    size.
    """
    base = gmm_density(mix, mu1, mu2, s1, s2)
    lo = min(mu1, mu2) - 8.0
    hi = max(mu1, mu2) + 8.0
    xs = np.linspace(lo, hi, 20001)
    df = np.abs(_phi(xs, mu2, s2) - _phi(xs, mu1, s1))
    dg = np.abs(-(xs - mu2) / s2**2 * _phi(xs, mu2, s2) + (xs - mu1) / s1**2 * _phi(xs, mu1, s1))
    unit = float(df.max()) + float(dg.max())

    def perturbed(delta: float) -> AnalyticDensity:
        if not 0.0 < mix - delta < 1.0:
            raise ValueError("tilt takes the mixing weight outside (0, 1)")
        return gmm_density(mix - delta, mu1, mu2, s1, s2)

    return PerturbationFamily("mixture_tilt", base, perturbed,
                              delta1=lambda d: abs(d) * unit)


def perturbation_response(family: PerturbationFamily, deltas: Sequence[float], tau: float,
                          probe: LevelSetSpec, n_mc: int, rng_seed: int = 0,
                          situation: str = "density",
                          contaminant_sampler: Optional[Callable] = None) -> ScalingReport:
    """Linear response of the shifted mass to small perturbations.

    Three situations share one harness, each measuring
    |perturbed mass - base mass| of the probe set after one shift:

    - ``density``: perturb f along `family` (grid = exact perturbation size),
    - ``step``: perturb the step scale, tau -> tau + delta (grid = |delta|),
    - ``sampling``: contaminate the sampling distribution with a delta-mixture
      from `contaminant_sampler` (grid = delta).

    A common base sample is reused across the grid so the differences are
    paired.
    """
    deltas = np.asarray(deltas, dtype=float)
    if np.any(np.diff(deltas) <= 0.0) or np.any(deltas < 0.0):
        raise ValueError("deltas must be nonnegative and strictly increasing")
    if situation not in ("density", "step", "sampling"):
        raise ValueError("situation must be one of density, step, sampling")
    sampler = _require_sampler(family.base)
    rng = _rng(rng_seed)
    x = sampler(rng, int(n_mc))
    base_op = ShiftOperator(family.base, tau=tau)
    base_mass = float(probe.contains(base_op.step(x)).mean())

    values = np.empty(deltas.size)
    grid = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        if situation == "density":
            op = ShiftOperator(family.perturbed(float(d)), tau=tau)
            mass = float(probe.contains(op.step(x)).mean())
            grid[i] = family.delta1(float(d))
        elif situation == "step":
            if d == 0.0:
                values[i] = 0.0
                grid[i] = 0.0
                continue
            op = ShiftOperator(family.base, tau=tau + float(d))
            mass = float(probe.contains(op.step(x)).mean())
            grid[i] = float(d)
        else:
            if contaminant_sampler is None:
                raise ValueError("situation='sampling' needs a contaminant_sampler")
            pick = _rng(rng_seed, 1, i).random(int(n_mc)) < d
            xi = x.copy()
            n_cont = int(pick.sum())
            if n_cont:
                xi[pick] = contaminant_sampler(_rng(rng_seed, 2, i), n_cont)
            mass = float(probe.contains(base_op.step(xi)).mean())
            grid[i] = float(d)
        values[i] = abs(mass - base_mass)

    if np.any(np.diff(grid) <= 0.0):
        # a degenerate family (zero perturbation size) cannot index a curve
        grid = deltas
    slope, halfwidth, npts = _fit_loglog(grid, values)
    extras = {"situation": situation, "tau": float(tau), "base_mass": base_mass,
              "fit_points": npts, "raw_deltas": deltas, "family": family.name}
    return ScalingReport(f"perturbation_response_{situation}", grid, values,
                         slope, halfwidth, extras)


# ---------------------------------------------------------------------------
# pointwise ascent audit and repeated sweeps


def monotone_ascent_audit(model: DensityModel, probes) -> int:
    """Count probes whose estimated density drops (beyond 1e-12) after one
    weighted-mean step.  The contract is zero."""
    pts = _as_cloud(probes).points
    stepped = empirical_step_weighted_mean(model, pts)
    before = density_at(model, pts)
    after = density_at(model, stepped)
    return int(np.sum(after <= before - 1e-12))


def multi_sweep_mode_growth(density: AnalyticDensity, n_data: int = 1000, h: float = 0.25,
                            sweeps: int = 5, n_mc: int = 200000, rng_seed: int = 0,
                            ball_radius: Optional[float] = None) -> ScalingReport:
    """Ball density at the operator's mode after N fixed-operator sweeps.

    Fits the operator on a data sample, locates its mode by converging from
    the declared population mode, then pushes a large population sample
    through N = 0..sweeps sweeps, recording the ball-count density at that
    mode each time.  The claimed compounding gives strictly increasing
    values with per-sweep geometric growth of at least (1 + c1 h^2) over the
    true mode density; `extras['c1_fit']` reports the fitted c1.  The slope
    is per-sweep log growth (semi-log fit, `extras['fit'] = 'semilog'`).
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if density.modes is None:
        raise ValueError("density must declare at least one mode")
    if density.hess_sup is None:
        raise ValueError("admissibility guard needs hess_sup")
    sampler = _require_sampler(density)
    if ball_radius is None:
        ball_radius = 0.5 * h
    rng = _rng(rng_seed)
    data = sampler(rng, int(n_data))
    model = fit(data, h)
    heights = np.asarray(density.density(density.modes), dtype=float)
    start = density.modes[int(np.argmax(heights))]
    trace = shift_until_converged(ShiftOperator(model), start)
    mode_hat = trace.end
    p_mode = float(np.asarray(density.density(mode_hat[None, :]), dtype=float)[0])

    if float(h) ** 2 >= p_mode / density.hess_sup:
        raise ValueError("h outside the admissible range at the mode")

    op = ShiftOperator(model, tau=h)
    cur = sampler(rng, int(n_mc))
    dens_per_sweep = [geometric_density_at(cur, mode_hat, ball_radius)]
    for _ in range(int(sweeps)):
        cur = op.step(cur)
        dens_per_sweep.append(geometric_density_at(cur, mode_hat, ball_radius))
    values = np.array(dens_per_sweep)
    grid = np.arange(sweeps + 1, dtype=float)

    slope, halfwidth = _ols_slope(grid, np.log(np.maximum(values, 1e-300)))
    growth = values[1:] / p_mode
    with np.errstate(invalid="ignore"):
        c1_candidates = (growth ** (1.0 / np.arange(1, sweeps + 1)) - 1.0) / (h * h)
    c1_fit = float(np.min(c1_candidates))
    violations = []
    if not np.all(np.diff(values) > 0.0):
        violations.append("ball density not strictly increasing across sweeps")
    if c1_fit <= 0.0:
        violations.append(f"no positive geometric growth constant (c1_fit={c1_fit:.3g})")
    extras = {
        "fit": "semilog",
        "mode_hat": mode_hat,
        "mode_converged": bool(trace.converged),
        "true_density_at_mode": p_mode,
        "c1_fit": c1_fit,
        "h": float(h),
        "ball_radius": float(ball_radius),
        "violations": violations,
    }
    return ScalingReport("multi_sweep_mode_growth", grid, values, slope, halfwidth, extras)


# ---------------------------------------------------------------------------
# the named checks, with their acceptance bands


def run_check(check: str, seed: int) -> dict:
    """Run check t1, t2, t4, t5, t6 or ascent at its fixed Monte Carlo budget.

    Returns a dict whose ``checks`` maps each acceptance band to whether it
    held, plus the reports it was judged on.
    """
    if check == "ascent":
        rng = _rng(seed)
        total = 0
        violations = 0
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(50, 400))
            h = float(rng.uniform(0.2, 1.5))
            model = fit(rng.normal(size=(n, d)), h)
            probes = rng.normal(scale=2.0, size=(500, d))
            violations += monotone_ascent_audit(model, probes)
            total += 500
        return {"checks": {"no_violations": violations == 0},
                "violations": violations, "evaluations": total}

    gmm = gmm_density()
    if check == "t1":
        spec = gmm_level_spec(gmm)
        rep = mass_increase_curve(gmm, spec, [0.05, 0.1, 0.2, 0.4],
                                  n_mc=200000, rng_seed=seed)
        checks = {"no_violations": not rep.violations,
                  "slope_in_band": 1.7 <= rep.slope <= 2.3,
                  "mc_resolved": bool(rep.extras["mc_ok"])}
        return {"checks": checks, "report": rep}
    if check == "t2":
        nrm = standard_normal_density()
        mode = mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4], 0.05,
                                        n_mc=200000, rng_seed=seed)
        valley = mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.15, 0.2],
                                          0.05, n_mc=400000, rng_seed=seed,
                                          kind="minimum")
        checks = {"mode_slope_in_band": 1.6 <= mode.slope <= 2.4,
                  "valley_ratio_below_one": bool(np.all(valley.values > 0.0)),
                  "no_violations": not (mode.violations or valley.violations)}
        return {"checks": checks, "mode": mode, "valley": valley}
    if check == "t4":
        spec = gmm_level_spec(gmm)
        rep = empirical_population_gap(gmm, spec, [200, 800, 3200], h=0.3,
                                       n_reps=20, rng_seed=seed)
        checks = {"slope_in_band": -0.75 <= rep.slope <= -0.25}
        return {"checks": checks, "report": rep}
    if check == "t5":
        rep = multi_sweep_mode_growth(gmm, n_data=1000, h=0.25, sweeps=5,
                                      n_mc=200000, rng_seed=seed)
        checks = {"strictly_increasing_and_positive_rate":
                  not rep.extras["violations"]}
        return {"checks": checks, "report": rep}
    if check == "t6":
        spec = gmm_level_spec(gmm)
        scale_fam = level_scale_family(gmm)
        tilt_fam = mixture_tilt_family()
        deltas = [0.02, 0.04, 0.08, 0.16]
        dens = perturbation_response(tilt_fam, deltas, tau=0.3, probe=spec,
                                     n_mc=200000, rng_seed=seed)
        scale0 = perturbation_response(scale_fam, deltas, tau=0.3, probe=spec,
                                       n_mc=50000, rng_seed=seed)
        step = perturbation_response(scale_fam, deltas, tau=0.3, probe=spec,
                                     n_mc=200000, rng_seed=seed, situation="step")
        samp = perturbation_response(
            scale_fam, deltas, tau=0.3, probe=spec, n_mc=200000, rng_seed=seed,
            situation="sampling",
            contaminant_sampler=lambda rng, n: rng.uniform(-3.0, 8.0, (n, 1)))
        checks = {
            "level_scaling_invariant": bool(np.all(scale0.values == 0.0)),
            "density_slope_in_band": 0.7 <= dens.slope <= 1.3,
            "step_slope_in_band": 0.7 <= step.slope <= 1.3,
            "sampling_slope_in_band": 0.8 <= samp.slope <= 1.2,
        }
        return {"checks": checks, "density": dens, "level_scale": scale0,
                "step": step, "sampling": samp}
    raise ValueError(f"unknown check {check!r}")
