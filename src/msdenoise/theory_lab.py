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

from .density import (DensityModel, _as_point, _as_queries, _count, _frozen, _points, _positive,
                      _sq_distances, density_at, fit)
from .shift import (
    AnalyticDensity,
    ShiftOperator,
    empirical_step_weighted_mean,
    shift_until_converged,
)
from .synthetic import (_GMM_MIX, _GMM_MU1, _GMM_MU2, _GMM_S1, _GMM_S2, _NOISE_HIGH,
                        _NOISE_LOW, _rng, gen_gmm_1d)

__all__ = [
    "LevelSetSpec",
    "ScalingReport",
    "PerturbationFamily",
    "standard_normal_density",
    "gmm_density",
    "gmm_level_spec",
    "level_scale_family",
    "mixture_tilt_family",
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

    `boundary_points` holds the analytic boundary (points as `PointCloud`
    reads them) and `gradient_floor` the minimum |f'| over that boundary;
    both feed the explicit lower-bound reporting of `mass_increase_curve`.
    """

    density: Callable[[np.ndarray], np.ndarray]
    level: float
    boundary_points: Optional[np.ndarray] = None
    gradient_floor: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", _positive(self.level, "level"))
        if self.boundary_points is not None:
            b = _frozen(_points(self.boundary_points))
            object.__setattr__(self, "boundary_points", b)
            # membership must be consistent with f at the boundary itself
            vals = np.asarray(self.density(b), dtype=float)
            if not np.allclose(vals, self.level, rtol=1e-6, atol=1e-9):
                raise ValueError("boundary points are not on the stated level")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """One membership flag per point (rows, or the entries of a 1-D array)."""
        return np.asarray(self.density(_points(points)), dtype=float) >= self.level


@dataclass(frozen=True)
class ScalingReport:
    """A measured quantity over a finite, nonnegative, strictly increasing grid.

    `slope` is the ordinary-least-squares slope of log(value) against
    log(grid) (or against the raw grid for the sweep-growth check, noted in
    `extras['fit']`), with a confidence half-width of two residual standard
    errors.  `extras` carries per-check diagnostics: Monte Carlo standard
    errors, violation flags, explicit bound comparisons.  The report keeps its
    own copy of `extras`, each array in it a read-only copy of the same dtype.
    """

    name: str
    grid: np.ndarray
    values: np.ndarray
    slope: float
    slope_halfwidth: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        g = _frozen(_grid(self.grid, "grid", nonnegative=True))
        v = _frozen(self.values)
        if g.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if not math.isfinite(self.slope):
            raise ValueError("fitted slope must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "extras", {
            k: _frozen(e, e.dtype) if isinstance(e, np.ndarray) else e
            for k, e in self.extras.items()})

    @property
    def violations(self) -> list:
        return list(self.extras.get("violations", []))


def _fit_loglog(grid: np.ndarray, values: np.ndarray) -> tuple[float, float, int]:
    """OLS slope of log values vs log grid over the positive pairs."""
    mask = (grid > 0.0) & (values > 0.0)
    k = int(mask.sum())
    if k < 2:
        return 0.0, math.inf, k
    return _ols_slope(np.log(grid[mask]), np.log(values[mask])) + (k,)


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


def _fitted(name: str, grid: np.ndarray, values: np.ndarray, extras: dict,
            ses: Optional[np.ndarray] = None, flag: str = "", label: str = "") -> ScalingReport:
    """The log-log fit of `values` over `grid`, as a ScalingReport.

    With `ses`, each value below -3 of its standard errors is flagged in
    ``extras['violations']`` as "<flag> at h=...: <label>=..., se=...".
    """
    if ses is not None:
        extras["violations"] = [f"{flag} at h={h:g}: {label}={v:.3g}, se={se:.3g}"
                                for h, v, se in zip(grid, values, ses) if v < -3.0 * se]
    slope, halfwidth, _ = _fit_loglog(grid, values)
    return ScalingReport(name, grid, values, slope, halfwidth, extras)


def _grid(values: Sequence[float], name: str, nonnegative: bool = False) -> np.ndarray:
    """`values` as a float array, once it is a finite, strictly increasing
    grid of at least 2 entries, all positive (or all nonnegative)."""
    g = np.asarray(values, dtype=float)
    low = g >= 0.0 if nonnegative else g > 0.0
    # the finiteness test comes first, so np.diff never subtracts infinities
    if g.ndim != 1 or g.size < 2 or not np.all(np.isfinite(g) & low) or np.any(np.diff(g) <= 0.0):
        sign = "nonnegative" if nonnegative else "positive"
        raise ValueError(f"{name} must be a finite, {sign}, strictly increasing grid "
                         f"of at least 2 entries, got {g.tolist()}")
    return g


def _require_sampler(density: AnalyticDensity, **sizes: int) -> Callable:
    """The density's sampler, once each Monte Carlo size in `sizes` is >= 1."""
    for name, size in sizes.items():
        _count(size, name)
    if density.sampler is None:
        raise ValueError("this check draws Monte Carlo samples; the density needs a sampler")
    return density.sampler


def _common_sample(density: AnalyticDensity, n_mc: int, rng_seed: int) -> np.ndarray:
    """The one sample of `n_mc` draws a paired curve reuses at every grid value."""
    return _require_sampler(density, n_mc=n_mc)(_rng(rng_seed), int(n_mc))


def _shifted_membership(density: AnalyticDensity, h_grid: np.ndarray, x: np.ndarray,
                        member: Callable[[np.ndarray], np.ndarray]):
    """Membership of the common sample `x` as floats, and a lazy sequence of
    (membership after one population shift, change) pairs, one per h in `h_grid`."""
    before = member(x).astype(float)
    after = (member(ShiftOperator(density, tau=float(h)).step(x)).astype(float) for h in h_grid)
    return before, ((a, a - before) for a in after)


# ---------------------------------------------------------------------------
# reference densities


def _points_1d(q) -> np.ndarray:
    """The points of the 1-D query `q` as a flat array (`_as_queries`: a 1-D array is n points)."""
    return _as_queries(q, 1)[0][:, 0]


def standard_normal_density() -> AnalyticDensity:
    """1-D standard normal with analytic gradient and curvature constant."""
    amp = (2.0 * math.pi) ** -0.5

    def dens(q):
        x = _points_1d(q)
        return amp * np.exp(-0.5 * x * x)

    def grad(q):
        x = _points_1d(q)
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


def gmm_density(mix: float = _GMM_MIX, mu1: float = _GMM_MU1, mu2: float = _GMM_MU2,
                s1: float = _GMM_S1, s2: float = _GMM_S2) -> AnalyticDensity:
    """Two-component 1-D gaussian mixture with located critical points, by
    default the paper's 0.7 N(0, 1) + 0.3 N(5, 1).

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
        return w[0] * _phi(x, mu[0], s[0]) + w[1] * _phi(x, mu[1], s[1])

    def dpdf_scalar(x):
        return (-w[0] * (x - mu[0]) / s[0] ** 2 * _phi(x, mu[0], s[0])
                - w[1] * (x - mu[1]) / s[1] ** 2 * _phi(x, mu[1], s[1]))

    def d2pdf_scalar(x):
        t1 = w[0] * _phi(x, mu[0], s[0]) * (((x - mu[0]) / s[0] ** 2) ** 2 - 1.0 / s[0] ** 2)
        t2 = w[1] * _phi(x, mu[1], s[1]) * (((x - mu[1]) / s[1] ** 2) ** 2 - 1.0 / s[1] ** 2)
        return t1 + t2

    def d3pdf_scalar(x):
        # for z = (x - mu) / s the third derivative of phi(z) is (3z - z^3) phi(z)
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
        return pdf_scalar(_points_1d(q))

    def grad(q):
        return dpdf_scalar(_points_1d(q))[:, None]

    def sampler(rng, n):
        return gen_gmm_1d(n, mix, mu1, mu2, s1, s2, rng_seed=rng).points

    return AnalyticDensity(density=dens, gradient=grad, dim=1,
                           modes=modes[:, None], minima=minima[:, None],
                           hess_sup=hess_sup, sampler=sampler)


def gmm_level_spec(density: AnalyticDensity) -> LevelSetSpec:
    """Level set of a 1-D mixture fixture with analytic boundary diagnostics.

    The level is half the height of the lower mode, which puts the boundary
    on well-conditioned slopes of both bumps.
    """
    if density.modes is None or density.dim != 1:
        raise ValueError("need a 1-D density with declared modes")
    level = 0.5 * float(np.asarray(density.density(density.modes), dtype=float).min())

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
    h_grid = _grid(h_grid, "h_grid")
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2 for a standard error, got {n_mc}")
    if density.hess_sup is None or spec.gradient_floor is None:
        raise ValueError("admissibility guard needs hess_sup and gradient_floor")
    level, g0 = spec.level, spec.gradient_floor
    h2max = min(3.0 * math.sqrt(2.0) * level / density.hess_sup,
                math.sqrt(2.0) * level * level / (g0 * g0))
    if float(h_grid.max()) ** 2 > h2max:
        raise ValueError(f"h={h_grid.max():g} outside the admissible range "
                         f"(h^2 <= {h2max:.4g}); shrink the grid or raise the level")
    x = _common_sample(density, n_mc, rng_seed)
    inside_before, shifted = _shifted_membership(density, h_grid, x, spec.contains)
    deltas, ses = [], []
    for _, d in shifted:
        deltas.append(float(d.mean()))
        ses.append(float(d.std(ddof=1) / math.sqrt(d.size)))
    deltas, ses = np.array(deltas), np.array(ses)
    n_boundary = 0 if spec.boundary_points is None else spec.boundary_points.shape[0]
    bound_plain = h_grid * h_grid * g0 * n_boundary / (6.0 * math.sqrt(2.0))
    bound_over_level = bound_plain / level
    extras = {"delta_se": ses, "base_mass": float(inside_before.mean()),
              "mc_ok": bool(np.all(ses < np.maximum(np.abs(deltas), 1e-300) / 5.0)),
              "bound_plain": bound_plain, "bound_over_level": bound_over_level,
              "bound_plain_ok": bool(np.all(deltas + 3.0 * ses >= bound_plain)),
              "bound_over_level_ok": bool(np.all(deltas + 3.0 * ses >= bound_over_level)),
              "admissible_h_max": math.sqrt(h2max)}
    return _fitted("level_set_mass_increase", h_grid, deltas, extras,
                   ses, "mass decreased", "delta")


# ---------------------------------------------------------------------------
# mode / minimum density ratio


# Radius of the ball `mode_density_ratio_curve` counts in.
_BALL_RADIUS = 0.05


def _in_ball(points: np.ndarray, centre: np.ndarray, radius: float) -> np.ndarray:
    """Whether each row of `points` lies in the closed ball B(centre, radius),
    from `_sq_distances` of `points` where it lies into one (1, n) buffer and,
    in d > 1, its scratch row: no (n, d) temporary is formed."""
    d2 = np.empty((1, points.shape[0]))
    scratch = np.empty_like(d2) if points.shape[1] > 1 else None
    _sq_distances(d2, scratch, points.T, centre)
    return d2[0] <= radius * radius


def geometric_density_at(sample, x, radius: float) -> float:
    """Ball-count density estimate: points in B(x, radius) over n * ball volume.

    `sample` is a PointCloud or an array-like of points.
    """
    radius = _positive(radius, "radius")
    pts = _points(sample)
    n, d = pts.shape
    count = int(np.count_nonzero(_in_ball(pts, _as_point(x, d), radius)))
    vball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d
    return count / (n * vball)


def mode_density_ratio_curve(density: AnalyticDensity, mode, h_grid: Sequence[float],
                             n_mc: int, rng_seed: int = 0, kind: str = "mode") -> ScalingReport:
    """Density change at a critical point under one population shift.

    Reports ratio - 1 at a mode (expected positive, Theta(h^2)) or 1 - ratio
    at a local minimum (`kind="minimum"`), estimated by paired counts in the
    ball of radius `_BALL_RADIUS` around the point, on a common sample.
    Wrong-signed gaps beyond 3 MC standard errors are flagged.
    """
    if kind not in ("mode", "minimum"):
        raise ValueError("kind must be 'mode' or 'minimum'")
    h_grid = _grid(h_grid, "h_grid")
    m = _as_point(mode, density.dim)
    gnorm = float(np.linalg.norm(np.asarray(density.gradient(m), dtype=float)))
    if gnorm >= 1e-8:
        raise ValueError(f"point is not critical: |grad f| = {gnorm:.3g}")
    fm = float(np.asarray(density.density(m), dtype=float)[0])
    if density.hess_sup is None:
        raise ValueError("admissibility guard needs hess_sup")
    if float(h_grid.max()) ** 2 >= fm / density.hess_sup:
        raise ValueError(f"h={h_grid.max():g} outside the admissible range "
                         f"(h^2 < {fm / density.hess_sup:.4g})")
    x = _common_sample(density, n_mc, rng_seed)
    in_before, shifted = _shifted_membership(
        density, h_grid, x, lambda p: _in_ball(p, m, _BALL_RADIUS))
    count_before = float(in_before.sum())
    if count_before == 0:
        raise ValueError("no sample mass in the reference ball; enlarge n_mc")
    gaps, ses = [], []
    for after, d in shifted:
        ratio = float(after.sum() / count_before)
        gaps.append(ratio - 1.0 if kind == "mode" else 1.0 - ratio)
        ses.append(float(math.sqrt(float((d * d).sum())) / count_before))
    ses = np.array(ses)
    extras = {"gap_se": ses, "kind": kind, "critical_point": m[0],
              "ball_radius": _BALL_RADIUS, "density_at_point": fm}
    side = "ratio <= 1 at mode" if kind == "mode" else "ratio >= 1 at minimum"
    return _fitted(f"{kind}_density_ratio", h_grid, np.array(gaps), extras, ses, side, "gap")


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
    n_grid = _grid(n_grid, "n_grid")
    if n_grid[0] < 100 or np.any(n_grid % 1.0 != 0.0):
        raise ValueError(f"n_grid must hold whole sample sizes, all >= 100, got {n_grid.tolist()}")
    if n_reps < 2:
        raise ValueError(f"n_reps must be >= 2 for a standard error, got {n_reps}")
    sampler = _require_sampler(density, n_pop=n_pop)
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
    extras = {"gap_se": np.array(ses), "h": float(h), "n_pop": int(n_pop),
              "n_reps": int(n_reps), "trend_decreasing": bool(np.all(np.diff(values) < 0.0))}
    return _fitted("empirical_population_gap", n_grid, values, extras)


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


def mixture_tilt_family() -> PerturbationFamily:
    """Reweight the two components of `gmm_density()`: 0.7 -> 0.7 - delta.

    This moves mass between the bumps, genuinely changing the shift field;
    the response on a level set should scale linearly in the perturbation
    size.  The sup norms behind delta1 are taken on [mu1 - 8, mu2 + 8].
    """
    mix, mu1, mu2, s1, s2 = _GMM_MIX, _GMM_MU1, _GMM_MU2, _GMM_S1, _GMM_S2
    xs = np.linspace(mu1 - 8.0, mu2 + 8.0, 20001)
    df = np.abs(_phi(xs, mu2, s2) - _phi(xs, mu1, s1))
    dg = np.abs(-(xs - mu2) / s2**2 * _phi(xs, mu2, s2) + (xs - mu1) / s1**2 * _phi(xs, mu1, s1))
    unit = float(df.max()) + float(dg.max())

    def perturbed(delta: float) -> AnalyticDensity:
        if not 0.0 < mix - delta < 1.0:
            raise ValueError("tilt takes the mixing weight outside (0, 1)")
        return gmm_density(mix - delta)

    return PerturbationFamily("mixture_tilt", gmm_density(), perturbed,
                              delta1=lambda d: abs(d) * unit)


def perturbation_response(family: PerturbationFamily, deltas: Sequence[float], tau: float,
                          probe: LevelSetSpec, n_mc: int, rng_seed: int = 0,
                          situation: str = "density") -> ScalingReport:
    """Linear response of the shifted mass to small perturbations.

    Three situations share one harness, each measuring
    |perturbed mass - base mass| of the probe set after one shift:

    - ``density``: perturb f along `family` (grid = exact perturbation size),
    - ``step``: perturb the step scale, tau -> tau + delta (grid = |delta|),
    - ``sampling``: contaminate the sampling distribution with a delta-mixture
      of uniform draws on the 1-D mixture's contamination box
      [`_NOISE_LOW`, `_NOISE_HIGH`] (grid = delta).

    A common base sample is reused across the grid so the differences are
    paired.
    """
    deltas = _grid(deltas, "deltas", nonnegative=True)
    if situation not in ("density", "step", "sampling"):
        raise ValueError("situation must be one of density, step, sampling")
    x = _common_sample(family.base, n_mc, rng_seed)
    base_op = ShiftOperator(family.base, tau=tau)
    base_mass = float(probe.contains(base_op.step(x)).mean())

    values = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        op, xi = base_op, x
        if situation == "density":
            op = ShiftOperator(family.perturbed(float(d)), tau=tau)
        elif situation == "step":
            op = ShiftOperator(family.base, tau=tau + float(d))
        else:
            pick = _rng(rng_seed, 1, i).random(int(n_mc)) < d
            xi = x.copy()
            n_cont = int(pick.sum())
            if n_cont:
                box = (n_cont, x.shape[1])
                xi[pick] = _rng(rng_seed, 2, i).uniform(_NOISE_LOW, _NOISE_HIGH, box)
        values[i] = abs(float(probe.contains(op.step(xi)).mean()) - base_mass)

    grid = np.array([family.delta1(float(d)) for d in deltas]) if situation == "density" else deltas
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
    pts = _points(probes)
    stepped = empirical_step_weighted_mean(model, pts)
    before = density_at(model, pts)
    after = density_at(model, stepped)
    return int(np.sum(after <= before - 1e-12))


def multi_sweep_mode_growth(density: AnalyticDensity, n_data: int = 1000, h: float = 0.25,
                            sweeps: int = 5, n_mc: int = 200000,
                            rng_seed: int = 0) -> ScalingReport:
    """Ball density at the operator's mode after N fixed-operator sweeps.

    Fits the operator on a data sample, locates its mode by converging from
    the declared population mode, then pushes a large population sample
    through N = 0..sweeps sweeps, recording the ball-count density at that
    mode (ball radius h/2) each time.  The claimed compounding gives
    strictly increasing values with per-sweep geometric growth of at least
    (1 + c1 h^2) over the true mode density; `extras['c1_fit']` reports the fitted c1.  The slope
    is per-sweep log growth (semi-log fit, `extras['fit'] = 'semilog'`).
    """
    sweeps = _count(sweeps, "sweeps")
    if density.modes is None:
        raise ValueError("density must declare at least one mode")
    if density.hess_sup is None:
        raise ValueError("admissibility guard needs hess_sup")
    sampler = _require_sampler(density, n_data=n_data, n_mc=n_mc)
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
    for _ in range(sweeps):
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
        mode = mode_density_ratio_curve(nrm, [0.0], [0.1, 0.2, 0.4],
                                        n_mc=200000, rng_seed=seed)
        valley = mode_density_ratio_curve(gmm, gmm.minima[0], [0.1, 0.15, 0.2],
                                          n_mc=400000, rng_seed=seed, kind="minimum")
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
        samp = perturbation_response(scale_fam, deltas, tau=0.3, probe=spec,
                                     n_mc=200000, rng_seed=seed, situation="sampling")
        checks = {
            "level_scaling_invariant": bool(np.all(scale0.values == 0.0)),
            "density_slope_in_band": 0.7 <= dens.slope <= 1.3,
            "step_slope_in_band": 0.7 <= step.slope <= 1.3,
            "sampling_slope_in_band": 0.8 <= samp.slope <= 1.2,
        }
        return {"checks": checks, "density": dens, "level_scale": scale0,
                "step": step, "sampling": samp}
    raise ValueError(f"unknown check {check!r}")
