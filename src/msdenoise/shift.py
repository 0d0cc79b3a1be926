"""Mean shift steps and iterated denoising.

A shift operator pairs a density source ``f`` (a fitted kernel model or an
analytic density) with a step scale ``tau``.  One step moves a point by the
log-gradient:

    x -> x + tau^2 * grad f(x) / f(x)

For a fitted gaussian model stepped at its own bandwidth (``tau = h``) this
is algebraically the kernel-weighted mean of the data,

    x -> sum_i X_i K((x - X_i) / h) / sum_j K((x - X_j) / h),

which is the form actually applied in that case because it is guaranteed
never to decrease the estimated density.  Both forms are public so they can
be cross-checked against each other.

Steps are pure: they never mutate inputs, and applying a step to a batch is
exactly the same as applying it to each row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .density import (
    DensityModel,
    PointCloud,
    _as_cloud,
    _as_queries,
    _kde_eval,
    _reduce_kernel_blocks,
    _row_sums,
)

__all__ = [
    "AnalyticDensity",
    "ShiftOperator",
    "ShiftTrace",
    "ZeroDensityError",
    "shift_step",
    "empirical_step_weighted_mean",
    "shift_until_converged",
    "denoise",
]


class ZeroDensityError(ValueError):
    """Raised when a shift step lands on zero or non-finite density.

    A fitted model raises it, in either step form, only for a non-finite
    query or one whose squared distances to all data overflow; an analytic
    source also where its density is 0.  Carries the index of the offending
    point within the batch (0 for a single-point call) so callers can report
    which input failed.
    """

    def __init__(self, index: int, value: float):
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"density at point index {self.index} is {value!r}; "
            "shift step undefined there (non-finite point, or too far from all mass?)"
        )


@dataclass(frozen=True)
class AnalyticDensity:
    """Closed-form density source for population-side operators.

    `density` and `gradient` must accept an ``(m, d)`` batch and return
    ``(m,)`` / ``(m, d)`` arrays.  Known critical points and constants are
    optional metadata used by the verification lab:

    - `modes` / `minima`: ``(k, d)`` arrays of critical points,
    - `hess_sup`: sup norm of the second derivative matrix, when known,
    - `sampler`: ``(rng, n) -> (n, d)`` exact draws, when available.
    """

    density: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    dim: int
    modes: Optional[np.ndarray] = None
    minima: Optional[np.ndarray] = None
    hess_sup: Optional[float] = None
    sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))
        for name in ("modes", "minima"):
            val = getattr(self, name)
            if val is not None:
                arr = np.atleast_2d(np.asarray(val, dtype=float))
                if arr.shape[1] != self.dim:
                    raise ValueError(f"{name} must be (k, {self.dim}), got {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


Source = Union[DensityModel, AnalyticDensity]


def _eval_source(source: Source, q: np.ndarray):
    if isinstance(source, DensityModel):
        return _kde_eval(source.data.points, source.bandwidth, q, want_grad=True)
    dens = np.asarray(source.density(q), dtype=float)
    grad = np.asarray(source.gradient(q), dtype=float)
    return dens, grad


def _require_positive(dens: np.ndarray, first_index: int = 0) -> None:
    """Raise ZeroDensityError at the first entry that is not positive and finite."""
    bad = ~(np.isfinite(dens) & (dens > 0.0))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ZeroDensityError(first_index + i, float(dens[i]))


@dataclass(frozen=True)
class ShiftOperator:
    """A mean shift map ``x -> x + tau^2 grad f(x) / f(x)``.

    `tau=None` defaults to the model bandwidth for fitted sources; analytic
    sources must state tau explicitly.  When the source is a fitted gaussian
    model and ``tau`` equals its bandwidth, `step` uses the weighted-mean
    form (identical values, guaranteed density ascent).
    """

    source: Source
    tau: Optional[float] = None

    def __post_init__(self) -> None:
        tau = self.tau
        if tau is None:
            if isinstance(self.source, DensityModel):
                tau = self.source.bandwidth
            else:
                raise ValueError("tau must be given explicitly for analytic sources")
        tau = float(tau)
        if not math.isfinite(tau) or tau <= 0.0:
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        object.__setattr__(self, "tau", tau)

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def uses_weighted_mean(self) -> bool:
        return isinstance(self.source, DensityModel) and self.tau == self.source.bandwidth

    def step(self, x):
        if self.uses_weighted_mean:
            return empirical_step_weighted_mean(self.source, x)
        return shift_step(self, x)


def shift_step(op: ShiftOperator, x):
    """One gradient-ratio step under `op`; accepts a point or an (m, d) batch.

    A row where the density of a fitted model underflows to 0 takes its
    density and gradient sums over max-shifted weights (`_far_field_weights`)
    instead: the scale cancels in their ratio, so the step is still defined.
    """
    q, single = _as_queries(x, op.dim)
    dens, grad = _eval_source(op.source, q)
    if isinstance(op.source, DensityModel):
        h = op.source.bandwidth
        under = np.flatnonzero(dens == 0.0)
        cols = np.ascontiguousarray(op.source.data.points.T) if under.size else None
        for i in under:
            w = np.zeros((1, cols.shape[1]))
            _far_field_weights(cols, h, q[i], w[0])
            dens[i] = _row_sums(w)[0]
            grad[i] = [_row_sums(w, c - qj)[0] / (h * h) for c, qj in zip(cols, q[i])]
    _require_positive(dens)
    out = q + (op.tau * op.tau) * grad / dens[:, None]
    return out[0] if single else out


def _far_field_weights(cols: np.ndarray, h: float, q: np.ndarray, out: np.ndarray) -> None:
    """Kernel weights of query `q` scaled so that the nearest datum weighs 1.

    For a query whose every weight underflows to 0: the exponents are shifted
    by their maximum before `exp`.  `out` is left as it is if `q` is not
    finite or its squared distances to all data overflow.
    """
    if not np.all(np.isfinite(q)):
        return
    expo = np.square(cols - q[:, None]).sum(axis=0) * (-0.5 / (h * h))
    top = expo.max()
    if np.isfinite(top):
        np.exp(expo - top, out=out)


def empirical_step_weighted_mean(model: DensityModel, x):
    """One step in the kernel-weighted-mean form over the model's own data.

    Shares only the kernel-weight blocks with the fitted density and
    gradient; its reduction over the data is its own, so it stays an
    independent cross-check of the gradient-ratio form.  A query so far from
    the data that every weight underflows to 0 takes max-shifted weights
    instead, which leaves the mean unchanged; every other row keeps its bits.
    ZeroDensityError is raised only where no weight can be formed: at a
    non-finite query, or one whose squared distances to all data overflow.
    """
    q, single = _as_queries(x, model.dim)
    cols = np.ascontiguousarray(model.data.points.T)
    h = model.bandwidth
    out = np.empty_like(q)

    def reduce(lo, hi, w, scratch):
        denom = _row_sums(w)
        # weights lie in [0, 1], so a row sum is finite and positive unless
        # every weight underflowed or the query was not finite
        if not denom.min() > 0.0:
            for i in np.flatnonzero(denom == 0.0):
                _far_field_weights(cols, h, q[lo + i], w[i])
                denom[i] = _row_sums(w[i : i + 1])[0]
            _require_positive(denom, lo)
        for j in range(cols.shape[0]):
            out[lo:hi, j] = _row_sums(w, cols[j]) / denom

    _reduce_kernel_blocks(cols, h, q, reduce)
    return out[0] if single else out


@dataclass(frozen=True)
class ShiftTrace:
    """The path of one point under repeated shifting.

    `path` has shape ``(k + 1, d)``: the start plus one row per step taken.
    """

    path: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.path, dtype=float))
        if arr.shape[0] < 1:
            raise ValueError("path must contain at least the start point")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "path", arr)
        object.__setattr__(self, "converged", bool(self.converged))

    @property
    def iterations(self) -> int:
        return self.path.shape[0] - 1

    @property
    def step_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.path, axis=0), axis=1)

    @property
    def total_length(self) -> float:
        return float(self.step_lengths.sum())

    @property
    def end(self) -> np.ndarray:
        return self.path[-1]


def _resolve_tol(op: ShiftOperator, tol: Optional[float]) -> float:
    """`tol` checked to be positive and finite, or the default for `op`'s model.

    The default is 1e-7 times the mean per-coordinate sample spread of the
    model data; analytic sources have no default.
    """
    if tol is None:
        if not isinstance(op.source, DensityModel):
            raise ValueError("tol must be given explicitly for analytic sources")
        pts = op.source.data.points
        scale = float(pts.std(axis=0, ddof=1).mean()) if pts.shape[0] > 1 else 0.0
        # single point or fully degenerate data: fall back to an absolute floor
        return 1e-7 * scale if scale > 0.0 else 1e-7
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def shift_until_converged(op: ShiftOperator, x, tol: Optional[float] = None,
                          max_iter: int = 500) -> ShiftTrace:
    """Iterate the shift from one start until the step length drops below tol.

    The default tol is 1e-7 times the mean per-coordinate sample spread of
    the model data, so convergence is scale-aware.  Hitting `max_iter`
    returns a trace with ``converged=False`` rather than raising.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    tol = _resolve_tol(op, tol)
    q, single = _as_queries(x, op.dim)
    if not single:
        raise ValueError("shift_until_converged takes a single point; use denoise for batches")
    cur = q[0]
    path = [cur]
    converged = False
    for _ in range(max_iter):
        nxt = op.step(cur)
        path.append(nxt)
        if float(np.linalg.norm(nxt - cur)) < tol:
            converged = True
            break
        cur = nxt
    return ShiftTrace(path=np.vstack(path), converged=converged)


def denoise(data, op: ShiftOperator, sweeps: int = 1) -> PointCloud:
    """Apply `sweeps` shift steps to every point of `data` under a fixed operator.

    The operator is never refit between sweeps: all points move under the
    same map, so the result is independent of row order.
    """
    if int(sweeps) != sweeps or sweeps < 1:
        raise ValueError(f"sweeps must be a positive integer, got {sweeps!r}")
    cloud = _as_cloud(data)
    if cloud.dim != op.dim:
        raise ValueError(f"data dim {cloud.dim} does not match operator dim {op.dim}")
    positions = cloud.points
    for _ in range(int(sweeps)):
        positions = op.step(positions)
    return PointCloud(positions)
