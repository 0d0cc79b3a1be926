"""Mean shift steps and iterated denoising.

A shift operator pairs a density source ``f`` (a fitted kernel model or an
analytic density) with a step scale ``tau`` and profile constant ``c``.
One step moves a point by the log-gradient:

    x -> x + c * tau^2 * grad f(x) / f(x)

For a fitted gaussian model stepped at its own bandwidth (``tau = h``,
``c = 1``) this is algebraically the kernel-weighted mean of the data,

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
    _as_queries,
    _density_and_gradient,
    _kernel_blocks,
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

    Carries the index of the offending point within the batch (0 for a
    single-point call) so callers can report which input failed.
    """

    def __init__(self, index: int, value: float):
        self.index = int(index)
        self.value = float(value)
        super().__init__(
            f"density at point index {self.index} is {value!r}; "
            "shift step undefined there (point too far from all mass?)"
        )


@dataclass(frozen=True)
class AnalyticDensity:
    """Closed-form density source for population-side operators.

    `density` and `gradient` must accept an ``(m, d)`` batch and return
    ``(m,)`` / ``(m, d)`` arrays.  Known critical points and constants are
    optional metadata used by the verification lab:

    - `modes` / `minima`: ``(k, d)`` arrays of critical points,
    - `support`: optional membership indicator for a reference region,
    - `hess_sup`: sup norm of the second derivative matrix, when known,
    - `sampler`: ``(rng, n) -> (n, d)`` exact draws, when available.
    """

    density: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    dim: int
    modes: Optional[np.ndarray] = None
    minima: Optional[np.ndarray] = None
    support: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
        return _density_and_gradient(source, q)
    dens = np.asarray(source.density(q), dtype=float)
    grad = np.asarray(source.gradient(q), dtype=float)
    return dens, grad


def _require_positive(dens: np.ndarray) -> None:
    bad = ~(np.isfinite(dens) & (dens > 0.0))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ZeroDensityError(i, float(dens[i]))


@dataclass(frozen=True)
class ShiftOperator:
    """A mean shift map ``x -> x + c tau^2 grad f(x) / f(x)``.

    `tau=None` defaults to the model bandwidth for fitted sources; analytic
    sources must state tau explicitly.  When the source is a fitted gaussian
    model and ``tau`` equals its bandwidth with ``c = 1``, `step` uses the
    weighted-mean form (identical values, guaranteed density ascent).
    """

    source: Source
    tau: Optional[float] = None
    c: float = 1.0

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
        if not math.isfinite(self.c) or self.c <= 0.0:
            raise ValueError(f"c must be positive and finite, got {self.c!r}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def uses_weighted_mean(self) -> bool:
        return (
            isinstance(self.source, DensityModel)
            and self.tau == self.source.bandwidth
            and self.c == self.source.kernel.c
        )

    def step(self, x):
        if self.uses_weighted_mean:
            return empirical_step_weighted_mean(self.source, x)
        return shift_step(self, x)

    def density(self, x):
        if isinstance(self.source, DensityModel):
            return self.source.density_at(x)
        q, single = _as_queries(x, self.dim)
        dens = np.asarray(self.source.density(q), dtype=float)
        return float(dens[0]) if single else dens


def shift_step(op: ShiftOperator, x):
    """One gradient-ratio step under `op`; accepts a point or an (m, d) batch."""
    q, single = _as_queries(x, op.dim)
    dens, grad = _eval_source(op.source, q)
    _require_positive(dens)
    out = q + (op.c * op.tau * op.tau) * grad / dens[:, None]
    return out[0] if single else out


def empirical_step_weighted_mean(model: DensityModel, x):
    """One step in the kernel-weighted-mean form over the model's own data.

    Shares only the kernel-weight blocks with the fitted density and
    gradient; its reduction over the data is its own, so it stays an
    independent cross-check of the gradient-ratio form.
    """
    q, single = _as_queries(x, model.dim)
    cols = np.ascontiguousarray(model.data.points.T)
    out = np.empty_like(q)
    for lo, hi, w, scratch in _kernel_blocks(cols, model.bandwidth, q):
        denom = w.sum(axis=1)
        bad = ~(np.isfinite(denom) & (denom > 0.0))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ZeroDensityError(lo + i, float(denom[i]))
        for j in range(cols.shape[0]):
            np.multiply(w, cols[j], out=scratch)
            out[lo:hi, j] = scratch.sum(axis=1) / denom
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


def _default_tol(op: ShiftOperator) -> float:
    if not isinstance(op.source, DensityModel):
        raise ValueError("tol must be given explicitly for analytic sources")
    pts = op.source.data.points
    scale = float(pts.std(axis=0, ddof=1).mean()) if pts.shape[0] > 1 else 0.0
    # single point or fully degenerate data: fall back to an absolute floor
    return 1e-7 * scale if scale > 0.0 else 1e-7


def shift_until_converged(op: ShiftOperator, x, tol: Optional[float] = None,
                          max_iter: int = 500) -> ShiftTrace:
    """Iterate the shift from one start until the step length drops below tol.

    The default tol is 1e-7 times the mean per-coordinate sample spread of
    the model data, so convergence is scale-aware.  Hitting `max_iter`
    returns a trace with ``converged=False`` rather than raising.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol is None:
        tol = _default_tol(op)
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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
    cloud = data if isinstance(data, PointCloud) else PointCloud(data)
    if cloud.dim != op.dim:
        raise ValueError(f"data dim {cloud.dim} does not match operator dim {op.dim}")
    positions = cloud.points
    for _ in range(int(sweeps)):
        positions = op.step(positions)
    return PointCloud(positions)
