"""Path-length anomaly scoring.

Each point is pushed by the mean shift iteration to convergence under one
fixed KDE; the total distance traveled is its anomaly score.  Points far
from the bulk travel a long way to reach a mode, points inside the bulk
barely move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel, _check_words, _count, _frozen, _points, fit, select_bandwidth_scv
from .shift import ShiftOperator, ShiftTrace, _shift_paths


@dataclass(frozen=True)
class AnomalyReport:
    """Scores, convergence flags, optional paths, and the ranking they imply."""

    scores: np.ndarray
    converged: np.ndarray
    traces: list[ShiftTrace] | None = None

    def __post_init__(self):
        scores = _frozen(self.scores)
        conv = _frozen(self.converged, bool)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a nonempty vector")
        if scores.min() < 0.0:
            raise ValueError("scores are path lengths and cannot be negative")
        if conv.shape != scores.shape:
            raise ValueError("scores and converged must be congruent")
        if self.traces is not None and len(self.traces) != scores.size:
            raise ValueError("need one trace per point")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "converged", conv)

    @property
    def ranking(self) -> np.ndarray:
        """Point indices by descending score, ties by lower index."""
        return np.argsort(-self.scores, kind="stable")

    def __len__(self):
        return self.scores.size


def _per_point(records, ends):
    """A contiguous array of the first ends[i] of `records` (one array per
    iteration, indexed by point) for each point i in turn, gathered in
    sixteen chunks of points so that no copy of all the records is made."""
    n = ends.size
    chunk = -(-n // 16)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = np.stack([r[lo:hi] for r in records[:ends[lo:hi].max()]], axis=1)
        for i in range(lo, hi):
            yield block[i - lo, :ends[i]]


def anomaly_scores(data, model: DensityModel | None = None, tol=None,
                   max_iter: int = 500, keep_traces: bool = False) -> AnomalyReport:
    """Score every point by its total mean shift path length.

    The iteration per point matches shift_until_converged against the fixed
    `model` (default: KDE on `data` itself with an SCV bandwidth); points are
    advanced together, each dropping out once its step length falls under
    tol.  Points still moving after max_iter steps are flagged unconverged
    and keep their partial-path score: a long wandering path is itself
    evidence of anomaly.  If max_iter x n step lengths, plus (max_iter + 1)
    x n x d positions with keep_traces, are over `_check_words`, ValueError
    is raised before any of them is allocated.
    """
    pts = _points(data)
    n, d = pts.shape
    max_iter = _count(max_iter, "max_iter")
    # peak 1.1 records and one n-row step, 1.5 with traces: records, chunks (tracemalloc, n=400)
    kept = "step lengths and positions" if keep_traces else "step lengths"
    _check_words(max_iter * n + ((max_iter + 1) * n * d if keep_traces else 0),
                 f"the {kept} of max_iter={max_iter} iterations over n={n} points")
    if model is None:
        model = fit(pts, select_bandwidth_scv(pts))
    op = ShiftOperator(model)
    if d != op.dim:
        raise ValueError(f"data dimension {d} != model dimension {op.dim}")

    steps, converged, lengths, positions = _shift_paths(op, pts, tol, max_iter, keep_traces)
    # sum each point's own step lengths, the reduction its trace applies
    scores = np.fromiter((row.sum() for row in _per_point(lengths, steps)), float, n)
    del lengths  # freed before the traces are gathered, which lowers their peak
    traces = None if positions is None else [
        ShiftTrace(path=path, converged=flag)
        for path, flag in zip(_per_point(positions, steps + 1), converged)]
    return AnomalyReport(scores, converged, traces)


def top_k(report: AnomalyReport, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties broken by lower index."""
    k = int(k)
    if not 0 <= k <= len(report):
        raise ValueError(f"k must be in 0..{len(report)}")
    return report.ranking[:k]
