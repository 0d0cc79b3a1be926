"""Seeded generators for the simulated datasets used across the package.

All generators draw from ``numpy.random.default_rng`` (PCG64), so a fixed
seed gives bit-identical output on any platform.  Draw order within each
generator is fixed and documented in the docstrings; changing it would
change outputs under a given seed and counts as a breaking change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import PointCloud

__all__ = [
    "LabeledCloud",
    "gen_bullseye",
    "gen_uniform_noise",
    "gen_spiral",
    "gen_gmm_1d",
    "gen_gmm_2d",
    "plant_outliers",
    "with_noise",
    "default_anomaly_scenario",
    "ANOMALY_BLOB_MEANS",
    "ANOMALY_BLOB_SD",
    "ANOMALY_OUTLIERS",
]


def _rng(*entropy) -> np.random.Generator:
    """Generator for the stream named by a seed and any sub-stream indices."""
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


@dataclass(frozen=True)
class LabeledCloud:
    """A point cloud with per-point integer structure labels.

    Labels are contiguous from 0.  Noise or outlier points, when present,
    carry the highest label.
    """

    cloud: PointCloud
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        if labels.ndim != 1 or labels.shape[0] != self.cloud.size:
            raise ValueError("labels must be a 1-D array matching the cloud size")
        uniq = np.unique(labels)
        if not np.array_equal(uniq, np.arange(uniq.size)):
            raise ValueError(f"label set must be contiguous from 0, got {uniq.tolist()}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def n_labels(self) -> int:
        return int(self.labels.max()) + 1

    def __len__(self) -> int:
        return self.cloud.size


def gen_bullseye(n0: int, ring_radius: float = 6.0, eye_fraction: float = 0.2,
                 sigma: float = 1.0, rng_seed: int = 0) -> LabeledCloud:
    """Central blob plus a surrounding ring, both with gaussian jitter.

    ``round(eye_fraction * n0)`` points sit at the origin (label 0), the
    rest uniformly on the radius-`ring_radius` circle (label 1); both get
    isotropic gaussian noise with sd `sigma`.  Draw order: eye angles are
    not needed, so the stream is eye jitter, ring angles, ring jitter.
    """
    if n0 < 2:
        raise ValueError("n0 must be >= 2")
    if not 0.0 < eye_fraction < 1.0:
        raise ValueError(f"eye_fraction must be in (0, 1), got {eye_fraction}")
    if sigma < 0.0 or ring_radius <= 0.0:
        raise ValueError("sigma must be >= 0 and ring_radius > 0")
    n_eye = int(round(eye_fraction * n0))
    n_ring = n0 - n_eye
    if n_eye < 1 or n_ring < 1:
        raise ValueError("split leaves an empty group; adjust n0 or eye_fraction")
    rng = np.random.default_rng(rng_seed)
    eye = sigma * rng.standard_normal((n_eye, 2))
    theta = rng.uniform(0.0, 2.0 * math.pi, n_ring)
    ring = ring_radius * np.column_stack([np.cos(theta), np.sin(theta)])
    ring = ring + sigma * rng.standard_normal((n_ring, 2))
    pts = np.vstack([eye, ring])
    labels = np.concatenate([np.zeros(n_eye, dtype=np.int64), np.ones(n_ring, dtype=np.int64)])
    return LabeledCloud(PointCloud(pts), labels)


def gen_uniform_noise(n1: int, box_low, box_high, rng_seed: int = 0) -> PointCloud:
    """n1 i.i.d. uniform draws in the axis-aligned box [box_low, box_high]."""
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    low = np.atleast_1d(np.asarray(box_low, dtype=float))
    high = np.atleast_1d(np.asarray(box_high, dtype=float))
    if low.shape != high.shape or low.ndim != 1:
        raise ValueError("box_low and box_high must be matching vectors")
    if not np.all(low < high):
        raise ValueError("box must have positive volume (box_low < box_high elementwise)")
    rng = np.random.default_rng(rng_seed)
    pts = rng.uniform(low, high, size=(n1, low.shape[0]))
    return PointCloud(pts)


# Spiral arm k in {0, 1}:  t -> 0.7 * t * (cos(2 pi t + k pi), sin(2 pi t + k pi)),
# t in [0.25, 1].  Adjacent windings of the two arms sit 0.35 apart, seven
# times the default jitter, and max radius 0.7 keeps the structure inside
# [-0.8, 0.8]^2.  Points are placed uniformly along each arm's length, not
# uniformly in t, so the outer windings are as densely sampled as the inner
# ones.
_SPIRAL_T_MIN = 0.25
_SPIRAL_T_MAX = 1.0
_SPIRAL_RATE = 2.0
_SPIRAL_SCALE = 0.7


def _spiral_arm(t: np.ndarray, arm: int) -> np.ndarray:
    ang = _SPIRAL_RATE * math.pi * t + arm * math.pi
    r = _SPIRAL_SCALE * t
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _spiral_t_table() -> tuple[np.ndarray, np.ndarray]:
    """Grid of t values and cumulative arc length along one arm."""
    t = np.linspace(_SPIRAL_T_MIN, _SPIRAL_T_MAX, 2049)
    speed = _SPIRAL_SCALE * np.sqrt(1.0 + (_SPIRAL_RATE * math.pi * t) ** 2)
    length = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))])
    return t, length

_SPIRAL_T_GRID, _SPIRAL_ARC = _spiral_t_table()


def gen_spiral(n0: int, sigma: float = 0.05, rng_seed: int = 0) -> LabeledCloud:
    """Two interleaved spiral arms with gaussian jitter, n0/2 points each.

    Points are spread uniformly along each arm's length.  Draw order:
    arm-0 parameters, arm-1 parameters, then jitter for all points at
    once.  Labels are 0 and 1 by arm.
    """
    if n0 < 2 or n0 % 2 != 0:
        raise ValueError(f"n0 must be a positive even count, got {n0}")
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    half = n0 // 2
    rng = np.random.default_rng(rng_seed)
    t0 = np.interp(rng.uniform(0.0, _SPIRAL_ARC[-1], half), _SPIRAL_ARC, _SPIRAL_T_GRID)
    t1 = np.interp(rng.uniform(0.0, _SPIRAL_ARC[-1], half), _SPIRAL_ARC, _SPIRAL_T_GRID)
    pts = np.vstack([_spiral_arm(t0, 0), _spiral_arm(t1, 1)])
    pts = pts + sigma * rng.standard_normal((n0, 2))
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return LabeledCloud(PointCloud(pts), labels)


def gen_gmm_1d(n: int, mix: float = 0.7, mu1: float = 0.0, mu2: float = 5.0,
               s1: float = 1.0, s2: float = 1.0, rng_seed: int = 0) -> PointCloud:
    """Two-component 1-D gaussian mixture sample.

    Per point: Bernoulli(mix) picks component 1, then one normal draw.
    Draw order: n uniforms, then n standard normals.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    if s1 <= 0.0 or s2 <= 0.0:
        raise ValueError("component sds must be positive")
    rng = np.random.default_rng(rng_seed)
    pick1 = rng.random(n) < mix
    z = rng.standard_normal(n)
    x = np.where(pick1, mu1 + s1 * z, mu2 + s2 * z)
    return PointCloud(x)


def gen_gmm_2d(component_means, component_sds, counts, rng_seed: int = 0) -> LabeledCloud:
    """Isotropic gaussian blobs with explicit per-component counts and labels.

    Components are drawn in order; each contributes `counts[i]` points
    labeled i.
    """
    means = np.atleast_2d(np.asarray(component_means, dtype=float))
    sds = np.asarray(component_sds, dtype=float).ravel()
    cnts = np.asarray(counts, dtype=np.int64).ravel()
    if not (means.shape[0] == sds.shape[0] == cnts.shape[0]):
        raise ValueError("component_means, component_sds and counts must have matching lengths")
    if np.any(sds <= 0.0) or np.any(cnts < 1):
        raise ValueError("component sds must be positive and counts >= 1")
    rng = np.random.default_rng(rng_seed)
    parts, labels = [], []
    for i in range(means.shape[0]):
        parts.append(means[i] + sds[i] * rng.standard_normal((cnts[i], means.shape[1])))
        labels.append(np.full(cnts[i], i, dtype=np.int64))
    return LabeledCloud(PointCloud(np.vstack(parts)), np.concatenate(labels))


def plant_outliers(labeled: LabeledCloud, outliers) -> LabeledCloud:
    """Append explicit points under a fresh dedicated label (the next id)."""
    out = np.asarray(outliers, dtype=float)
    if out.size == 0:
        return labeled
    out = np.atleast_2d(out)
    if out.shape[1] != labeled.cloud.dim:
        raise ValueError(f"outlier dim {out.shape[1]} does not match cloud dim {labeled.cloud.dim}")
    pts = np.vstack([labeled.cloud.points, out])
    tag = labeled.n_labels
    labels = np.concatenate([labeled.labels, np.full(out.shape[0], tag, dtype=np.int64)])
    return LabeledCloud(PointCloud(pts), labels)


def with_noise(labeled: LabeledCloud, noise: PointCloud) -> LabeledCloud:
    """Append background noise points under a fresh dedicated label."""
    if noise.dim != labeled.cloud.dim:
        raise ValueError(f"noise dim {noise.dim} does not match cloud dim {labeled.cloud.dim}")
    pts = np.vstack([labeled.cloud.points, noise.points])
    tag = labeled.n_labels
    labels = np.concatenate([labeled.labels, np.full(noise.size, tag, dtype=np.int64)])
    return LabeledCloud(PointCloud(pts), labels)


# Default anomaly scenario: three well-separated blobs of 200 points each
# plus five planted outliers sitting in documented low-density locations
# between and around the blobs.  The outliers are fixtures, chosen so their
# smoothed density falls far below every inlier's.
ANOMALY_BLOB_MEANS = ((-3.0, 0.0), (3.0, 0.0), (0.0, 4.0))
ANOMALY_BLOB_SD = 0.7
ANOMALY_OUTLIERS = (
    (-2.2, 2.55),
    (-0.9, -1.6),
    (0.9, -1.7),
    (2.2, 2.55),
    (0.0, 6.7),
)


def default_anomaly_scenario(rng_seed: int = 0, outliers=ANOMALY_OUTLIERS) -> LabeledCloud:
    """Three gaussian blobs (labels 0-2) plus planted outliers (label 3)."""
    blobs = gen_gmm_2d(ANOMALY_BLOB_MEANS, [ANOMALY_BLOB_SD] * 3, [200] * 3, rng_seed)
    return plant_outliers(blobs, outliers)
