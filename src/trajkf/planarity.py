"""PCA plane fitting: classify 3-D point sets as planar and project them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trajectory import SigningInterval, TimedTrajectory

DEFAULT_F_ERROR = 5e-2


@dataclass(frozen=True, eq=False)
class PlanarityResult:
    """Best-fit plane of a point set and its flatness classification.

    fitting_error is sigma3 / (sigma1 + sigma2 + sigma3) over the singular
    values of the 3x3 covariance (1/N normalization) of the mean-centered
    points, so it lies in [0, 1/3]; is_planar holds iff it is below the
    threshold the fit was run with.
    """

    fitting_error: float
    is_planar: bool
    basis: np.ndarray      # (2, 3), orthonormal rows spanning the plane
    centroid: np.ndarray   # (3,)


def segment_layout(intervals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and lengths of the intervals laid end to end, and each slot's sample index."""
    lengths = np.array([itv.length for itv in intervals], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    starts = np.array([itv.start for itv in intervals], dtype=np.intp)
    return offsets, lengths, np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def fit_planes(points, intervals, f_error: float = DEFAULT_F_ERROR) -> list[PlanarityResult]:
    """Fit a plane by PCA to each inclusive interval of a 3-D point sequence.

    One batch: per-interval centroids and the six distinct covariance terms
    are summed segment-wise, then the stacked (I, 3, 3) covariances go
    through a single SVD.  Point sets of size <= 2 (and exactly collinear
    sets) always lie in a plane and come back with fitting_error 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (N, 3) array")
    if not intervals:
        return []
    offsets, lengths, rows = segment_layout(intervals)
    if rows.max() >= pts.shape[0]:
        raise ValueError(f"interval outside the {pts.shape[0]} points")
    seg = pts[rows]
    centroids = np.add.reduceat(seg, offsets, axis=0) / lengths[:, None]
    seg -= np.repeat(centroids, lengths, axis=0)
    cov = np.empty((len(lengths), 3, 3))
    for a in range(3):
        for b in range(a, 3):
            cov[:, a, b] = cov[:, b, a] = \
                np.add.reduceat(seg[:, a] * seg[:, b], offsets) / lengths
    u, sigma, _ = np.linalg.svd(cov)
    total = sigma.sum(axis=1)
    errors = np.zeros(len(lengths))
    np.divide(sigma[:, 2], total, out=errors, where=(lengths >= 3) & (total != 0))
    # rows span the plane; deterministic orientation: largest-magnitude component positive
    basis = u[:, :, :2].transpose(0, 2, 1).copy()
    lead = np.take_along_axis(basis, np.abs(basis).argmax(axis=2)[..., None], axis=2)
    np.negative(basis, out=basis, where=lead < 0)
    basis.flags.writeable = False
    centroids.flags.writeable = False
    return [PlanarityResult(float(e), bool(e < f_error), b, c)
            for e, b, c in zip(errors, basis, centroids)]


def fit_plane(points, f_error: float = DEFAULT_F_ERROR) -> PlanarityResult:
    """Fit a plane through a 3-D point set by PCA: fit_planes on one interval."""
    return fit_planes(points, [SigningInterval(0, len(points) - 1)], f_error)[0]


def project_to_plane(traj: TimedTrajectory, result: PlanarityResult) -> TimedTrajectory:
    """Project a 3-D trajectory onto a fitted plane, yielding 2-D coordinates.

    Output coordinates are inner products of the centered points with the two
    basis vectors; frame rate and start frame are preserved.
    """
    if traj.dim != 3:
        raise ValueError("projection expects a 3-D trajectory")
    rel = traj.points - result.centroid
    coords = rel @ result.basis.T
    return TimedTrajectory(coords, traj.frame_rate, traj.start_frame)
