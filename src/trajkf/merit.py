"""Per-frame merit curves: the frame-importance function and its baselines.

The headline merit of an interval is the harmonic mean of the turn rate and
twist rate when the motion is genuinely three-dimensional, and the plain
turn rate of the plane-projected motion when it is planar.  A PCA plane fit
(``fit_planes``) classifies each interval's points as planar or not.
Baseline descriptors (arc-length curvature in 2-D/3-D, time-parameterized
curvature in 2-D/3-D) share the same curve representation so one selection
stage serves all of them.

``merit_batches`` computes the curves in batches of whole intervals, each laid
end to end (``segment_layout``), and ``merit_curves`` splits each batch's curve
per interval.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import geometry
from .formats import MeritMethod, SigningInterval
from .geometry import BRANCH_NONPLANAR, BRANCH_PLANAR, DescriptorCurve
# differentiate stays importable here: kept for perfbench/tracing.py
from .trajectory import differentiate  # noqa: F401
from .trajectory import DerivativeStack, TimedTrajectory, derivative, frozen, gaussian_smooth, speed

DEFAULT_F_ERROR = 5e-2
HARMONIC_EPS = 1e-12
# most samples in a block of the speed, or in a merit batch of whole intervals: a batch's work
# arrays grow with it, and the batches' fixed cost (a few hundred calls each) with their count
_BATCH_ROWS = 4096

# Twist-rate estimates divide by |d1 x d2|^2 ~ v^6, so samples in the slow
# tails near rest boundaries are noise-dominated; they are masked (and thus
# zeroed in the merit) below this fraction of the interval's fast speed.
TORSION_SPEED_FRACTION = 0.25


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


def fit_planes(seg, offsets, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit a plane by PCA to each non-empty segment of (N, 3) points ``seg``.

    ``offsets`` and ``lengths`` lay the segments out as segment_layout
    does; the caller checks them.  Returns PlanarityResult's fields as arrays:
    errors (I,), bases (I, 2, 3) and centroids (I, 3).  One batch: per-segment
    centroids and the six distinct covariance terms are summed segment-wise,
    then the stacked (I, 3, 3) covariances go through a single SVD.  Point
    sets of size <= 2 (and exactly collinear sets) always lie in a plane, with
    fitting error 0.
    """
    centroids = np.add.reduceat(seg, offsets, axis=0) / lengths[:, None]
    seg = seg - centroids.repeat(lengths, axis=0)
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
    return errors, basis, centroids


def fit_plane(points, f_error: float = DEFAULT_F_ERROR) -> PlanarityResult:
    """Fit a plane through a 3-D point set by PCA: fit_planes on one segment."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 3:
        raise ValueError(f"points must be a non-empty (N, 3) array, got shape {pts.shape}")
    (error,), (basis,), (centroid,) = fit_planes(pts, np.zeros(1, np.intp), np.array([len(pts)]))
    return PlanarityResult(float(error), bool(error < f_error), basis, centroid)


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


def harmonic_mean_curve(k: DescriptorCurve, t_abs: DescriptorCurve) -> DescriptorCurve:
    """Harmonic mean 2ab/(a+b) of turn-rate and twist-rate curves.

    Samples where either input is masked, or where the sum falls below
    HARMONIC_EPS, are masked (and therefore stored as 0).
    """
    if len(k) != len(t_abs):
        raise ValueError(f"curve length mismatch: {len(k)} vs {len(t_abs)}")
    a = k.values
    b = t_abs.values
    return geometry.masked_ratio(2 * a * b, a + b,
                                 k.valid_mask & t_abs.valid_mask & (a + b >= HARMONIC_EPS))


def segment_layout(intervals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and lengths of the intervals laid end to end, and each slot's sample index."""
    lengths = np.array([itv.length for itv in intervals], dtype=np.intp)
    offsets = lengths.cumsum() - lengths
    starts = np.array([itv.start for itv in intervals], dtype=np.intp)
    return offsets, lengths, np.arange(lengths.sum()) + (starts - offsets).repeat(lengths)


def speed_profile(traj: TimedTrajectory, sigma: float = 0.0) -> np.ndarray:
    """``speed(differentiate(gaussian_smooth(traj, sigma), 1))`` bit for bit, in blocks of 4096
    (_BATCH_ROWS) samples, each (with its stencils' reach) smoothed just before d1 is evaluated."""
    v = np.empty(traj.n_samples)
    for a in range(0, len(v), _BATCH_ROWS):
        b = min(len(v), a + _BATCH_ROWS)
        window, lo = _smoothed(traj, sigma, a, b)
        v[a:b] = speed(DerivativeStack(derivative(window, 1, range(a - lo, b - lo))))
    return v


def _smoothed(traj, sigma, a, b):
    """The clip smoothed at rows a - 6 to b + 5, as far as it goes, and its first row, so derivative
    at a to b - 1, shifted by it, is the whole clip's (d3 needs 7 rows); traj and 0 at sigma 0."""
    if not sigma:
        return traj, 0
    lo = max(0, a - 6)
    return gaussian_smooth(traj, sigma, range(lo, min(traj.n_samples, b + 6))), lo


def merit_batches(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                  method: MeritMethod | str, f_error: float = DEFAULT_F_ERROR,
                  speed_threshold: float = 0.0, sigma: float = 0.0):
    """The intervals' descriptor curve on ``gaussian_smooth(traj, sigma)`` per batch of
    consecutive whole intervals of at most _BATCH_ROWS (4096) laid-out samples (a longer one
    alone), in order: (curve, branches, rows), the batch's intervals laid end to end as the
    segments of one curve (``segment_layout``), each one's branch, and the trajectory sample of
    every curve slot.  Each smooths its span (by start, they sum to about n + N), then evaluates
    d1, and the speed as its norm, and d2 at its samples and d3 at its non-planar ones: nothing
    spans the clip; O(N log N) over N samples.  The curve's values and mask are allocated only
    once the batch's kernels have run.  Too short a clip, or a negative or NaN ``sigma``,
    ``f_error`` or ``speed_threshold``, raises ValueError on ``next``."""
    method, n = MeritMethod(method), traj.n_samples   # a member, or its tag
    for name, x in [("sigma", sigma), ("f_error", f_error), ("speed_threshold", speed_threshold)]:
        if not x >= 0:   # NaN fails too
            raise ValueError(f"{name} must be >= 0, got {x}")
    for itv in intervals:
        if itv.end >= n:
            raise ValueError(
                f"interval [{itv.start}, {itv.end}] outside trajectory of {n} samples")
    if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim != 3:
        raise ValueError(f"method {method.value} needs a 3-D trajectory")
    if not intervals:
        return
    derivative(traj, 2, range(0))   # first, so a short trajectory fails naming order 2
    first, size = 0, 0
    for j, m in enumerate([*(itv.length for itv in intervals), _BATCH_ROWS + 1]):
        if size and size + m > _BATCH_ROWS:   # the sentinel ends the last
            yield _merit_batch(traj, method, f_error, speed_threshold, sigma, intervals[first:j])
            first, size = j, 0
        size += m


def _merit_batch(traj, method, f_error, speed_threshold, sigma, intervals):
    """merit_batches' (curve, branches, rows) for one batch of whole intervals."""
    offsets, lengths, rows = segment_layout(intervals)
    traj, lo = _smoothed(traj, sigma, rows.min(), rows.max() + 1)
    rows -= lo   # the batch's samples in the smoothed window, until the return
    d1 = derivative(traj, 1, rows)
    vb = speed(DerivativeStack(d1))
    d2 = derivative(traj, 2, rows)
    branches = [BRANCH_PLANAR if method is MeritMethod.MT else None] * len(lengths)
    if method is not MeritMethod.MT or traj.dim == 2:   # one kernel over the laid-out samples
        xy = method in (MeritMethod.K2DT, MeritMethod.KAPPA2DS) and traj.dim == 3
        shape = DerivativeStack(d1[:, :2], d2[:, :2]) if xy else DerivativeStack(d1, d2)
        rate = method not in (MeritMethod.KAPPA2DS, MeritMethod.KAPPA3DS)
        base = geometry.descriptor_kernel(shape, speed(shape) if xy else vb, rate)[0]
        values, mask = base.values, base.valid_mask
    else:   # one kernel over the projected planar samples, one over the rest
        errors, bases, _ = fit_planes(traj.points[rows], offsets, lengths)
        planar = errors < f_error
        flat = planar.repeat(lengths)
        branches = np.where(planar, BRANCH_PLANAR, BRANCH_NONPLANAR).tolist()
        parts = []   # each kernel's samples, values and mask
        if planar.any():   # per-interval products: a batched product rounds differently
            sl = [(offsets[j], lengths[j], bases[j].T) for j in planar.nonzero()[0].tolist()]
            k = geometry.curvature_t(DerivativeStack(
                frozen(np.concatenate([d1[o:o + m] @ b for o, m, b in sl])),
                frozen(np.concatenate([d2[o:o + m] @ b for o, m, b in sl]))))
            parts.append((flat, k.values, k.valid_mask))
        if not planar.all():   # rebound, the batch-long d1 and d2 are freed before the kernel
            d1, d2, vh = (frozen(d1[~flat]), frozen(d2[~flat]), vb[~flat]) if planar.any() \
                else (d1, d2, vb)
            h = harmonic_mean_curve(*geometry.descriptor_kernel(DerivativeStack(
                d1, d2, derivative(traj, 3, rows[~flat])), vh, True, torsion=True))
            cut = TORSION_SPEED_FRACTION * segment_percentile(vh, lengths[~planar], 95)
            parts.append((~flat, h.values, h.valid_mask & (vh >= cut.repeat(lengths[~planar]))))
        values, mask = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)   # after the kernels
        for at, part_values, part_mask in parts:
            values[at], mask[at] = part_values, part_mask
    if speed_threshold > 0:
        mask = mask & (vb >= speed_threshold)
    return DescriptorCurve(values, mask, offsets=offsets), branches, rows + lo


def merit_curves(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                 method: MeritMethod | str, f_error: float = DEFAULT_F_ERROR,
                 speed_threshold: float = 0.0) -> list[DescriptorCurve]:
    """Each interval's descriptor curve under ``method``, with its ``branch``: merit_batches'
    curves split at their offsets.

    For MeritMethod.MT on 3-D input each interval's points are plane-fitted.
    Planar intervals are ranked by the turn rate of the motion projected onto
    their plane (the derivatives times the plane basis); non-planar ones by
    the harmonic mean of turn and twist rates, masked where the speed is
    below TORSION_SPEED_FRACTION of the interval's 95th-percentile speed.
    2-D input takes the planar branch directly.  Baseline methods skip the
    classification (branch None); the 2-D ones read the first two
    coordinates.  Samples slower than a positive ``speed_threshold`` are
    masked too; masked entries are stored as 0.  The speed is the norm of the
    velocity evaluated at the interval's samples.
    """
    curves = []
    for curve, branches, _ in merit_batches(traj, intervals, method, f_error, speed_threshold):
        bounds = [*curve.offsets.tolist(), len(curve)]
        curves += [DescriptorCurve(curve.values[a:b], curve.valid_mask[a:b], branch)
                   for a, b, branch in zip(bounds, bounds[1:], branches)]
    return curves


def segment_percentile(values: np.ndarray, lengths: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(segment, q)`` of each of the segments laid end to end, bit for bit.

    One value argsort and one integer sort of (segment, rank) keys, O(N log N),
    or for one segment a partition, O(N); then numpy's linear rule: index
    (n - 1) * q / 100 and its ``_lerp`` with the ``t >= 0.5`` form.  Lengths
    must be positive, values NaN-free.
    """
    offsets = lengths.cumsum() - lengths
    index = (lengths - 1) * (q / 100)
    t = index - np.floor(index) + (lengths == 1)   # numpy reads a lone sample at -1: t = 1
    first = offsets + np.floor(index).astype(np.intp)
    second = np.minimum(first + 1, offsets + lengths - 1)
    if len(lengths) == 1:   # both order statistics in place
        ordered = np.partition(values, [first[0], second[0]])
    else:
        order = np.argsort(values)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        key = offsets.repeat(lengths) * len(order)   # segments in order, ranks within
        ordered = values[order[np.sort(key + rank) - key]]
    a, b = ordered[first], ordered[second]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


# kept for perfbench/tracing.py and perfbench/test_perfbench.py
def merit_curve(traj: TimedTrajectory, interval: SigningInterval, method: MeritMethod,
                f_error: float = DEFAULT_F_ERROR) -> DescriptorCurve:
    """merit_curves for one interval; each call differentiates only the interval's samples."""
    return merit_curves(traj, [interval], method, f_error)[0]
