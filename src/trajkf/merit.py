"""Per-frame merit curves: the frame-importance function and its baselines.

The headline merit of an interval is the harmonic mean of the turn rate and
twist rate when the motion is genuinely three-dimensional, and the plain
turn rate of the plane-projected motion when it is planar.  A PCA plane fit
(``fit_planes``) classifies each interval's points as planar or not.
Baseline descriptors (arc-length curvature in 2-D/3-D, time-parameterized
curvature in 2-D/3-D) share the same curve representation so one selection
stage serves all of them.

``segmented_merit`` lays all intervals end to end (``segment_layout``) and
computes their curves in one pass; ``merit_curves`` splits it per interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import BRANCH_NONPLANAR, BRANCH_PLANAR, CurveKind, DescriptorCurve
from .trajectory import MIN_SAMPLES, DerivativeStack, SigningInterval, TimedTrajectory
from .trajectory import differentiate, speed

DEFAULT_F_ERROR = 5e-2
HARMONIC_EPS = 1e-12

# Twist-rate estimates divide by |d1 x d2|^2 ~ v^6, so samples in the slow
# tails near rest boundaries are noise-dominated; they are masked (and thus
# zeroed in the merit) below this fraction of the interval's fast speed.
TORSION_SPEED_FRACTION = 0.25


class MeritMethod(Enum):
    """Descriptor used to rank frames; values match the CLI / file tags."""

    MT = "mt"
    K2DT = "k2dt"
    K3DT = "k3dt"
    KAPPA2DS = "k2ds"
    KAPPA3DS = "k3ds"


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
    seg = seg - np.repeat(centroids, lengths, axis=0)
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
    mask = k.valid_mask & t_abs.valid_mask & (a + b >= HARMONIC_EPS)
    vals = np.zeros_like(a)
    np.divide(2 * a * b, a + b, out=vals, where=mask)
    return DescriptorCurve(vals, CurveKind.H_T, mask)


def segment_layout(intervals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and lengths of the intervals laid end to end, and each slot's sample index."""
    lengths = np.array([itv.length for itv in intervals], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    starts = np.array([itv.start for itv in intervals], dtype=np.intp)
    return offsets, lengths, np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def merit_order(method: MeritMethod, traj: TimedTrajectory) -> int:
    """Derivative order segmented_merit needs: 3 to plane-fit MT on 3-D input, if long enough."""
    fit = method is MeritMethod.MT and traj.dim == 3
    return 3 if fit and traj.n_samples >= MIN_SAMPLES[3] else 2


def segmented_merit(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                    method: MeritMethod, f_error: float = DEFAULT_F_ERROR,
                    speed_threshold: float = 0.0, d: DerivativeStack | None = None,
                    v: np.ndarray | None = None) -> tuple[DescriptorCurve, list, np.ndarray]:
    """All intervals' descriptor curves under ``method``, laid end to end as
    the segments of one curve (``segment_layout``), each one's branch, and the
    trajectory sample of every curve slot.

    For MeritMethod.MT on 3-D input each interval's points are plane-fitted.
    Planar intervals are ranked by the turn rate of the motion projected onto
    their plane (the whole-trajectory derivatives times the plane basis);
    non-planar ones by the harmonic mean of turn and twist rates, masked
    where the speed is below TORSION_SPEED_FRACTION of the interval's
    95th-percentile speed.  2-D input takes the planar branch directly.
    Baseline methods skip the classification (branch None); the 2-D ones
    read the first two coordinates.  Samples slower than a positive
    ``speed_threshold`` are masked too; masked entries are stored as 0.
    One pass over the N laid-out samples, O(N log N) for the percentile sort.
    ``d`` is ``differentiate(traj, merit_order(method, traj))`` and ``v`` its
    speed, each computed when not given; the kernels read ``v``, bar the one
    over a 3-D trajectory's first two coordinates.  A non-planar interval
    raises ValueError if the trajectory is too short for third derivatives.
    """
    n = traj.n_samples
    for itv in intervals:
        if itv.end >= n:
            raise ValueError(
                f"interval [{itv.start}, {itv.end}] outside trajectory of {n} samples")
    offsets, lengths, rows = segment_layout(intervals)
    if not intervals:   # an empty curve; its kind is moot
        return DescriptorCurve(np.zeros(0), CurveKind.M_T, np.zeros(0, dtype=bool)), [], rows
    if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim != 3:
        raise ValueError(f"method {method.value} needs a 3-D trajectory")

    fit = method is MeritMethod.MT and traj.dim == 3
    d = differentiate(traj, merit_order(method, traj)) if d is None else d
    v = speed(d) if v is None else v
    branches = [BRANCH_PLANAR if method is MeritMethod.MT else None] * len(intervals)
    if not fit:   # one kernel over the whole trajectory
        xy = method in (MeritMethod.K2DT, MeritMethod.KAPPA2DS) and traj.dim == 3
        shape = DerivativeStack(d.d1[:, :2], d.d2[:, :2]) if xy else d   # with its own speed
        rate = method not in (MeritMethod.KAPPA2DS, MeritMethod.KAPPA3DS)
        base = geometry.descriptor_kernel(shape, speed(shape) if xy else v, rate)[0]
        values, mask = base.values[rows], base.valid_mask[rows]
    else:   # one kernel over the projected planar samples, one over the rest
        errors, bases, _ = fit_planes(traj.points[rows], offsets, lengths)
        planar = errors < f_error
        flat = np.repeat(planar, lengths)
        values, mask = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
        branches = np.where(planar, BRANCH_PLANAR, BRANCH_NONPLANAR).tolist()
        if planar.any():   # per-interval products: a batched product rounds differently
            sl = [(slice(intervals[j].start, intervals[j].end + 1), bases[j].T)
                  for j in np.flatnonzero(planar).tolist()]
            k = geometry.curvature_t(DerivativeStack(
                *(np.concatenate([x[s] @ b for s, b in sl]) for x in (d.d1, d.d2))))
            values[flat], mask[flat] = k.values, k.valid_mask
        if not planar.all():
            if d.d3 is None:
                raise ValueError(f"need at least {MIN_SAMPLES[3]} samples for order 3, got {n}")
            hr = rows[~flat]
            h = harmonic_mean_curve(*geometry.descriptor_kernel(
                DerivativeStack(d.d1[hr], d.d2[hr], d.d3[hr]), v[hr], True, torsion=True))
            cut = TORSION_SPEED_FRACTION * segment_percentile(v[hr], lengths[~planar], 95)
            values[~flat] = h.values
            mask[~flat] = h.valid_mask & (v[hr] >= np.repeat(cut, lengths[~planar]))
    mask = mask & (v[rows] >= speed_threshold) if speed_threshold > 0 else mask
    kind = CurveKind.M_T if method is MeritMethod.MT else base.kind
    return DescriptorCurve(values, kind, mask, offsets=offsets), branches, rows


def merit_curves(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                 method: MeritMethod, f_error: float = DEFAULT_F_ERROR,
                 speed_threshold: float = 0.0) -> list[DescriptorCurve]:
    """segmented_merit's curve split into one curve per interval, each with its
    ``branch``: one pass over all intervals laid end to end, O(N log N)."""
    curve, branches, _ = segmented_merit(traj, intervals, method, f_error, speed_threshold)
    bounds = [*curve.offsets.tolist(), len(curve)]
    return [DescriptorCurve(curve.values[a:b], curve.kind, curve.valid_mask[a:b], branch)
            for a, b, branch in zip(bounds, bounds[1:], branches)]


def segment_percentile(values: np.ndarray, lengths: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(segment, q)`` of each of the segments laid end to end, bit for bit.

    One value argsort and one integer sort of (segment, rank) keys, O(N log N),
    or for one segment a partition, O(N); then numpy's linear rule: index
    (n - 1) * q / 100 and its ``_lerp`` with the ``t >= 0.5`` form.  Lengths
    must be positive, values NaN-free.
    """
    offsets = np.cumsum(lengths) - lengths
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
        key = np.repeat(offsets, lengths) * len(order)   # segments in order, ranks within
        ordered = values[order[np.sort(key + rank) - key]]
    a, b = ordered[first], ordered[second]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


# kept for perfbench/tracing.py and perfbench/test_perfbench.py
def merit_curve(traj: TimedTrajectory, interval: SigningInterval, method: MeritMethod,
                f_error: float = DEFAULT_F_ERROR) -> DescriptorCurve:
    """merit_curves for one interval; each call differentiates the whole trajectory."""
    return merit_curves(traj, [interval], method, f_error)[0]
