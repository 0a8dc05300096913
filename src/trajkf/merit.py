"""Per-frame merit curves: the frame-importance function and its baselines.

The headline merit of an interval is the harmonic mean of the turn rate and
twist rate when the motion is genuinely three-dimensional, and the plain
turn rate of the plane-projected motion when it is planar.  Baseline
descriptors (arc-length curvature in 2-D/3-D, time-parameterized curvature
in 2-D/3-D) share the same curve representation so one selection stage
serves all of them.

``segmented_merit`` computes all intervals' curves in one pass, laid end to
end as one segmented curve, and ``merit_curves`` splits it per interval.
``merit_curve`` is its one-interval case, kept for the benchmark tracer
(``perfbench/tracing.py``) that wraps it.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import BRANCH_NONPLANAR, BRANCH_PLANAR, CurveKind, DescriptorCurve
# fit_plane and project_to_plane stay importable here for perfbench/tracing.py
from .planarity import DEFAULT_F_ERROR, fit_plane, fit_planes, project_to_plane  # noqa: F401
from .planarity import segment_layout
from .trajectory import MIN_SAMPLES, DerivativeStack, SigningInterval, TimedTrajectory
from .trajectory import differentiate, speed

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


def segmented_merit(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                    method: MeritMethod, f_error: float = DEFAULT_F_ERROR,
                    speed_threshold: float = 0.0) -> tuple[DescriptorCurve, list[str | None]]:
    """All intervals' descriptor curves under ``method``, laid end to end as
    the segments of one curve (``segment_layout``), and each one's branch.

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
    A non-planar interval raises ValueError if the trajectory is too short
    for third derivatives.
    """
    n = traj.n_samples
    for itv in intervals:
        if itv.end >= n:
            raise ValueError(
                f"interval [{itv.start}, {itv.end}] outside trajectory of {n} samples")
    if not intervals:   # an empty curve; its kind is moot
        return DescriptorCurve(np.zeros(0), CurveKind.M_T, np.zeros(0, dtype=bool)), []
    if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim != 3:
        raise ValueError(f"method {method.value} needs a 3-D trajectory")

    fit = method is MeritMethod.MT and traj.dim == 3
    d = differentiate(traj, 3 if fit and n >= MIN_SAMPLES[3] else 2)
    offsets, lengths, rows = segment_layout(intervals)
    v = speed(d)[rows]
    branches = [BRANCH_PLANAR if method is MeritMethod.MT else None] * len(intervals)
    if not fit:   # one kernel over the whole trajectory
        shape = d
        if method in (MeritMethod.K2DT, MeritMethod.KAPPA2DS) and traj.dim == 3:
            shape = DerivativeStack(d.d1[:, :2], d.d2[:, :2])
        rate = method not in (MeritMethod.KAPPA2DS, MeritMethod.KAPPA3DS)
        base = geometry.descriptor_kernel(shape, rate)[1]
        values, mask = base.values[rows], base.valid_mask[rows]
    else:   # one kernel over the projected planar samples, one over the rest
        planes = fit_planes(traj.points, intervals, f_error)
        planar = np.array([p.is_planar for p in planes])
        flat = np.repeat(planar, lengths)
        values, mask = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
        if planar.any():   # per-interval products: a batched product rounds differently
            sl = [(slice(i.start, i.end + 1), p.basis.T)
                  for i, p in zip(intervals, planes) if p.is_planar]
            k = geometry.curvature_t(DerivativeStack(
                *(np.concatenate([x[s] @ b for s, b in sl]) for x in (d.d1, d.d2))))
            values[flat], mask[flat] = k.values, k.valid_mask
        if not planar.all():
            if d.d3 is None:
                raise ValueError(f"need at least {MIN_SAMPLES[3]} samples for order 3, got {n}")
            hr = rows[~flat]
            h = harmonic_mean_curve(*geometry.descriptor_kernel(
                DerivativeStack(d.d1[hr], d.d2[hr], d.d3[hr]), rate=True, torsion=True)[1:])
            cut = TORSION_SPEED_FRACTION * segment_percentile(v[~flat], lengths[~planar], 95)
            values[~flat] = h.values
            mask[~flat] = h.valid_mask & (v[~flat] >= np.repeat(cut, lengths[~planar]))
            branches = [BRANCH_PLANAR if p.is_planar else BRANCH_NONPLANAR for p in planes]
    mask = mask & (v >= speed_threshold) if speed_threshold > 0 else mask
    kind = CurveKind.M_T if method is MeritMethod.MT else base.kind
    return DescriptorCurve(values, kind, mask, offsets=offsets), branches


def merit_curves(traj: TimedTrajectory, intervals: Sequence[SigningInterval],
                 method: MeritMethod, f_error: float = DEFAULT_F_ERROR,
                 speed_threshold: float = 0.0) -> list[DescriptorCurve]:
    """segmented_merit's curve split into one curve per interval, each with its
    ``branch``: one pass over all intervals laid end to end, O(N log N)."""
    curve, branches = segmented_merit(traj, intervals, method, f_error, speed_threshold)
    bounds = [*curve.offsets.tolist(), len(curve)]
    return [DescriptorCurve(curve.values[a:b], curve.kind, curve.valid_mask[a:b], branch)
            for a, b, branch in zip(bounds, bounds[1:], branches)]


def segment_percentile(values: np.ndarray, lengths: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(segment, q)`` of each of the segments laid end to end, bit for bit.

    One value argsort and one integer sort of (segment, rank) keys, O(N log N),
    then numpy's linear rule: index (n - 1) * q / 100 and its ``_lerp`` with
    the ``t >= 0.5`` form.  Lengths must be positive, values NaN-free.
    """
    offsets = np.cumsum(lengths) - lengths
    order = np.argsort(values)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    key = np.repeat(offsets, lengths) * len(order)   # segments in order, ranks within
    ordered = values[order[np.sort(key + rank) - key]]
    index = (lengths - 1) * (q / 100)
    t = index - np.floor(index) + (lengths == 1)   # numpy reads a lone sample at -1: t = 1
    first = offsets + np.floor(index).astype(np.intp)
    a, b = ordered[first], ordered[np.minimum(first + 1, offsets + lengths - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def merit_curve(traj: TimedTrajectory, interval: SigningInterval, method: MeritMethod,
                f_error: float = DEFAULT_F_ERROR) -> DescriptorCurve:
    """merit_curves for one interval; each call differentiates the whole trajectory."""
    return merit_curves(traj, [interval], method, f_error)[0]
