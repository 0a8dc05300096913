"""Per-frame merit curves: the frame-importance function and its baselines.

The headline merit of an interval is the harmonic mean of the turn rate and
twist rate when the motion is genuinely three-dimensional, and the plain
turn rate of the plane-projected motion when it is planar.  Baseline
descriptors (arc-length curvature in 2-D/3-D, time-parameterized curvature
in 2-D/3-D) share the same curve representation so one selection stage
serves all of them.

``merit_curves`` differentiates the whole trajectory once, computes speed
and the descriptor kernel once, fits all interval planes in one batch and
slices the results per interval.  ``merit_curve`` is its one-interval case,
kept for the benchmark tracer (``perfbench/tracing.py``) that wraps it.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import BRANCH_NONPLANAR, BRANCH_PLANAR, CurveKind, DescriptorCurve
# fit_plane and project_to_plane stay importable here for perfbench/tracing.py
from .planarity import DEFAULT_F_ERROR, fit_plane, fit_planes, project_to_plane  # noqa: F401
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


def merit_curves(
    traj: TimedTrajectory,
    intervals: Sequence[SigningInterval],
    method: MeritMethod,
    f_error: float = DEFAULT_F_ERROR,
    speed_threshold: float = 0.0,
) -> list[DescriptorCurve]:
    """Descriptor curve of each signing interval under the given method.

    For MeritMethod.MT on 3-D input each interval's points are plane-fitted.
    Planar intervals are ranked by the turn rate of the motion projected onto
    their plane (the whole-trajectory derivatives times the plane basis);
    non-planar ones by the harmonic mean of turn and twist rates, masked
    where the speed is below TORSION_SPEED_FRACTION of the interval's
    95th-percentile speed.  2-D input takes the planar branch directly; each
    curve's ``branch`` records which case ran.  Baseline methods skip the
    classification; the 2-D ones read the first two coordinates.  Samples
    slower than a positive ``speed_threshold`` are masked too.  Curves are
    aligned to their interval's samples with masked entries stored as 0.

    Derivatives go to third order only when the trajectory has enough
    samples for it; a non-planar interval without them raises ValueError.
    """
    n = traj.n_samples
    for itv in intervals:
        if itv.end >= n:
            raise ValueError(
                f"interval [{itv.start}, {itv.end}] outside trajectory of {n} samples")
    if not intervals:
        return []
    if method in (MeritMethod.K3DT, MeritMethod.KAPPA3DS) and traj.dim != 3:
        raise ValueError(f"method {method.value} needs a 3-D trajectory")

    fit = method is MeritMethod.MT and traj.dim == 3
    d = differentiate(traj, 3 if fit and n >= MIN_SAMPLES[3] else 2)
    shape = d
    if method in (MeritMethod.K2DT, MeritMethod.KAPPA2DS) and traj.dim == 3:
        shape = DerivativeStack(d.d1[:, :2], d.d2[:, :2])
    rate = method not in (MeritMethod.KAPPA2DS, MeritMethod.KAPPA3DS)
    v, base, twist = geometry.descriptor_kernel(shape, rate, torsion=d.d3 is not None)
    if shape is not d:
        v = speed(d)
    harmonic = harmonic_mean_curve(base, twist) if twist is not None else None
    planes = fit_planes(traj.points, intervals, f_error) if fit else [None] * len(intervals)
    moving = v >= speed_threshold if speed_threshold > 0 else np.ones(n, dtype=bool)
    kind = CurveKind.M_T if method is MeritMethod.MT else base.kind

    curves = []
    for itv, plane in zip(intervals, planes):
        sl = slice(itv.start, itv.end + 1)
        branch = BRANCH_PLANAR if method is MeritMethod.MT else None
        if plane is None:
            values, mask = base.values[sl], base.valid_mask[sl]
        elif plane.is_planar:
            flat = DerivativeStack(d.d1[sl] @ plane.basis.T, d.d2[sl] @ plane.basis.T)
            projected = geometry.curvature_t(flat)
            values, mask = projected.values, projected.valid_mask
        elif harmonic is None:
            raise ValueError(
                f"need at least {MIN_SAMPLES[3]} samples for order 3, got {n}")
        else:
            cutoff = TORSION_SPEED_FRACTION * np.percentile(v[sl], 95)
            values = harmonic.values[sl]
            mask = harmonic.valid_mask[sl] & (v[sl] >= cutoff)
            branch = BRANCH_NONPLANAR
        curves.append(DescriptorCurve(values, kind, mask & moving[sl], branch))
    return curves


def merit_curve(
    traj: TimedTrajectory,
    interval: SigningInterval,
    method: MeritMethod,
    f_error: float = DEFAULT_F_ERROR,
) -> DescriptorCurve:
    """merit_curves for one interval; each call differentiates the whole trajectory."""
    return merit_curves(traj, [interval], method, f_error)[0]
