"""End-to-end keyframe extraction: smooth, segment, score, select."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .formats import KeyframeSet, MeritMethod, SigningInterval
# merit_curve, differentiate and gaussian_smooth stay importable: kept for perfbench/tracing.py
from .merit import DEFAULT_F_ERROR, merit_batches, merit_curve, speed_profile  # noqa: F401
from .selection import (
    DEFAULT_MIN_GAP,
    DEFAULT_MIN_LEN,
    default_speed_threshold,
    detect_intervals,
    find_peaks,
    select_keyframes,
)
from .trajectory import MIN_SAMPLES, TimedTrajectory, differentiate, gaussian_smooth  # noqa: F401

DEFAULT_SIGMA = 2.0


def extract_keyframes(
    traj: TimedTrajectory,
    method: MeritMethod | str = MeritMethod.MT,
    count: int = 1,
    sigma: float = DEFAULT_SIGMA,
    f_error: float = DEFAULT_F_ERROR,
    intervals: Sequence[SigningInterval] | None = None,
    speed_threshold: float | None = None,
    min_gap: int = DEFAULT_MIN_GAP,
    min_len: int = DEFAULT_MIN_LEN,
) -> KeyframeSet:
    """Select the ``count`` most prominent merit maxima of a trajectory.

    The trajectory is never smoothed whole: speed_profile smooths and differentiates it in
    blocks of samples, once, for the threshold, the interval detection (unless intervals are
    supplied, e.g. from an annotation file) and the merit.  merit_batches scores the distinct
    intervals, by start, in batches of whole intervals, each smoothing only its span, and
    find_peaks takes each batch's peaks; all the candidates are ranked by prominence, and a
    frame where overlapping intervals both peak is one candidate at its best, so keyframes
    are distinct.  Only the clip and the speed span it.  Frames slower than the speed
    threshold never become candidates, so rest frames inside annotated intervals stay
    excluded.  Frames in the result are sample indices into ``traj``.  Raises
    FloatingPointError on overflow.
    """
    method = MeritMethod(method)   # a member, or its tag
    with np.errstate(over="raise", invalid="raise"):
        # a shorter clip: each stage's own result or error
        v = speed_profile(traj, sigma) if traj.n_samples >= MIN_SAMPLES[1] else None
        threshold = speed_threshold if speed_threshold is not None \
            else default_speed_threshold(traj, v)
        if intervals is None:
            intervals = detect_intervals(traj, threshold, min_gap, min_len, v) \
                if threshold > 0 else []
        distinct = sorted(set(intervals))   # each once; by start, the batches' spans overlap little
        frames, prominences = [np.zeros(0, np.intp)], [np.zeros(0)]
        for curve, _, rows in merit_batches(traj, distinct, method, f_error, threshold, sigma, v):
            peaks = find_peaks(curve)
            frames.append(rows[[p.frame for p in peaks]])
            prominences.append(np.array([p.prominence for p in peaks]))
            del curve, rows, peaks   # before the next batch is built
    return select_keyframes(np.concatenate(frames), np.concatenate(prominences), count,
                            method=method)
